"""Synthetic packet-arrival traces: Poisson background, periodic attack, merging.

All timestamps are integer nanoseconds from the start of the trace.  Traces
are kept sorted by timestamp; equal timestamps are allowed.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, PreconditionError, require_finite

BACKGROUND = 0
ATTACK = 1

_TRACE_HEADER = "t_ns,size_bytes,label"


@dataclass(frozen=True, eq=False)
class PacketTrace:
    """Column-oriented packet sequence (sorted by t_ns)."""

    t_ns: np.ndarray
    size_bytes: np.ndarray
    label: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "t_ns", np.asarray(self.t_ns, dtype=np.int64))
        object.__setattr__(self, "size_bytes", np.asarray(self.size_bytes, dtype=np.int64))
        object.__setattr__(self, "label", np.asarray(self.label, dtype=np.uint8))
        if not (len(self.t_ns) == len(self.size_bytes) == len(self.label)):
            raise ConfigError("trace columns must have equal length")

    def __len__(self):
        return len(self.t_ns)

    def __eq__(self, other):
        if not isinstance(other, PacketTrace):
            return NotImplemented
        return (
            np.array_equal(self.t_ns, other.t_ns)
            and np.array_equal(self.size_bytes, other.size_bytes)
            and np.array_equal(self.label, other.label)
        )

    def is_sorted(self) -> bool:
        return len(self) < 2 or bool(np.all(np.diff(self.t_ns) >= 0))

    @classmethod
    def empty(cls) -> "PacketTrace":
        return cls(np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, np.uint8))



@dataclass(frozen=True)
class PoissonConfig:
    """Poisson background traffic: i.i.d. exponential inter-arrival gaps.

    mean_gap_ns is the exponential mean (float ns); duration_ns bounds the
    trace half-open at [0, duration_ns).  size_mix, when given, is a tuple of
    (size_bytes, weight) pairs overriding the fixed size.
    """

    mean_gap_ns: float
    duration_ns: int
    seed: int
    size_bytes: int = 1500
    size_mix: tuple[tuple[int, float], ...] = ()

    def __post_init__(self):
        require_finite(mean_gap_ns=self.mean_gap_ns)
        if self.mean_gap_ns <= 0:
            raise ConfigError("mean_gap_ns must be positive")
        if self.duration_ns < 0:
            raise ConfigError("duration_ns must be non-negative")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.size_mix:
            weights = [w for _, w in self.size_mix]
            require_finite(**{f"size_mix[{i}] weight": w for i, w in enumerate(weights)})
            if any(s < 1 for s, _ in self.size_mix) or any(w < 0 for w in weights):
                raise ConfigError("size_mix entries must be (size>=1, weight>=0)")
            if abs(sum(weights) - 1.0) > 1e-9:
                raise ConfigError("size_mix weights must sum to 1")
        elif self.size_bytes < 1:
            raise ConfigError("size_bytes must be >= 1")


@dataclass(frozen=True)
class AttackConfig:
    """Strictly periodic packet train, optional truncated Gaussian jitter."""

    period_ns: int
    duration_ns: int
    size_bytes: int = 1500
    start_offset_ns: int = 0
    jitter_stddev_ns: float = 0.0
    seed: int = 0

    def __post_init__(self):
        require_finite(jitter_stddev_ns=self.jitter_stddev_ns)
        if self.period_ns <= 0:
            raise ConfigError("period_ns must be positive")
        if self.duration_ns < 0:
            raise ConfigError("duration_ns must be non-negative")
        if self.start_offset_ns < 0:
            raise ConfigError("start_offset_ns must be non-negative")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.size_bytes < 1:
            raise ConfigError("size_bytes must be >= 1")
        if self.jitter_stddev_ns < 0:
            raise ConfigError("jitter_stddev_ns must be non-negative")
        if self.jitter_stddev_ns >= self.period_ns / 4:
            raise ConfigError("jitter_stddev_ns must be below period_ns / 4")


def _draw_sizes(rng, n, cfg) -> np.ndarray:
    if cfg.size_mix:
        sizes = np.array([s for s, _ in cfg.size_mix], np.int64)
        weights = np.array([w for _, w in cfg.size_mix], float)
        weights = weights / weights.sum()
        return rng.choice(sizes, size=n, p=weights)
    return np.full(n, cfg.size_bytes, np.int64)


def gen_poisson(cfg: PoissonConfig) -> PacketTrace:
    """Generate a Poisson background trace on [0, duration_ns)."""
    if cfg.duration_ns == 0:
        return PacketTrace.empty()
    rng = np.random.default_rng(cfg.seed)
    chunks = []
    acc = 0.0
    while acc < cfg.duration_ns:
        expect = (cfg.duration_ns - acc) / cfg.mean_gap_ns
        n = int(expect * 1.05) + int(4.0 * math.sqrt(expect)) + 16
        gaps = rng.exponential(cfg.mean_gap_ns, n)
        chunks.append(gaps)
        acc += float(gaps.sum())
    t = np.cumsum(np.concatenate(chunks))
    t_ns = np.rint(t[t < cfg.duration_ns]).astype(np.int64)
    t_ns = t_ns[t_ns < cfg.duration_ns]  # rounding may touch the boundary
    sizes = _draw_sizes(rng, len(t_ns), cfg)
    return PacketTrace(t_ns, sizes, np.zeros(len(t_ns), np.uint8))


def gen_periodic(cfg: AttackConfig) -> PacketTrace:
    """Generate the periodic attack trace on [0, duration_ns)."""
    if cfg.duration_ns <= cfg.start_offset_ns:
        return PacketTrace.empty()
    n = -(-(cfg.duration_ns - cfg.start_offset_ns) // cfg.period_ns)  # ceil
    t_ns = cfg.start_offset_ns + cfg.period_ns * np.arange(n, dtype=np.int64)
    if cfg.jitter_stddev_ns > 0:
        rng = np.random.default_rng(cfg.seed)
        jitter = np.rint(rng.normal(0.0, cfg.jitter_stddev_ns, n)).astype(np.int64)
        # clamp so consecutive packets cannot reorder, then clip at t=0
        bound = cfg.period_ns // 2 - 1
        np.clip(jitter, -bound, bound, out=jitter)
        t_ns = np.maximum(t_ns + jitter, 0)
    t_ns = t_ns[t_ns < cfg.duration_ns]
    sizes = np.full(len(t_ns), cfg.size_bytes, np.int64)
    return PacketTrace(t_ns, sizes, np.ones(len(t_ns), np.uint8))


def merge(a: PacketTrace, b: PacketTrace) -> PacketTrace:
    """Merge two sorted traces; ties are ordered background before attack."""
    for name, trace in (("first", a), ("second", b)):
        if not trace.is_sorted():
            raise PreconditionError(f"{name} trace is not sorted by timestamp")
    t = np.concatenate([a.t_ns, b.t_ns])
    size = np.concatenate([a.size_bytes, b.size_bytes])
    label = np.concatenate([a.label, b.label])
    order = np.lexsort((label, t))  # stable: equal (t, label) keep input order
    return PacketTrace(t[order], size[order], label[order])


def save_trace(trace: PacketTrace, path) -> None:
    _write_int_csv(path, _TRACE_HEADER, [trace.t_ns, trace.size_bytes, trace.label])


# Rows per formatted block: enough that the numpy calls per block amortize,
# few enough that the block's byte matrix stays well under a megabyte.
_BLOCK_ROWS = 16384


def _write_int_csv(path, header: str, cols) -> None:
    """Write header, then one line of comma-separated %d fields per row.

    cols are equal-length integer columns.  Lines end in LF; fields carry
    no padding and no line has a trailing comma.  Each block of rows is
    laid out as one byte matrix, a column of text per row, with NUL where
    a sign or a leading digit is absent; the NULs are then deleted.
    """
    ends = [b","] * (len(cols) - 1) + [b"\n"]
    with open(path, "wb") as f:
        f.write(header.encode("utf-8") + b"\n")
        for i in range(0, len(cols[0]), _BLOCK_ROWS):
            block = [np.asarray(c[i : i + _BLOCK_ROWS], np.int64) for c in cols]
            text = np.concatenate([_field_bytes(v, end) for v, end in zip(block, ends)])
            f.write(text.T.tobytes().translate(None, b"\0"))


def _field_bytes(values: np.ndarray, end: bytes) -> np.ndarray:
    """(sign, digits..., end) byte rows of the %d text of non-empty int64 values."""
    q = np.abs(values).view(np.uint64)  # abs(-2**63) wraps, but reads as 2**63 unsigned
    top = int(q.max())
    digits = len(str(top))
    out = np.empty((digits + 2, len(values)), np.uint8)
    np.multiply(values < 0, ord("-"), out=out[0], casting="unsafe")
    for row in range(digits, 0, -1):
        if top < 2**32 and q.dtype == np.uint64:
            q = q.astype(np.uint32)  # narrower division from here on
        quot = q // 10
        np.add(q - quot * 10, ord("0"), out=out[row], casting="unsafe")
        if row < digits:
            out[row][q == 0] = 0  # a leading zero; the units digit always stays
        q, top = quot, top // 10
    out[-1] = ord(end)
    return out


def _read_int_csv(path, header: str) -> np.ndarray:
    """Integer rows of a CSV file whose first line must equal header.

    Shape (rows, columns of the header).  A file that is not UTF-8, a wrong
    header, a non-integer value or a row of the wrong width raises
    PreconditionError.  Empty lines, CRLF endings and a body of only
    whitespace are accepted.
    """
    width = header.count(",") + 1
    try:
        with open(path, "r", encoding="utf-8") as f:
            got = f.readline().strip()
            if got != header:
                raise PreconditionError(f"{path}: unexpected header {got!r}, want {header!r}")
            body_start = f.tell()
            try:
                with warnings.catch_warnings():
                    warnings.filterwarnings(
                        "ignore", "loadtxt: input contained no data", UserWarning
                    )
                    data = np.loadtxt(f, dtype=np.int64, delimiter=",", ndmin=2)
            except ValueError as exc:
                f.seek(body_start)
                if f.read().strip():
                    raise PreconditionError(f"{path}: {exc}") from None
                data = np.empty((0, width), np.int64)  # a body of only whitespace
    except UnicodeDecodeError as exc:
        raise PreconditionError(f"{path}: not UTF-8 text: {exc.reason}") from None
    if len(data) == 0:  # np.loadtxt gives shape (0, 1) when no row was read
        return np.empty((0, width), np.int64)
    if data.shape[1] != width:
        raise PreconditionError(f"{path}: rows must have {width} columns")
    return data


def load_trace(path) -> PacketTrace:
    """Read a trace CSV; rows must be sorted by t_ns >= 0, with sizes >= 1 and labels 0 or 1."""
    data = _read_int_csv(path, _TRACE_HEADER)
    if np.any(data[:, 0] < 0):
        raise PreconditionError(f"{path}: t_ns must be non-negative")
    if np.any(data[:, 1] < 1):
        raise PreconditionError(f"{path}: size_bytes must be >= 1")
    if np.any((data[:, 2] != BACKGROUND) & (data[:, 2] != ATTACK)):
        raise PreconditionError(f"{path}: labels must be {BACKGROUND} or {ATTACK}")
    trace = PacketTrace(data[:, 0], data[:, 1], data[:, 2])
    if not trace.is_sorted():
        raise PreconditionError(f"{path}: rows are not sorted by t_ns")
    return trace
