"""Synthetic packet-arrival traces: Poisson background, periodic attack, merging.

All timestamps are integer nanoseconds from the start of the trace.  A
PacketTrace is sorted by timestamp by construction; equal timestamps are
allowed.
"""

import math
import os
import re
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, PreconditionError, require_finite, require_int64

BACKGROUND = 0
ATTACK = 1

_TRACE_HEADER = "t_ns,size_bytes,label"


def _stored(col: np.ndarray) -> np.ndarray:
    """The column's stored entries, for a reduction: a broadcast of one value (stride 0) stores one."""
    return col[:1] if col.strides == (0,) else col


def _int_column(values, name: str, dtype=np.int64) -> np.ndarray:
    """values as an array of dtype.

    PreconditionError if the values are floats and one is not a whole number
    (a fraction, NaN or inf), or if a float, uint64 or Python int value lies
    outside int64; an int64, narrower int or bool column is not scanned.
    """
    col = np.asarray(values)
    if col.dtype.kind == "f":
        stored = _stored(col)
        if not (np.isfinite(stored).all() and (np.trunc(stored) == stored).all()):
            raise PreconditionError(f"{name} must hold whole numbers")
        if not ((stored >= -(2.0**63)).all() and (stored < 2.0**63).all()):
            raise PreconditionError(f"{name} must fit int64")
    elif col.dtype == np.uint64 and col.size and _stored(col).max() > np.iinfo(np.int64).max:
        raise PreconditionError(f"{name} must fit int64")
    try:
        return np.asarray(values, dtype=dtype)
    except OverflowError:  # an object column: a Python int that no numpy integer holds
        raise PreconditionError(f"{name} must fit int64") from None


def _time_column(values, name: str) -> np.ndarray:
    """values as a time column (ns) such as t_ns or m_ns: int64, >= 0, nondecreasing.

    Ties are allowed.  PreconditionError otherwise, or if the values are
    floats and one is not a whole number.
    """
    t = _int_column(values, name)
    if len(t) and t[0] < 0:  # t is checked sorted below, so t[0] is its least entry
        raise PreconditionError(f"{name} must be non-negative")
    if np.any(t[1:] < t[:-1]):
        raise PreconditionError(f"{name} must be nondecreasing")
    return t


@dataclass(frozen=True, eq=False)
class PacketTrace:
    """Column-oriented packet sequence.

    PreconditionError unless t_ns >= 0 and nondecreasing (_time_column
    checks it first), size_bytes >= 1 and every label is 0 or 1; a float column
    must hold whole numbers.  A column may be a read-only view, such as a
    broadcast of one value; nothing in the package writes into a trace
    column.
    """

    t_ns: np.ndarray
    size_bytes: np.ndarray
    label: np.ndarray

    def __post_init__(self):
        t = _time_column(self.t_ns, "t_ns")
        size = _int_column(self.size_bytes, "size_bytes")
        label = np.asarray(self.label)  # checked before the uint8 cast could wrap it
        if not (len(t) == len(size) == len(label)):
            raise ConfigError("trace columns must have equal length")
        if len(t):
            if _stored(size).min() < 1:
                raise PreconditionError("size_bytes must be >= 1")
            stored = _stored(label)
            if not (BACKGROUND <= stored.min() and stored.max() <= ATTACK):  # NaN fails too
                raise PreconditionError(f"labels must be {BACKGROUND} or {ATTACK}")
        object.__setattr__(self, "t_ns", t)
        object.__setattr__(self, "size_bytes", size)
        object.__setattr__(self, "label", _int_column(label, "label", np.uint8))

    def __len__(self):
        return len(self.t_ns)

    @cached_property
    def _one_size(self) -> bool:
        """Whether every packet of the (non-empty) trace has one size; no column is ever written."""
        sizes = _stored(self.size_bytes)
        return bool(sizes.min() == sizes.max())

    def __eq__(self, other):
        if not isinstance(other, PacketTrace):
            return NotImplemented
        return (
            np.array_equal(self.t_ns, other.t_ns)
            and np.array_equal(self.size_bytes, other.size_bytes)
            and np.array_equal(self.label, other.label)
        )

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
        sizes = {f"size_mix[{i}] size": s for i, (s, _) in enumerate(self.size_mix)}
        require_int64(**vars(self), **sizes)
        require_finite(mean_gap_ns=self.mean_gap_ns)
        if self.mean_gap_ns <= 0:
            raise ConfigError("mean_gap_ns must be positive")
        if self.mean_gap_ns >= 2**63:  # no gap of an int64-ns trace is that long
            raise ConfigError("mean_gap_ns must be below 2**63")
        if self.duration_ns < 0:
            raise ConfigError("duration_ns must be non-negative")
        if self.duration_ns / self.mean_gap_ns >= 2**63:  # more packets than a trace can index
            raise ConfigError("duration_ns / mean_gap_ns must be below 2**63")
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
    """Strictly periodic packet train, optional truncated Gaussian jitter drawn from seed.

    The jitter is clamped to +-max(period_ns // 2 - 1, 0), so periods 1-3 draw none.
    """

    period_ns: int
    duration_ns: int
    size_bytes: int = 1500
    start_offset_ns: int = 0
    jitter_stddev_ns: float = 0.0
    seed: int = 0

    def __post_init__(self):
        require_int64(**vars(self))
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
    return np.broadcast_to(np.int64(cfg.size_bytes), (n,))


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
        gaps = rng.standard_exponential(n)
        gaps *= cfg.mean_gap_ns  # the doubles and generator state of rng.exponential(mean_gap_ns, n)
        chunks.append(gaps)
        acc += float(gaps.sum())
    t = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
    np.cumsum(t, out=t)  # gaps are >= 0, so t is nondecreasing and each cut is a prefix
    t = t[: np.searchsorted(t, cfg.duration_ns)]  # past duration_ns, t may not fit int64
    t_ns = np.rint(t, out=t).view(np.int64)
    np.copyto(t_ns, t, casting="unsafe")  # cast in place: element i is read before it is written
    t_ns = t_ns[: np.searchsorted(t_ns, cfg.duration_ns)]  # rounding may touch the boundary
    sizes = _draw_sizes(rng, len(t_ns), cfg)
    return PacketTrace(t_ns, sizes, np.broadcast_to(np.uint8(BACKGROUND), t_ns.shape))


def gen_periodic(cfg: AttackConfig) -> PacketTrace:
    """Generate the periodic attack trace on [0, duration_ns)."""
    if cfg.duration_ns <= cfg.start_offset_ns:
        return PacketTrace.empty()
    n = -(-(cfg.duration_ns - cfg.start_offset_ns) // cfg.period_ns)  # ceil
    t_ns = cfg.start_offset_ns + cfg.period_ns * np.arange(n, dtype=np.int64)
    if cfg.jitter_stddev_ns > 0:
        rng = np.random.default_rng(cfg.seed)
        jitter = np.rint(rng.normal(0.0, cfg.jitter_stddev_ns, n)).astype(np.int64)
        bound = max(cfg.period_ns // 2 - 1, 0)  # consecutive packets stay strictly apart
        np.clip(jitter, -bound, bound, out=jitter)
        t_ns = np.maximum(t_ns + jitter, 0)  # then clip at t=0
    t_ns = t_ns[t_ns < cfg.duration_ns]
    sizes = np.broadcast_to(np.int64(cfg.size_bytes), t_ns.shape)
    return PacketTrace(t_ns, sizes, np.broadcast_to(np.uint8(ATTACK), t_ns.shape))


def merge(a: PacketTrace, b: PacketTrace) -> PacketTrace:
    """Merge two traces by time; on a tie a's packets go before b's."""
    pos = np.searchsorted(a.t_ns, b.t_ns, side="right")
    return PacketTrace(
        *(np.insert(getattr(a, n), pos, getattr(b, n)) for n in ("t_ns", "size_bytes", "label"))
    )


def save_trace(trace: PacketTrace, path) -> None:
    """Write the t_ns,size_bytes,label CSV; PacketTrace holds the rules load_trace checks."""
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


# Suffixes that np.loadtxt, given a file name, decompresses by
# (np.lib._datasource picks the opener); see _read_int_csv.
_COMPRESSED_SUFFIXES = (".bz2", ".gz", ".xz", ".lzma")

# The row at the end of an np.loadtxt error: a bad value's, or that of the
# first row whose width differs from the first row's (with advice that does
# not apply here).
_LOADTXT_ROW = re.compile(
    r" at row (\d+)(, column \d+\.|; use `usecols` to select a subset and avoid this error)$"
)


def _at_file_line(message: str, text: str) -> str:
    """np.loadtxt's error message with its row replaced by the line of the file.

    text is the whole file.  np.loadtxt counts only the body's non-empty
    rows: from 0 in a value error, from 1 in a width error.
    """
    match = _LOADTXT_ROW.search(message)
    if match is None:
        return message
    width_error = match[2].startswith(";")
    line = _row_line(text, int(match[1]) + (not width_error))
    return f"{message[: match.start()]} at line {line}{'' if width_error else match[2]}"


def _row_line(text: str, row: int) -> int:
    """The LF-counted line of file text's row (from 0, the header's), split as np.loadtxt does."""
    start = [m.start() for m in re.finditer(r"[^\r\n]+", text)][row]  # a row ends at CR or LF
    return text.count("\n", 0, start) + 1


def _read_int_csv(path, header: str) -> np.ndarray:
    """Integer rows of a CSV file whose first line must equal header.

    Shape (rows, columns of the header).  A file that is not UTF-8, a wrong
    header, a non-integer value or a row of the wrong width raises
    PreconditionError; so does a `#`, which marks no comment.  Empty lines,
    CRLF endings and a body of only whitespace are accepted.

    The header is checked through a plain open.  The body is then parsed
    by np.loadtxt from the file name, which its tokenizer reads in blocks
    (from an open handle it reads one line at a time).  A name ending in a
    compression suffix, or shaped like a URL, would be decompressed or
    fetched by that path, so such a file is parsed from the open handle.
    The file must be seekable: a pipe could not be read a second time, and
    is refused with io.UnsupportedOperation.
    """
    width = header.count(",") + 1
    name = os.fspath(path)
    by_name = (
        isinstance(name, str) and not name.endswith(_COMPRESSED_SUFFIXES) and "://" not in name
    )
    try:
        # newline="" keeps each CR, so an error's line counts LFs only
        with open(name, "r", encoding="utf-8", newline="") as f:
            head = f.readline()
            got = head.strip()
            if got != header:
                raise PreconditionError(f"{path}: unexpected header {got!r}, want {header!r}")
            # raises io.UnsupportedOperation on a pipe: a second open would
            # miss the lines f has buffered
            body_start = f.tell()
            try:
                with warnings.catch_warnings():
                    warnings.filterwarnings(
                        "ignore", "loadtxt: input contained no data", UserWarning
                    )
                    data = np.loadtxt(
                        name if by_name else f,
                        dtype=np.int64,
                        delimiter=",",
                        comments=None,  # any comment marker turns the block read off
                        skiprows=1 if by_name else 0,
                        encoding="utf-8",
                        ndmin=2,
                    )
            except ValueError as exc:
                f.seek(body_start)
                body = f.read()
                if body.strip():
                    message = _at_file_line(str(exc), head + body)
                    raise PreconditionError(f"{path}: {message}") from None
                data = np.empty((0, width), np.int64)  # a body of only whitespace
            if len(data) and data.shape[1] != width:  # every row has the same wrong width
                f.seek(body_start)
                found = f"found {data.shape[1]} at line {_row_line(head + f.read(), 1)}"
                raise PreconditionError(f"{path}: rows must have {width} columns, {found}")
    except UnicodeDecodeError as exc:
        raise PreconditionError(f"{path}: not UTF-8 text: {exc.reason}") from None
    if len(data) == 0:  # np.loadtxt gives shape (0, 1) when no row was read
        return np.empty((0, width), np.int64)
    return data


def load_trace(path) -> PacketTrace:
    """Read a trace CSV; rows must be sorted by t_ns >= 0, with sizes >= 1 and labels 0 or 1."""
    data = _read_int_csv(path, _TRACE_HEADER)
    try:
        return PacketTrace(*data.T)
    except PreconditionError as exc:
        raise PreconditionError(f"{path}: {exc}") from None
