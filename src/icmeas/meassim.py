"""Interrupt-coalescence measurement simulation.

A trace of packet arrivals is pushed through a transfer-delay stage and one
of three coalescing strategies.  Each asserted interrupt yields a measurement
record (m, c): the interrupt timestamp and the number of packets it services.
The interrupt handler itself is modeled as instantaneous, so m is exactly the
timer expiry (or, for count-based coalescing, the triggering arrival).
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, PreconditionError
from .trafficgen import PacketTrace, _read_int_csv, _write_int_csv

_MEAS_HEADER = "m_ns,count"


@dataclass(frozen=True, eq=False)
class MeasurementSeries:
    """Column-oriented measurement sequence with simulation flags."""

    m_ns: np.ndarray
    count: np.ndarray
    flags: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "m_ns", np.asarray(self.m_ns, dtype=np.int64))
        object.__setattr__(self, "count", np.asarray(self.count, dtype=np.int64))
        if len(self.m_ns) != len(self.count):
            raise ConfigError("measurement columns must have equal length")

    def __len__(self):
        return len(self.m_ns)

    def __eq__(self, other):
        if not isinstance(other, MeasurementSeries):
            return NotImplemented
        return np.array_equal(self.m_ns, other.m_ns) and np.array_equal(self.count, other.count)

    def total_packets(self) -> int:
        return int(self.count.sum())

    def validate(self) -> None:
        """Assert the series invariants: c >= 1 and strictly increasing m."""
        if len(self) == 0:
            return
        if int(self.count.min()) < 1:
            raise PreconditionError("measurement counts must be >= 1")
        if len(self) > 1 and int(np.diff(self.m_ns).min()) <= 0:
            raise PreconditionError("measurement timestamps must be strictly increasing")


@dataclass(frozen=True)
class TransferConfig:
    """Fixed-rate link: each packet is timestamped after its transfer delay."""

    bit_rate_bps: float = 1_000_000_000.0

    def __post_init__(self):
        if self.bit_rate_bps <= 0:
            raise ConfigError("bit_rate_bps must be positive")


@dataclass(frozen=True)
class TicConfig:
    """Fixed-timer coalescing: the timer starts at a group's first arrival."""

    timer_ns: int

    def __post_init__(self):
        if self.timer_ns <= 0:
            raise ConfigError("timer_ns must be positive")


@dataclass(frozen=True)
class PicConfig:
    """Count-based coalescing: interrupt on every count-th arrival."""

    count: int

    def __post_init__(self):
        if self.count < 1:
            raise ConfigError("count must be >= 1")


@dataclass(frozen=True)
class HicConfig:
    """Dual-timer coalescing.

    packet_timer_ns restarts on every arrival; absolute_timer_ns runs from a
    group's first arrival.  The interrupt fires at whichever expires first.
    A packet timer at or above the absolute timer defeats the scheme's
    purpose and is rejected unless explicitly allowed.
    """

    packet_timer_ns: int
    absolute_timer_ns: int
    allow_inverted_timers: bool = False

    def __post_init__(self):
        if self.packet_timer_ns <= 0 or self.absolute_timer_ns <= 0:
            raise ConfigError("timers must be positive")
        if self.packet_timer_ns >= self.absolute_timer_ns and not self.allow_inverted_timers:
            raise ConfigError(
                "packet_timer_ns must be below absolute_timer_ns "
                "(set allow_inverted_timers to override)"
            )


CoalescenceConfig = TicConfig | PicConfig | HicConfig


def apply_transfer(trace: PacketTrace, cfg: TransferConfig) -> PacketTrace:
    """Shift each arrival by its serialization delay, re-sorting if needed."""
    if not trace.is_sorted():
        raise PreconditionError("trace is not sorted by timestamp")
    if len(trace) == 0:
        return trace
    delay = np.rint(trace.size_bytes * (8e9 / cfg.bit_rate_bps)).astype(np.int64)
    t = trace.t_ns + delay
    if np.all(np.diff(t) >= 0):
        return PacketTrace(t, trace.size_bytes, trace.label)
    order = np.argsort(t, kind="stable")
    return PacketTrace(t[order], trace.size_bytes[order], trace.label[order])


# measured on 2M 10 us-spaced packets in R equal runs: the frontier beats the walk from R ~ 16
_WALK_BELOW_RUNS = 16


def _coalesce_timers(t: np.ndarray, absolute_ns: int, packet_ns: int | None = None):
    """Group arrivals under an absolute timer and an optional packet timer.

    A gap of at least packet_ns always ends a group, so the trace splits into
    independent runs.  Inside a run a group ends at the first arrival at or
    past its start plus absolute_ns (half-open: an arrival at the expiry opens
    the next group).  Runs advance together as a vectorized frontier while
    many are open; the last few are walked group by group.  Without a packet
    timer (TIC) the whole trace is one run.
    """
    n = len(t)
    if packet_ns is None:
        cut = np.empty(0, np.int64)
    else:
        cut = np.flatnonzero(np.diff(t) >= packet_ns) + 1
    cur, end = np.concatenate(([0], cut)), np.concatenate((cut, [n]))
    is_first = np.zeros(n, bool)
    while len(cur) >= _WALK_BELOW_RUNS:
        is_first[cur] = True
        nxt = np.searchsorted(t, t[cur] + absolute_ns, side="left")
        open_ = nxt < end
        cur, end = nxt[open_], end[open_]
    for s, e in zip(cur.tolist(), end.tolist()):
        run = t[s:e]
        hop = memoryview(np.searchsorted(run, run + absolute_ns, side="left"))
        i, run_len = 0, e - s
        while i < run_len:
            is_first[s + i] = True
            i = hop[i]
    first = np.flatnonzero(is_first)
    count = np.diff(first, append=n)
    m = t[first] + absolute_ns
    if packet_ns is None:
        return m, count, {}
    m_pack = t[first + count - 1] + packet_ns
    abs_fired = int(np.count_nonzero(m <= m_pack))  # a tie counts as abs
    flags = {"hic_abs_fired": abs_fired, "hic_pack_fired": len(first) - abs_fired}
    return np.minimum(m, m_pack), count, flags


def _coalesce_pic(t: np.ndarray, cfg: PicConfig):
    full, rem = divmod(len(t), cfg.count)
    m = t[cfg.count - 1 :: cfg.count].copy()
    count = np.full(full, cfg.count, np.int64)
    if not rem:
        return m, count, {}
    # trailing packets never reach the threshold: flush at the last arrival
    return np.append(m, t[-1]), np.append(count, rem), {"pic_flushed": True}


def coalesce(trace: PacketTrace, cfg: CoalescenceConfig) -> MeasurementSeries:
    """Group a sorted trace into measurements under the given strategy.

    Timers are idle until the next arrival; the last group is closed by its
    own timers (or flushed, for count-based coalescing).  Packet counts are
    conserved: sum(count) == len(trace).
    """
    if not trace.is_sorted():
        raise PreconditionError("trace is not sorted by timestamp")
    if len(trace) == 0:
        return MeasurementSeries(np.empty(0, np.int64), np.empty(0, np.int64))
    if isinstance(cfg, TicConfig):
        m, c, flags = _coalesce_timers(trace.t_ns, cfg.timer_ns)
    elif isinstance(cfg, PicConfig):
        m, c, flags = _coalesce_pic(trace.t_ns, cfg)
    elif isinstance(cfg, HicConfig):
        m, c, flags = _coalesce_timers(trace.t_ns, cfg.absolute_timer_ns, cfg.packet_timer_ns)
    else:
        raise ConfigError(f"unknown coalescence config: {cfg!r}")
    return MeasurementSeries(m, c, flags)


def measure(
    trace: PacketTrace, transfer: TransferConfig, cfg: CoalescenceConfig
) -> MeasurementSeries:
    """Full measurement pipeline: transfer delay, then coalescence."""
    return coalesce(apply_transfer(trace, transfer), cfg)


def save_measurements(series: MeasurementSeries, path, config: dict | None = None) -> None:
    """Write m/count CSV plus a JSON sidecar with config echo and flags."""
    path = str(path)
    _write_int_csv(path, _MEAS_HEADER, [series.m_ns, series.count])
    sidecar = {"config": config or {}, "flags": dict(series.flags)}
    with open(path + ".json", "w", encoding="utf-8", newline="\n") as f:
        json.dump(sidecar, f, indent=2, sort_keys=True)
        f.write("\n")


def load_measurements(path) -> MeasurementSeries:
    """Read a measurement CSV (and its sidecar flags, when present).

    The series must hold its invariants: counts >= 1, strictly increasing m.
    """
    path = str(path)
    data = _read_int_csv(path, _MEAS_HEADER)
    flags = {}
    try:
        with open(path + ".json", "r", encoding="utf-8") as f:
            flags = json.load(f).get("flags", {})
    except OSError:
        pass  # sidecar is optional on load
    except ValueError as exc:
        raise PreconditionError(f"{path}.json: {exc}") from None
    series = MeasurementSeries(data[:, 0], data[:, 1], flags)
    series.validate()
    return series
