"""Interrupt-coalescence measurement simulation.

A trace of packet arrivals is pushed through a transfer-delay stage and one
of three coalescing strategies.  Each asserted interrupt yields a measurement
record (m, c): the interrupt timestamp and the number of packets it services.
The interrupt handler itself is modeled as instantaneous, so m is exactly the
timer expiry (or, for count-based coalescing, the triggering arrival).
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, PreconditionError, require_finite
from .trafficgen import PacketTrace, _int_column, _read_int_csv, _time_column, _write_int_csv

_MEAS_HEADER = "m_ns,count"


@dataclass(frozen=True, eq=False)
class MeasurementSeries:
    """Column-oriented measurement sequence with simulation flags.

    PreconditionError unless m_ns is non-negative and nondecreasing (ties
    allowed; _time_column checks it first, as for a trace's t_ns) and every
    count is >= 1, as coalesce makes them; a float column must hold whole
    numbers.
    """

    m_ns: np.ndarray
    count: np.ndarray
    flags: dict = field(default_factory=dict)

    def __post_init__(self):
        m = _time_column(self.m_ns, "m_ns")
        count = _int_column(self.count, "count")
        if len(m) != len(count):
            raise ConfigError("measurement columns must have equal length")
        if len(m) and count.min() < 1:
            raise PreconditionError("measurement counts must be >= 1")
        object.__setattr__(self, "m_ns", m)
        object.__setattr__(self, "count", count)

    def __len__(self):
        return len(self.m_ns)

    def __eq__(self, other):
        if not isinstance(other, MeasurementSeries):
            return NotImplemented
        return np.array_equal(self.m_ns, other.m_ns) and np.array_equal(self.count, other.count)

    def total_packets(self) -> int:
        return int(self.count.sum())


@dataclass(frozen=True)
class TransferConfig:
    """Fixed-rate link: each packet is timestamped after its transfer delay."""

    bit_rate_bps: float = 1_000_000_000.0

    def __post_init__(self):
        require_finite(bit_rate_bps=self.bit_rate_bps)
        if self.bit_rate_bps <= 0:
            raise ConfigError("bit_rate_bps must be positive")
        if math.isinf(8e9 / self.bit_rate_bps):
            raise ConfigError(f"bit_rate_bps {self.bit_rate_bps!r} is too small: a byte's delay overflows")


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

_INT64_MAX = 2**63 - 1


def _require_int64(value: int | float, what: str) -> None:
    """Raise PreconditionError when the time value (ns, an int or inf) is past the int64 range."""
    if value > _INT64_MAX:
        raise PreconditionError(f"{what} reaches {value} ns, past the int64 range")


def _transfer_delay(trace: PacketTrace, cfg: TransferConfig) -> np.ndarray:
    """Each packet's serialization delay (ns, rounded half to even), int64.

    A one-size trace gets one entry: one shift moves every packet and keeps
    the order.  The trace must not be empty.
    """
    size = trace.size_bytes[:1] if trace._one_size else trace.size_bytes
    per_byte = 8e9 / cfg.bit_rate_bps
    # t_ns is sorted, so no shifted time can pass its last entry plus the largest
    # delay, rounded as each delay is; a product past the double range is inf
    largest = float(size.max()) * per_byte
    reach = int(trace.t_ns[-1]) + round(largest) if largest < math.inf else largest
    _require_int64(reach, "the last t_ns plus the largest delay")
    delay = size * per_byte
    np.rint(delay, out=delay)
    return delay.astype(np.int64)


def apply_transfer(trace: PacketTrace, cfg: TransferConfig) -> PacketTrace:
    """Shift each arrival by its serialization delay; mixed sizes are stable-sorted after."""
    if len(trace) == 0:
        return trace
    delay = _transfer_delay(trace, cfg)
    if len(delay) == 1:
        return PacketTrace(trace.t_ns + delay, trace.size_bytes, trace.label)
    delay += trace.t_ns
    order = np.argsort(delay, kind="stable")
    return PacketTrace(delay[order], trace.size_bytes[order], trace.label[order])


# open runs below which the rest are walked; on a 2-core Xeon 8-64 timed alike
# and 256 was 3-8% slower on 20 s high-rate trial traces (seeds 0 and 3, hicv1
# and hicv2), whose runs are irregular.  The walk covers a run of one spacing in
# a few stride checks, so on 2M 10 us-spaced packets in R equal runs it beat
# the frontier up to R ~ 1,000 (hicv2, R = 48: 7.2 against 57 ms)
_WALK_BELOW_RUNS = 16
# keys the walk searches at once, and its first stride check; 2,048 and 8,192
# timed within 3% of 4,096 on 2M keys at 10 us spacing and on the trial traces,
# but with one arrival inserted every 8,192 keys (each breaks a start's hop, so
# a per-key search follows) they took 25.6 and 60.1 against 36.8 ms under
# hicv2, and 2,048 was 5% slower on a 20 s Poisson trace (19 us mean gap) under
# a 125 us TIC
_WALK_BLOCK = 4096
# most keys one stride check covers, doubling from _WALK_BLOCK while checks
# pass; a check compares only its would-be starts, so on the 10 us lattice
# under a 125 us TIC, hicv1 and hicv2 65,536 took 3-7% less per call than
# 32,768, 131,072 timed alike and 16,384 took 5-12% more
_WALK_CHECK_MAX = 65_536
# gaps compared with the packet timer at once, so no diff the length of the trace is built
_CUT_BLOCK = 65_536


def _packet_timer_cuts(t: np.ndarray, packet_ns: int) -> np.ndarray:
    """Indices of the arrivals (t non-empty) that follow a gap of at least packet_ns."""
    return np.concatenate(
        [
            np.flatnonzero(np.diff(t[s : s + _CUT_BLOCK + 1]) >= packet_ns) + s + 1
            for s in range(0, len(t), _CUT_BLOCK)
        ]
    )


def _coalesce_timers(t: np.ndarray, absolute_ns: int, packet_ns: int | None = None):
    """Group arrivals under an absolute timer and an optional packet timer.

    A gap of at least packet_ns always ends a group, so the trace splits into
    independent runs.  Inside a run a group ends at the first arrival at or
    past its start plus absolute_ns (half-open: an arrival at the expiry opens
    the next group).  A run too short to span absolute_ns at gaps below
    packet_ns is one group and is left out at once.  The other runs advance
    together as a vectorized frontier while many are open; only a run whose
    last arrival reaches its group's expiry searches for its next start, the
    rest being one group.  The last few are walked a block of keys at a
    time.  A block opens at a group start, whose exact hop (the arrivals
    its group holds) is the block's stride.  Only the would-be starts i,
    i + stride, ... below the block's end are checked, since a later start
    depends on its predecessor's hop alone: each must hop the stride, which
    two strided comparisons test (the arrival a stride less one on is before
    its expiry, the one a stride on is at or past it).  A start with under a
    stride of arrivals left in its run (the run-end case) passes only if the
    run's last arrival is before its expiry.  A block that passes is written
    in one strided assignment, and the next check covers twice the keys, up
    to _WALK_CHECK_MAX.  A longer check that fails keeps the starts before
    the first one off the stride and goes on from that one, a start because
    the hop that reaches it was checked, with a check of _WALK_BLOCK keys; a
    check of _WALK_BLOCK keys that fails searches each key's next start and
    steps group by group.  Without a packet timer (TIC) the whole trace is
    one run.
    """
    n = len(t)
    cut = np.empty(0, np.int64) if packet_ns is None else _packet_timer_cuts(t, packet_ns)
    cur, end = np.concatenate(([0], cut)), np.concatenate((cut, [n]))
    is_first = np.zeros(n, bool)
    is_first[cur] = True
    if packet_ns is not None:
        # every gap inside a run is below packet_ns, so a run of k arrivals with
        # (k - 1) * packet_ns <= absolute_ns ends before its expiry.  The frontier drops
        # them too, after an expiry each: without this filter one coalesce of a 20 s
        # high-rate trace (seeds 0, 3) peaked at 11.2, not 8.1 MB (hicv1) and 9.7, not 7.5
        # MB (hicv2) in tracemalloc; hicv1 took 0.4-0.7 ms more of ~8.5 in 3 of 4 timings
        keep = np.flatnonzero(end - cur > absolute_ns // packet_ns + 1)
        cur, end = cur[keep], end[keep]
    while len(cur) >= _WALK_BELOW_RUNS:
        expiry = t[cur] + absolute_ns
        # runs are kept by index: a boolean mask this irregular gathers several times slower
        keep = np.flatnonzero(t[end - 1] >= expiry)
        cur, end = np.searchsorted(t, expiry[keep], side="left"), end[keep]
        is_first[cur] = True
    for i, e in zip(cur.tolist(), end.tolist()):
        run = t[:e]  # slices of it stop at the run's end
        check = _WALK_BLOCK
        while i < e:
            stop = min(i + check, e)
            # i's exact hop; if each would-be start i, i + stride, ... below stop hops
            # `stride` on (or past the run), those are the block's starts
            stride = int(run[i:].searchsorted(t[i] + absolute_ns))
            keys = t[i:stop:stride] + absolute_ns
            below = run[i + stride - 1 : stop + stride - 1 : stride]
            above = run[i + stride : stop + stride : stride]
            ok = below < keys[: len(below)]
            ok[: len(above)] &= keys[: len(above)] <= above
            if len(ok) < len(keys):  # the last start has under `stride` arrivals left in its run
                ok = np.append(ok, run[-1] < keys[-1])
            passed = bool(ok.all())
            if passed or check > _WALK_BLOCK:
                if not passed:  # the starts before the first one off the stride still hop by it
                    stop = i + int(ok.argmin()) * stride
                is_first[i:stop:stride] = True
                i += -((i - stop) // stride) * stride  # to the first start at or past stop
                check = min(2 * check, _WALK_CHECK_MAX) if passed else _WALK_BLOCK
                continue
            # keys are sorted, so every key's next start lies in t[i:ub], ub being the last key's
            keys = t[i:stop] + absolute_ns
            ub = i + int(run[i:].searchsorted(keys[-1]))
            hop = memoryview(np.searchsorted(t[i:ub], keys, side="left"))
            j, block_len = 0, stop - i
            while j < block_len:
                is_first[i + j] = True
                j = hop[j]
            i += j
    first = np.flatnonzero(is_first)
    del is_first
    count = np.empty(len(first), np.int64)
    np.subtract(first[1:], first[:-1], out=count[:-1])
    count[-1] = n - first[-1]
    m = np.take(t, first)  # a new array, never a view of t: measure shifts it in place
    m += absolute_ns
    if packet_ns is None:
        return m, count, {}
    m_pack = first  # each group's last arrival plus packet_ns, in first's buffer
    m_pack += count
    m_pack -= 1
    # every index is in range, so clip never clips; unlike "raise" it takes
    # into out unbuffered, reading each index before it writes that entry
    np.take(t, m_pack, out=m_pack, mode="clip")
    m_pack += packet_ns
    abs_fired = int(np.count_nonzero(m <= m_pack))  # a tie counts as abs
    flags = {"hic_abs_fired": abs_fired, "hic_pack_fired": len(m) - abs_fired}
    return np.minimum(m, m_pack, out=m), count, flags


def _coalesce_pic(t: np.ndarray, count: int):
    full, rem = divmod(len(t), count)
    m = t[count - 1 :: count].copy()
    counts = np.full(full, count, np.int64)
    if not rem:
        return m, counts, {}
    # trailing packets never reach the threshold: flush at the last arrival
    return np.append(m, t[-1]), np.append(counts, rem), {"pic_flushed": True}


def _kernel_of(cfg: CoalescenceConfig) -> tuple:
    """(kernel, its arguments after t, longest timer ns) of each kind; others raise ConfigError."""
    if isinstance(cfg, TicConfig):
        return _coalesce_timers, (cfg.timer_ns,), cfg.timer_ns
    if isinstance(cfg, PicConfig):
        return _coalesce_pic, (cfg.count,), 0  # count coalescing starts no timer
    if isinstance(cfg, HicConfig):
        timers = (cfg.absolute_timer_ns, cfg.packet_timer_ns)
        return _coalesce_timers, timers, max(timers)
    raise ConfigError(f"unknown coalescence config: {cfg!r}")


def coalesce(arrivals: PacketTrace | np.ndarray, cfg: CoalescenceConfig) -> MeasurementSeries:
    """Group arrivals into measurements under the given strategy.

    arrivals is a PacketTrace or its arrival times alone: a trial coalesces
    the merged times of its background and attack, not a merged trace.
    An array is held to t_ns's rule (whole numbers, >= 0, nondecreasing)
    by PacketTrace's own check, _time_column.  Timers are idle
    until the next arrival; the last group is closed by its own timers (or
    flushed, for count-based coalescing).  Packet counts are conserved:
    sum(count) == len(arrivals).  The kind is checked first, so an empty
    trace also refuses an unknown one.
    """
    kernel, args, reach = _kernel_of(cfg)
    t = arrivals.t_ns if isinstance(arrivals, PacketTrace) else _time_column(arrivals, "t_ns")
    if len(t) == 0:
        return MeasurementSeries(np.empty(0, np.int64), np.empty(0, np.int64))
    _require_int64(int(t[-1]) + reach, "the last arrival plus a timer")
    return MeasurementSeries(*kernel(t, *args))


def measure(
    trace: PacketTrace, transfer: TransferConfig, cfg: CoalescenceConfig
) -> MeasurementSeries:
    """Full measurement pipeline: coalesce(apply_transfer(trace, transfer), cfg).

    Coalescing commutes with one shift of every arrival: the timers group on
    arrival differences and count-based coalescing on counts.  So a one-size
    trace is coalesced as given and its m shifted after, with no shifted copy
    made; its output and errors are still those of the pipeline.
    """
    if len(trace) == 0 or not trace._one_size:
        return coalesce(apply_transfer(trace, transfer), cfg)
    delay = _transfer_delay(trace, transfer)
    reach = int(trace.t_ns[-1]) + int(delay[0]) + _kernel_of(cfg)[2]
    _require_int64(reach, "the last arrival plus a timer")
    series = coalesce(trace, cfg)
    # coalesce builds m afresh, never as a view of t_ns; a delay >= 0 keeps m
    # non-negative and nondecreasing, and the reach check keeps it in int64
    np.add(series.m_ns, delay, out=series.m_ns)
    return series


def _refuse_ties(series: MeasurementSeries) -> None:
    """Raise PreconditionError on a repeated stamp: a file holds one interrupt per stamp."""
    if np.any(series.m_ns[1:] == series.m_ns[:-1]):
        raise PreconditionError("measurement timestamps must be strictly increasing")


def save_measurements(series: MeasurementSeries, path, config: dict | None = None) -> None:
    """Write m/count CSV plus a JSON sidecar with config echo and flags.

    A series with tied stamps, which load_measurements refuses, raises
    PreconditionError before any file is opened.
    """
    _refuse_ties(series)
    path = str(path)
    _write_int_csv(path, _MEAS_HEADER, [series.m_ns, series.count])
    sidecar = {"config": config or {}, "flags": dict(series.flags)}
    with open(path + ".json", "w", encoding="utf-8", newline="\n") as f:
        json.dump(sidecar, f, indent=2, sort_keys=True)
        f.write("\n")


def load_measurements(path) -> MeasurementSeries:
    """Read a measurement CSV (and its sidecar flags, when present).

    The rows must make a MeasurementSeries with strictly increasing m.
    """
    path = str(path)
    data = _read_int_csv(path, _MEAS_HEADER)
    sidecar = {}
    try:
        with open(path + ".json", "r", encoding="utf-8") as f:
            sidecar = json.load(f)
    except FileNotFoundError:
        pass  # sidecar is optional on load
    except ValueError as exc:
        raise PreconditionError(f"{path}.json: {exc}") from None
    if not isinstance(sidecar, dict):
        raise PreconditionError(f"{path}.json: the sidecar must be a JSON object")
    flags = sidecar.get("flags", {})
    if not isinstance(flags, dict):
        raise PreconditionError(f"{path}.json: flags must be a JSON object")
    try:
        series = MeasurementSeries(data[:, 0], data[:, 1], flags)
        _refuse_ties(series)
    except PreconditionError as exc:
        raise PreconditionError(f"{path}: {exc}") from None
    return series
