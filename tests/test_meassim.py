import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from icmeas import COALESCENCE_PRESETS
from icmeas.errors import ConfigError, PreconditionError
from icmeas.harness import build_trace, preset_traffic
from icmeas.meassim import (
    _CUT_BLOCK,
    _WALK_BELOW_RUNS,
    _WALK_BLOCK,
    _WALK_CHECK_MAX,
    HicConfig,
    MeasurementSeries,
    PicConfig,
    TicConfig,
    TransferConfig,
    _packet_timer_cuts,
    apply_transfer,
    coalesce,
    load_measurements,
    measure,
    save_measurements,
)
from icmeas.trafficgen import PacketTrace, PoissonConfig, gen_poisson

from oracles import hic_reference, pic_reference, tic_reference, transfer_reference

US = 1000


def make_trace(t_ns, size=1500):
    t = np.asarray(t_ns, dtype=np.int64)
    return PacketTrace(t, np.full(len(t), size, np.int64), np.zeros(len(t), np.uint8))


# --- config validation ---


def test_config_validation():
    with pytest.raises(ConfigError):
        TicConfig(timer_ns=0)
    with pytest.raises(ConfigError):
        PicConfig(count=0)
    with pytest.raises(ConfigError):
        HicConfig(packet_timer_ns=0, absolute_timer_ns=100)
    with pytest.raises(ConfigError):
        HicConfig(packet_timer_ns=300, absolute_timer_ns=100)
    HicConfig(packet_timer_ns=300, absolute_timer_ns=100, allow_inverted_timers=True)
    with pytest.raises(ConfigError):
        TransferConfig(bit_rate_bps=0)
    with pytest.raises(ConfigError, match="too small"):
        TransferConfig(bit_rate_bps=1e-301)  # 8e9 / rate is inf
    # the kind is checked before the trace is read, so an empty trace refuses it too
    for trace in (make_trace([0, 100]), PacketTrace.empty()):
        with pytest.raises(ConfigError) as info:
            coalesce(trace, TransferConfig())
        assert str(info.value) == f"unknown coalescence config: {TransferConfig()!r}"
    # measure names the same kind error on the one-size path, the per-packet one and an empty trace
    one_size, mixed = (PacketTrace([0, 100], sizes, [0, 0]) for sizes in ([1500] * 2, [64, 1500]))
    for trace in (one_size, mixed, PacketTrace.empty()):
        with pytest.raises(ConfigError) as info:
            measure(trace, TransferConfig(), TransferConfig())
        assert str(info.value) == f"unknown coalescence config: {TransferConfig()!r}"
    with pytest.raises(ConfigError, match="^measurement columns must have equal length$"):
        MeasurementSeries([10, 20], [1])


# --- transfer stage ---


def test_transfer_delay_values():
    trace = make_trace([100_000], size=1500)
    out = apply_transfer(trace, TransferConfig(bit_rate_bps=1e9))
    assert out.t_ns.tolist() == [112_000]

    out = apply_transfer(make_trace([0], size=64), TransferConfig(bit_rate_bps=1e9))
    assert out.t_ns.tolist() == [512]

    # at 16 Gbps a byte takes 0.5 ns: odd sizes land on .5 and round half to even
    delays = [
        apply_transfer(make_trace([0], size=s), TransferConfig(bit_rate_bps=16e9)).t_ns[0]
        for s in (1, 3, 5, 7, 9)
    ]
    assert delays == [0, 2, 2, 4, 4]


def test_transfer_reorder_is_stable():
    # big packet then a small one right behind: the small one lands first
    t = np.array([0, 100], np.int64)
    sizes = np.array([1500, 64], np.int64)
    labels = np.array([0, 1], np.uint8)
    out = apply_transfer(PacketTrace(t, sizes, labels), TransferConfig(bit_rate_bps=1e9))
    assert out.t_ns.tolist() == [612, 12_000]
    assert out.size_bytes.tolist() == [64, 1500]
    assert out.label.tolist() == [1, 0]
    assert np.all(out.t_ns[1:] >= out.t_ns[:-1])


@pytest.mark.parametrize("rate_bps", [1e9, 0.3e9, 2.5e9, 16e9, 100e9])
@pytest.mark.parametrize("ties", [False, True])
def test_transfer_matches_one_rint_formula(rate_bps, ties):
    rng = np.random.default_rng(int(rate_bps) % 1000 + ties)
    n = 5_000
    gaps = rng.integers(0, 4, n) if ties else rng.integers(1, 20_000, n)
    sizes = rng.choice([1, 3, 5, 40, 64, 576, 1500, 9001], n)
    trace = PacketTrace(np.cumsum(gaps), sizes, rng.integers(0, 2, n).astype(np.uint8))
    out = apply_transfer(trace, TransferConfig(bit_rate_bps=rate_bps))
    assert out.t_ns.dtype == np.int64
    assert out == transfer_reference(trace, rate_bps)


@pytest.mark.parametrize("rate_bps", [1e9, 0.3e9, 2.5e9, 16e9, 100e9])
@pytest.mark.parametrize("size", [1, 3, 1500, 9001])
@pytest.mark.parametrize("n", [1, 1_000])
def test_transfer_of_one_size_matches_per_packet_formula(rate_bps, size, n):
    # at 16 Gbps odd sizes land on .5 ns, so the one shift must round as each packet's delay does
    rng = np.random.default_rng(n + size)
    t = np.cumsum(rng.integers(0, 3, n))  # ties included
    trace = PacketTrace(t, np.full(n, size), rng.integers(0, 2, n).astype(np.uint8))
    out = apply_transfer(trace, TransferConfig(bit_rate_bps=rate_bps))
    assert out.t_ns.dtype == np.int64
    assert out == transfer_reference(trace, rate_bps)


def test_transfer_of_size_mix_resorts_as_per_packet_formula():
    # at 100 Mbps a 64 B packet overtakes a 1500 B one sent up to 114 us before it
    cfg = PoissonConfig(
        mean_gap_ns=3_000.0, duration_ns=50_000 * US, seed=4, size_mix=((64, 0.5), (1500, 0.5))
    )
    trace = gen_poisson(cfg)
    out = apply_transfer(trace, TransferConfig(bit_rate_bps=100e6))
    assert np.any(np.diff(trace.t_ns + 80 * trace.size_bytes) < 0)  # the sort path is taken
    assert out == transfer_reference(trace, 100e6)


@pytest.mark.parametrize("sizes", [[1500, 1500], [64, 1500]], ids=["one-size", "two-sizes"])
def test_transfer_int64_boundary_is_the_same_on_both_paths(sizes):
    last = 2**63 - 1 - 12_000  # plus the 1500 B delay of 12 us at 1 Gbps: exactly int64 max
    out = apply_transfer(PacketTrace([0, last], sizes, [0, 0]), TransferConfig(bit_rate_bps=1e9))
    assert out.t_ns.tolist()[-1] == 2**63 - 1
    with pytest.raises(PreconditionError) as info:
        apply_transfer(PacketTrace([0, last + 1], sizes, [0, 0]), TransferConfig(bit_rate_bps=1e9))
    assert str(info.value) == (
        f"the last t_ns plus the largest delay reaches {2**63} ns, past the int64 range"
    )


@pytest.mark.parametrize(
    "t_ns, sizes",
    [([0, 100], [9_000_000_000_000_000_000, 64]), ([2**63 - 12_000, 2**63 - 11_999], [1500, 64])],
    ids=["delay", "time-plus-delay"],
)
def test_transfer_past_int64_is_rejected(t_ns, sizes):
    # the largest delay is not the last packet's, so checking the last packet alone misses it
    trace = PacketTrace(np.array(t_ns), np.array(sizes), np.zeros(2, np.uint8))
    with pytest.raises(PreconditionError, match="int64"):
        apply_transfer(trace, TransferConfig(bit_rate_bps=1e9))


def test_transfer_up_to_int64_max_is_kept():
    out = apply_transfer(make_trace([0, 2**63 - 1 - 12_000]), TransferConfig(bit_rate_bps=1e9))
    assert out.t_ns.tolist() == [12_000, 2**63 - 1]


@pytest.mark.parametrize(
    "cfg",
    [TicConfig(timer_ns=300 * US), HicConfig(packet_timer_ns=30 * US, absolute_timer_ns=300 * US)],
    ids=["tic", "hic"],
)
def test_timer_past_int64_is_rejected(cfg):
    last = 2**63 - 300 * US  # the absolute timer of the last group would reach 2**63
    with pytest.raises(PreconditionError, match="int64"):
        coalesce(make_trace([0, last]), cfg)
    ms = coalesce(make_trace([0, last - 1]), cfg)
    assert ms.m_ns.tolist()[-1] == (2**63 - 1 if isinstance(cfg, TicConfig) else last - 1 + 30 * US)


def test_transfer_empty():
    out = apply_transfer(PacketTrace.empty(), TransferConfig())
    assert len(out) == 0


# --- frozen hand-worked groupings ---


def test_hic_burst_then_straggler():
    trace = make_trace([0, 10 * US, 20 * US, 60 * US])
    series = coalesce(trace, HicConfig(packet_timer_ns=30 * US, absolute_timer_ns=300 * US))
    assert series.m_ns.tolist() == [50 * US, 90 * US]
    assert series.count.tolist() == [3, 1]
    assert series.flags == {"hic_abs_fired": 0, "hic_pack_fired": 2}


def test_hic_steady_stream_hits_hard_timer():
    # gaps of 20us never let the 30us packet timer expire; the 300us
    # absolute timer fires first, and the arrival landing exactly on the
    # expiry instant opens the next group
    trace = make_trace(np.arange(30) * 20 * US)
    series = coalesce(trace, HicConfig(packet_timer_ns=30 * US, absolute_timer_ns=300 * US))
    assert series.m_ns.tolist() == [300 * US, 600 * US]
    assert series.count.tolist() == [15, 15]
    assert series.flags["hic_abs_fired"] == 2


def test_pic_trailing_partial_group():
    trace = make_trace(np.arange(12) * 7 * US)
    series = coalesce(trace, PicConfig(count=5))
    assert series.count.tolist() == [5, 5, 2]
    assert series.m_ns.tolist() == [4 * 7 * US, 9 * 7 * US, 11 * 7 * US]
    assert series.flags.get("pic_flushed") is True


def test_pic_exact_multiple_has_no_flush():
    trace = make_trace(np.arange(10) * 3 * US)
    series = coalesce(trace, PicConfig(count=5))
    assert series.count.tolist() == [5, 5]
    assert "pic_flushed" not in series.flags


def test_tic_fixed_window():
    trace = make_trace([0, 5 * US, 12 * US])
    series = coalesce(trace, TicConfig(timer_ns=10 * US))
    assert series.m_ns.tolist() == [10 * US, 22 * US]
    assert series.count.tolist() == [2, 1]


def test_tic_arrival_on_expiry_starts_next_group():
    trace = make_trace([0, 10 * US])
    series = coalesce(trace, TicConfig(timer_ns=10 * US))
    assert series.m_ns.tolist() == [10 * US, 20 * US]
    assert series.count.tolist() == [1, 1]


def test_hic_tie_between_timers_counts_as_abs():
    # 0 + 100 == 70 + 30: both timers expire at the same instant
    cfg = HicConfig(packet_timer_ns=30, absolute_timer_ns=100)
    series = coalesce(make_trace([0, 25, 50, 70]), cfg)
    assert series.m_ns.tolist() == [100]
    assert series.count.tolist() == [4]
    assert series.flags == {"hic_abs_fired": 1, "hic_pack_fired": 0}


def test_hic_single_packet_uses_packet_timer():
    series = coalesce(make_trace([500]), HicConfig(packet_timer_ns=30, absolute_timer_ns=300))
    assert series.m_ns.tolist() == [530]
    assert series.count.tolist() == [1]
    assert series.flags == {"hic_abs_fired": 0, "hic_pack_fired": 1}


def test_coalesce_empty_and_unsorted():
    assert len(coalesce(PacketTrace.empty(), TicConfig(timer_ns=10))) == 0
    # an unsorted trace cannot be built, so it never reaches coalesce
    with pytest.raises(PreconditionError):
        bad = PacketTrace(
            np.array([100, 0], np.int64), np.full(2, 64, np.int64), np.zeros(2, np.uint8)
        )
        coalesce(bad, TicConfig(timer_ns=10))


def test_measure_pipeline_applies_delay_before_grouping():
    # identical sizes: the transfer stage shifts every arrival by 512ns
    trace = make_trace([0, 5 * US, 12 * US], size=64)
    series = measure(trace, TransferConfig(bit_rate_bps=1e9), TicConfig(timer_ns=10 * US))
    assert series.m_ns.tolist() == [512 + 10 * US, 512 + 12 * US + 10 * US]
    assert series.count.tolist() == [2, 1]


# --- measure: a one-size trace is coalesced unshifted ---


@st.composite
def measure_traces(draw):
    """Sorted traces of 0-300 packets, of one size or of mixed sizes.

    Gaps of 0-3 ns tie arrivals; gaps up to 20 us let a 64 B packet
    overtake a 1500 B one at 100 Mbps, so the mixed path re-sorts.
    """
    n = draw(st.integers(0, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gaps = rng.integers(0, draw(st.sampled_from([3, 20_000])), n, endpoint=True)
    t = draw(st.integers(0, 10**6)) + np.cumsum(gaps)
    if draw(st.booleans()):
        sizes = np.full(n, draw(st.sampled_from([1, 3, 64, 1500])))
    else:
        sizes = rng.choice([64, 576, 1500], n)
    return PacketTrace(t, sizes, rng.integers(0, 2, n).astype(np.uint8))


_MEASURE_CONFIGS = {
    "tic": st.builds(TicConfig, st.integers(1, 50 * US)),
    "pic": st.builds(PicConfig, st.integers(1, 12)),
    "hic": st.builds(HicConfig, st.integers(1, 20 * US), st.integers(1, 60 * US), st.just(True)),
}


@pytest.mark.parametrize("rate_bps", [1e9, 100e6])
@pytest.mark.parametrize("kind", sorted(_MEASURE_CONFIGS))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_measure_equals_transfer_then_coalesce(rate_bps, kind, data):
    trace = data.draw(measure_traces())
    cfg = data.draw(_MEASURE_CONFIGS[kind])
    transfer = TransferConfig(bit_rate_bps=rate_bps)
    t_before = trace.t_ns.copy()
    got = measure(trace, transfer, cfg)
    want = coalesce(apply_transfer(trace, transfer), cfg)
    assert got.m_ns.dtype == got.count.dtype == np.int64
    assert got.m_ns.tolist() == want.m_ns.tolist()
    assert got.count.tolist() == want.count.tolist()
    assert got.flags == want.flags  # MeasurementSeries.__eq__ leaves flags out
    assert np.array_equal(trace.t_ns, t_before)  # m is shifted in place, the trace is not


def _one_size_case_trace(kind):
    """A 3,000-packet trace for the one-size fact.

    At 1 Gbps 64, 576 and 1500 B take 512, 4,608 and 12,000 ns, so gaps of
    their differences tie mixed sizes after the delays and shorter ones
    reorder them.
    """
    rng = np.random.default_rng(7)
    t = np.cumsum(rng.choice([0, 4_096, 7_392, 11_488, 20 * US], 3_000))
    sizes = {
        "broadcast": np.broadcast_to(np.int64(500), t.shape),
        "contiguous": np.full(len(t), 500),
        "mixed": rng.choice([64, 576, 1500], len(t)),
    }
    if kind == "one-packet":
        return PacketTrace(t[:1], [1500], [1])
    return PacketTrace(t, sizes[kind], rng.integers(0, 2, len(t)).astype(np.uint8))


@pytest.mark.parametrize("kind", ["broadcast", "contiguous", "mixed", "one-packet"])
def test_one_size_fact_is_kept_across_measure_calls(kind):
    trace = _one_size_case_trace(kind)
    assert "_one_size" not in vars(trace)  # computed on the first ask, not at construction
    one_size = kind != "mixed"
    assert trace._one_size is one_size
    transfer = TransferConfig()
    for cfg in (TicConfig(125 * US), PicConfig(10), *COALESCENCE_PRESETS.values()):
        want = coalesce(apply_transfer(trace, transfer), cfg)
        for _ in range(2):
            got = measure(trace, transfer, cfg)
            assert got == want and got.flags == want.flags
    assert vars(trace)["_one_size"] is one_size


def test_mixed_trace_is_stable_sorted_after_its_delays():
    trace = _one_size_case_trace("mixed")
    assert trace._one_size is False  # cached before the delays
    delayed = apply_transfer(trace, TransferConfig())
    assert delayed == transfer_reference(trace, 1e9)
    shifted = trace.t_ns + np.rint(trace.size_bytes * 8.0).astype(np.int64)
    assert np.any(np.diff(shifted) < 0)  # the delays reorder packets, so the sort is needed
    assert np.any(np.diff(delayed.t_ns) == 0)  # and ties leave their order to the stable sort


def _error_text(fn):
    with pytest.raises(PreconditionError) as info:
        fn()
    return str(info.value)


@pytest.mark.parametrize("sizes", [[1500, 1500], [64, 1500]], ids=["one-size", "two-sizes"])
def test_measure_int64_boundary_is_the_same_on_both_paths(sizes):
    # 1 Gbps: the last packet's 1500 B take 12 us, the largest delay
    transfer = TransferConfig(bit_rate_bps=1e9)

    def both(last, cfg):
        trace = PacketTrace([0, last], sizes, [0, 0])
        return (
            lambda: measure(trace, transfer, cfg),
            lambda: coalesce(apply_transfer(trace, transfer), cfg),
        )

    timer = 300 * US
    tic, hic = TicConfig(timer), HicConfig(30 * US, timer)
    # the delay check comes first, also where a timer would pass int64
    last = 2**63 - 1 - 12_000
    got, want = both(last, PicConfig(1))
    assert got() == want() and got().m_ns.tolist()[-1] == 2**63 - 1
    for cfg in (PicConfig(1), tic, hic):
        got, want = both(last + 1, cfg)
        assert _error_text(got) == _error_text(want) == (
            f"the last t_ns plus the largest delay reaches {2**63} ns, past the int64 range"
        )
    # then the timers' check, on the last arrival plus its delay plus a timer
    last = 2**63 - 1 - 12_000 - timer
    for cfg in (tic, hic):
        got, want = both(last, cfg)
        assert got() == want() and got().flags == want().flags
        assert got().m_ns.tolist()[-1] == (2**63 - 1 if cfg is tic else last + 12_000 + 30 * US)
        got, want = both(last + 1, cfg)
        assert _error_text(got) == _error_text(want) == (
            f"the last arrival plus a timer reaches {2**63} ns, past the int64 range"
        )


@pytest.mark.parametrize("sizes", [[10**18, 10**18], [64, 10**18]], ids=["one-size", "two-sizes"])
def test_delay_past_the_double_range_is_refused_as_past_int64(sizes):
    # at 1e-290 bps a byte takes 8e299 ns: 10**18 bytes overflow the double product to inf
    trace = PacketTrace(np.array([0, 5]), np.array(sizes), np.zeros(2, np.uint8))
    transfer = TransferConfig(bit_rate_bps=1e-290)
    want = "the last t_ns plus the largest delay reaches inf ns, past the int64 range"
    assert _error_text(lambda: apply_transfer(trace, transfer)) == want
    for cfg in (PicConfig(1), TicConfig(5 * US), COALESCENCE_PRESETS["hicv1"]):
        assert _error_text(lambda: measure(trace, transfer, cfg)) == want


def test_measure_never_sees_a_size_below_1():
    # a size below 1 would shift packets back in time; a trace cannot hold one
    with pytest.raises(PreconditionError, match="^size_bytes must be >= 1$"):
        measure(PacketTrace([0, 5], [-1500, -1500], [0, 0]), TransferConfig(), PicConfig(1))


def test_measure_of_a_one_size_trace_allocates_under_an_int64_per_packet():
    # a shifted copy of the trace, or one n-long diff of it, takes 8 B per packet alone
    n = 400_000
    trace = make_trace(10 * US * np.arange(n), size=500)
    tracemalloc.start()
    try:
        measure(trace, TransferConfig(), COALESCENCE_PRESETS["hicv1"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n


def test_measure_of_a_mixed_size_trace_allocates_under_20_bytes_per_packet():
    # a delayed trace (t_ns, size_bytes and label permuted by an argsort) peaked at 34
    # bytes per packet; the delayed times sorted in their delay buffer peak at 11-16
    trace = build_trace(*preset_traffic("high-rate", 4 * 10**9, seed=0))
    assert not trace._one_size
    for cfg in (TicConfig(125 * US), PicConfig(10), *COALESCENCE_PRESETS.values()):
        tracemalloc.start()
        try:
            measure(trace, TransferConfig(), cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * len(trace), cfg


# --- cross-checks against the independent references ---


def _abs_fired_by_oracle(t, m, c, absolute_ns):
    """Groups whose interrupt sits exactly at first arrival + absolute timer."""
    first = np.cumsum(c) - np.asarray(c)
    return int(np.count_nonzero(np.asarray(m) == t[first] + absolute_ns))


def _fuzz_trace(rng):
    n = int(rng.integers(1, 250))
    # small integer gaps force exact boundary hits and duplicate stamps
    if rng.random() < 0.5:
        gaps = rng.integers(0, 16, size=n)
    else:
        gaps = np.rint(rng.exponential(rng.uniform(1, 40), size=n)).astype(np.int64)
    t = np.cumsum(gaps)
    return make_trace(t, size=64)


def test_fuzzed_traces_match_references_and_conserve_packets():
    rng = np.random.default_rng(2024)
    for _ in range(300):
        trace = _fuzz_trace(rng)
        pack = int(rng.integers(1, 11))
        hard = pack + int(rng.integers(1, 31))
        for cfg, ref in [
            (HicConfig(pack, hard), lambda t: hic_reference(t, pack, hard)),
            (TicConfig(int(rng.integers(1, 21))), None),
            (PicConfig(int(rng.integers(1, 8))), None),
        ]:
            series = coalesce(trace, cfg)
            if isinstance(cfg, TicConfig):
                m, c = tic_reference(trace.t_ns, cfg.timer_ns)
            elif isinstance(cfg, PicConfig):
                m, c = pic_reference(trace.t_ns, cfg.count)
            else:
                m, c = ref(trace.t_ns)
            assert series.m_ns.tolist() == m
            assert series.count.tolist() == c
            assert series.total_packets() == len(trace)
            assert series.count.min() >= 1
            if not isinstance(cfg, PicConfig):
                assert np.all(np.diff(series.m_ns) > 0)
            if isinstance(cfg, HicConfig):
                abs_fired = _abs_fired_by_oracle(trace.t_ns, m, c, hard)
                assert series.flags == {
                    "hic_abs_fired": abs_fired,
                    "hic_pack_fired": len(m) - abs_fired,
                }


def test_mixed_regime_trace_matches_references():
    # a high-rate Poisson block splits into thousands of short runs (the
    # vectorized frontier); after a gap, a 10 us constant-spacing block is one
    # run of hundreds of groups that is left to the per-run walk
    rng = np.random.default_rng(11)
    poisson = np.cumsum(rng.exponential(19 * US, size=10_000)).astype(np.int64)
    dense = poisson[-1] + 5_000 * US + 10 * US * np.arange(10_000, dtype=np.int64)
    trace = make_trace(np.concatenate([poisson, dense]), size=64)
    t = trace.t_ns
    for pack, hard in [(30 * US, 300 * US), (33 * US, 120 * US)]:
        assert 1 + np.count_nonzero(np.diff(poisson) >= pack) >= _WALK_BELOW_RUNS
        series = coalesce(trace, HicConfig(pack, hard))
        m, c = hic_reference(t, pack, hard)
        assert series.m_ns.tolist() == m
        assert series.count.tolist() == c
        abs_fired = _abs_fired_by_oracle(t, m, c, hard)
        assert series.flags == {"hic_abs_fired": abs_fired, "hic_pack_fired": len(m) - abs_fired}
    series = coalesce(trace, TicConfig(125 * US))
    m, c = tic_reference(t, 125 * US)
    assert series.m_ns.tolist() == m
    assert series.count.tolist() == c


def test_frontier_closes_runs_at_the_absolute_expiry():
    # runs of 1-3 groups on a 20 us lattice whose last arrival lands 1 ns
    # before, exactly on, or 1 ns after the last group's absolute expiry: on
    # or after, it opens a group of its own; before, the run closes unsearched
    pack, hard = 30 * US, 100 * US
    rng = np.random.default_rng(5)
    runs, start, n_groups = [], 0, 0
    for k in range(6 * _WALK_BELOW_RUNS):
        groups, d = 1 + k // 3 % 3, k % 3 - 1
        n_groups += groups + (d >= 0)
        lattice = start + 20 * US * np.arange(5 * groups, dtype=np.int64)
        runs.append(np.append(lattice, lattice[-5] + hard + d))
        start = int(runs[-1][-1]) + pack + int(rng.integers(0, 50 * US))
    t = np.concatenate(runs)
    assert 1 + np.count_nonzero(np.diff(t) >= pack) >= 2 * _WALK_BELOW_RUNS
    series = coalesce(make_trace(t), HicConfig(pack, hard))
    m, c = hic_reference(t, pack, hard)
    assert series.m_ns.tolist() == m
    assert series.count.tolist() == c
    assert len(c) == n_groups
    abs_fired = _abs_fired_by_oracle(t, m, c, hard)
    assert series.flags == {"hic_abs_fired": abs_fired, "hic_pack_fired": len(m) - abs_fired}


@pytest.mark.parametrize("pack, hard", [(10, 40), (10, 45), (10, 10), (7, 5)])
@pytest.mark.parametrize("n_runs", [_WALK_BELOW_RUNS - 1, 6 * _WALK_BELOW_RUNS])
def test_runs_too_short_to_reach_the_absolute_expiry(pack, hard, n_runs):
    # a run of k arrivals with (k - 1) * pack <= hard is one group whatever
    # its gaps, and is left out before the frontier; runs one and two
    # arrivals longer, at the widest gaps (pack - 1), reach their expiry
    short = hard // pack + 1  # the longest such run
    rng = np.random.default_rng(pack * hard + n_runs)
    runs, start = [], 0
    for r in range(n_runs):
        k = short + r % 3
        widest = r % 2 == 0
        gaps = np.full(k - 1, pack - 1) if widest else rng.integers(0, pack, k - 1)
        runs.append(start + np.concatenate(([0], np.cumsum(gaps))))
        start = int(runs[-1][-1]) + pack + int(rng.integers(0, 3 * pack))
    t = np.concatenate(runs).astype(np.int64)
    lengths = [len(run) for run in runs]
    assert (short - 1) * pack <= hard < short * pack
    assert ((short - 1) * pack == hard) == (hard % pack == 0)  # runs exactly at the bound
    assert max(lengths) == short + 2
    assert 1 + np.count_nonzero(np.diff(t) >= pack) == n_runs
    series = coalesce(make_trace(t), HicConfig(pack, hard, allow_inverted_timers=True))
    m, c = hic_reference(t, pack, hard)
    assert series.m_ns.tolist() == m
    assert series.count.tolist() == c
    assert len(c) > n_runs  # some run longer than `short` splits
    abs_fired = _abs_fired_by_oracle(t, m, c, hard)
    assert series.flags == {"hic_abs_fired": abs_fired, "hic_pack_fired": len(m) - abs_fired}


# --- the packet timer's cuts, a block of gaps at a time ---


@pytest.mark.parametrize("n", [_CUT_BLOCK, _CUT_BLOCK + 1, 2 * _CUT_BLOCK + 1])
def test_packet_timer_cuts_at_block_edges(n):
    gaps = np.ones(n - 1, np.int64)
    for i in (_CUT_BLOCK - 1, _CUT_BLOCK, _CUT_BLOCK + 1, n - 2):
        if i < n - 1:
            gaps[i] = 9  # gap i ends at arrival i + 1
    t = np.concatenate(([0], np.cumsum(gaps)))
    for pack in (1, 9, 10):  # every gap, exactly the long ones, none
        want = np.flatnonzero(np.diff(t) >= pack) + 1
        assert _packet_timer_cuts(t, pack).tolist() == want.tolist()


# --- the coalescing tail: counts, interrupts and flags from the group starts ---


def _assert_tail_matches_references(t, cfg):
    """coalesce and measure of t under cfg against the references; m_ns is never t_ns's memory."""
    trace = make_trace(t)
    t = trace.t_ns
    series = coalesce(trace, cfg)
    if isinstance(cfg, TicConfig):
        m, c = tic_reference(t, cfg.timer_ns)
    elif isinstance(cfg, PicConfig):
        m, c = pic_reference(t, cfg.count)
    else:
        m, c = hic_reference(t, cfg.packet_timer_ns, cfg.absolute_timer_ns)
        abs_fired = _abs_fired_by_oracle(t, m, c, cfg.absolute_timer_ns)
        assert series.flags == {"hic_abs_fired": abs_fired, "hic_pack_fired": len(m) - abs_fired}
    assert series.m_ns.tolist() == m
    assert series.count.tolist() == c
    assert not np.shares_memory(series.m_ns, t)
    # the one-size path shifts m in place, so a view of t_ns would move the trace
    before = t.copy()
    shifted = measure(trace, TransferConfig(), cfg)
    assert not np.shares_memory(shifted.m_ns, t)
    np.testing.assert_array_equal(t, before)
    assert shifted.m_ns.tolist() == (np.asarray(m) + 12 * US).tolist()  # 1500 B at 1 Gb/s
    return series


_TIC = TicConfig(100)
_HIC = HicConfig(packet_timer_ns=30, absolute_timer_ns=100)


@pytest.mark.parametrize("cfg", [_TIC, PicConfig(1), PicConfig(3), _HIC], ids=repr)
@pytest.mark.parametrize("t", [[0], [500]])
def test_tail_of_one_packet(t, cfg):
    series = _assert_tail_matches_references(t, cfg)
    assert series.count.tolist() == [1]


@pytest.mark.parametrize("n", [2, 3, _WALK_BLOCK + 1])
@pytest.mark.parametrize("spacing", [100, 137])
@pytest.mark.parametrize("cfg", [_TIC, PicConfig(1), _HIC], ids=repr)
def test_tail_every_packet_its_own_group(cfg, spacing, n):
    # gaps at or past the TIC timer and the packet timer: each arrival opens a group
    series = _assert_tail_matches_references(spacing * np.arange(n), cfg)
    assert series.count.tolist() == [1] * n


@pytest.mark.parametrize("n", [2, 5, 9])
def test_tail_whole_trace_in_one_group(n):
    # 10 ns gaps: under the packet timer, and the span stays under the absolute timer
    t = 10 * np.arange(n)
    for cfg in [_TIC, _HIC, PicConfig(n)]:
        series = _assert_tail_matches_references(t, cfg)
        assert series.count.tolist() == [n]
    # the last arrival's packet timer (80 + 30) outlasts the absolute timer at 100
    hic = _assert_tail_matches_references(t, _HIC)
    assert hic.flags == {"hic_abs_fired": int(n == 9), "hic_pack_fired": int(n < 9)}


@pytest.mark.parametrize("cfg", [_TIC, _HIC], ids=repr)
def test_tail_arrival_exactly_at_the_expiry(cfg):
    # the arrival at 100 is the first group's expiry, so it opens the second group
    series = _assert_tail_matches_references(10 * np.arange(11), cfg)
    assert series.count.tolist() == [10, 1]
    if isinstance(cfg, HicConfig):
        assert series.m_ns.tolist() == [100, 130]
        assert series.flags == {"hic_abs_fired": 1, "hic_pack_fired": 1}
    else:
        assert series.m_ns.tolist() == [100, 200]


@pytest.mark.parametrize("seed", range(4))
def test_tail_hic_flags_with_tied_timers(seed):
    # gaps in 5 ns steps tie the timers (first + 100 == last + 30) in many
    # groups; a gap of 30 or 35 ns ends a run, and 10,000 arrivals run past a walk block
    rng = np.random.default_rng(seed)
    t = np.cumsum(5 * rng.integers(0, 8, 10_000))
    m, c = hic_reference(t, _HIC.packet_timer_ns, _HIC.absolute_timer_ns)
    first = np.cumsum(c) - np.asarray(c)
    last = np.cumsum(c) - 1
    assert np.count_nonzero(t[first] + 100 == t[last] + 30) > 50
    series = _assert_tail_matches_references(t, _HIC)
    assert 0 < series.flags["hic_abs_fired"] < len(series)


# --- the walk's search blocks ---
#
# One run (every gap below the packet timer) is walked a block of
# _WALK_BLOCK keys at a time; these traces put group starts, long groups and
# tied stamps on and across the block edges.

_B = _WALK_BLOCK
_EDGE_LENGTHS = [_B - 1, _B, _B + 1, 3 * _B + 7]


def _assert_walk_matches_references(t, pack, hard):
    t = np.asarray(t, np.int64)
    assert int(np.diff(t).max(initial=0)) < pack  # one run, so the walk does it all
    trace = make_trace(t)
    series = coalesce(trace, HicConfig(pack, hard, allow_inverted_timers=True))
    m, c = hic_reference(t, pack, hard)
    assert series.m_ns.tolist() == m
    assert series.count.tolist() == c
    abs_fired = _abs_fired_by_oracle(t, m, c, hard)
    assert series.flags == {"hic_abs_fired": abs_fired, "hic_pack_fired": len(m) - abs_fired}
    series = coalesce(trace, TicConfig(hard))
    m, c = tic_reference(t, hard)
    assert series.m_ns.tolist() == m
    assert series.count.tolist() == c


@pytest.mark.parametrize("n", _EDGE_LENGTHS)
@pytest.mark.parametrize("hard", [1, 3, _B - 1, _B + 1])
def test_walk_block_edges_on_unit_spacing(n, hard):
    # 1 ns spacing: a group starts every `hard` keys, so under 1 and B - 1
    # the last key of every block opens a group; B + 1 skips a whole block
    _assert_walk_matches_references(np.arange(n), hard + 1, hard)


@pytest.mark.parametrize("n", _EDGE_LENGTHS)
@pytest.mark.parametrize("pack, hard", [(4, 1), (4, 7), (4, 40), (9, 5)])
def test_walk_block_edges_on_tied_small_gaps(n, pack, hard):
    # gaps of 0-3 ns tie stamps and hit expiries exactly; (4, 1) and (9, 5)
    # are inverted timers
    rng = np.random.default_rng(n * 100 + hard)
    t = 100 + np.cumsum(rng.integers(0, 3, size=n, endpoint=True))
    _assert_walk_matches_references(t, pack, hard)


def test_walk_group_longer_than_a_block():
    # 1 ns spacing: a group holds `hard` keys, more than twice the largest check
    hard = 2 * _WALK_CHECK_MAX + 7
    t = np.arange(3 * hard + 7)
    _assert_walk_matches_references(t, 5, hard)
    _assert_walk_matches_references(t, hard + 1, hard)  # inverted


@pytest.mark.parametrize("hard", [1, 2, 5, _B - 1])
def test_walk_tied_stamps_straddle_a_block_edge(hard):
    gaps = np.ones(3 * _B + 7, np.int64)
    for edge in (_B, 2 * _B - 1, 3 * _B):
        gaps[edge - 2 : edge + 3] = 0  # six equal stamps across the edge
    t = np.cumsum(gaps)
    _assert_walk_matches_references(t, hard + 1, hard)
    _assert_walk_matches_references(t, 2, hard)


# a lattice under a timer of 13 spacings: every key lands exactly on the
# arrival 13 on, so a block of the walk starts every ceil(B / 13) * 13 keys,
# and B - 1 being a multiple of 13, each block's last key opens a group
_STRIDE = 13
_SECOND_BLOCK = -(-_B // _STRIDE) * _STRIDE


@pytest.mark.parametrize("spacing", [1, 10])
@pytest.mark.parametrize("delta", [-1, 1])
@pytest.mark.parametrize(
    "moved",
    [_SECOND_BLOCK, _SECOND_BLOCK + 1_000, _SECOND_BLOCK + _B - 1, _SECOND_BLOCK + _B + 11],
    ids=["first-key", "interior-key", "last-key", "last-key-target"],
)
def test_walk_regular_trace_with_one_key_moved(moved, delta, spacing):
    # a key 1 ns early leaves the expiry 13 keys back unreached; 1 ns late,
    # its own expiry falls 1 ns short of the arrival 13 on; on the 1 ns
    # lattice a move also reaches a neighbour's stamp, shortening a hop: 1 ns
    # late, the arrival 12 past a block's last key cuts that key's hop alone
    t = 100 + spacing * np.arange(3 * _B + 7)
    t[moved] += delta
    hard = spacing * _STRIDE
    _assert_walk_matches_references(t, 2 * spacing + 1, hard)
    _assert_walk_matches_references(t, hard + 2, hard)  # inverted


@pytest.mark.parametrize("past", [1, _STRIDE - 1, _STRIDE, _STRIDE + 1])
def test_walk_run_ends_within_a_stride_of_a_block(past):
    # the first block's last key hops to key B + 12: past the run's end until past reaches 13
    _assert_walk_matches_references(100 + 10 * np.arange(_B + past), 11, 10 * _STRIDE)


def _counting_multi_key_searches(monkeypatch):
    """The sizes of the multi-key np.searchsorted calls made from now on."""
    multi_key = []
    searchsorted = np.searchsorted

    def counting(a, v, *args, **kwargs):
        if np.ndim(v) and np.size(v) > 1:
            multi_key.append(np.size(v))
        return searchsorted(a, v, *args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", counting)
    return multi_key


@pytest.mark.parametrize("cfg", [TicConfig(125 * US), *COALESCENCE_PRESETS.values()])
def test_walk_on_constant_spacing_searches_no_block_of_keys(monkeypatch, cfg):
    # every group of a constant-spacing run holds the same number of arrivals,
    # so each block is one strided write: only single keys are searched
    multi_key = _counting_multi_key_searches(monkeypatch)
    trace = make_trace(10 * US * np.arange(200_000))
    series = coalesce(trace, cfg)
    assert series.total_packets() == len(trace)
    assert multi_key == []


@pytest.mark.parametrize("seed", range(3))
def test_walk_checks_only_the_group_starts_of_a_jittered_lattice(monkeypatch, seed):
    # the multiples of 13 stay on the 10 ns lattice and every other arrival
    # moves 1-4 ns: each start's key is the start 13 on, while the other keys
    # hop 12, 13 or 14, so a check of the starts alone passes every block
    multi_key = _counting_multi_key_searches(monkeypatch)
    t = 100 + 10 * np.arange(3 * _B + 7)
    rng = np.random.default_rng(seed)
    off = np.flatnonzero(np.arange(len(t)) % _STRIDE)
    t[off] += rng.choice([-1, 1], len(off)) * rng.integers(1, 4, len(off), endpoint=True)
    _assert_walk_matches_references(t, 21, 10 * _STRIDE)
    assert multi_key == []


@pytest.mark.parametrize("m", [320, 400, 2600])
@pytest.mark.parametrize("gap", [131, 257, 500])
def test_walk_last_start_with_under_a_stride_left_in_its_run(m, gap):
    # the last lattice stamp 13 m opens a group with one arrival after it, at
    # or past its expiry: a start with under a stride of arrivals left has no
    # arrival a stride on to check, so the run's last arrival is checked instead
    t = 100 + 10 * np.arange(_STRIDE * m + 1)
    t = np.append(t, t[-1] + gap)
    _assert_walk_matches_references(t, gap + 1, 10 * _STRIDE)  # inverted HIC, then TIC


# checks of B, 2B, ... keys reach the cap after cap - B keys (plus the
# stride's rounding at each check's end), so a lattice key near 1.5 cap lies
# inside the first check at the cap; key n - 20 lies in the last check
_CAP = _WALK_CHECK_MAX
_CAPPED_LATTICE = 2 * _CAP + _CAP - _B + 7
_IN_CAPPED_CHECK = (_CAP + _CAP // 2) // _STRIDE * _STRIDE


@pytest.mark.parametrize("spacing", [1, 10])
@pytest.mark.parametrize("delta", [-1, 1])
@pytest.mark.parametrize(
    "offset", [0, 5, _STRIDE - 1], ids=["start", "inside-a-group", "before-a-start"]
)
def test_walk_capped_check_on_a_lattice_with_keys_moved(monkeypatch, offset, delta, spacing):
    # until the first move the group starts are the multiples of 13; a capped
    # check that fails keeps its starts before the first one off the stride,
    # the check drops back to B keys, and only a check of B keys that fails
    # searches its keys one by one
    multi_key = _counting_multi_key_searches(monkeypatch)
    n = _CAPPED_LATTICE
    assert n > 2 * _CAP
    t = 100 + spacing * np.arange(n)
    for moved in (_IN_CAPPED_CHECK + offset, n - 20):
        t[moved] += delta
    hard = spacing * _STRIDE
    _assert_walk_matches_references(t, 2 * spacing + 1, hard)
    _assert_walk_matches_references(t, hard + 2, hard)  # inverted
    assert max(multi_key, default=0) <= _B
    # only the starts' hops are checked, so keys are searched one by one
    # exactly when a move breaks a start's hop of 13 (the start after a broken
    # one is then off the new stride). Moving key q by 1 ns breaks one when q
    # is a start: its own key moves (late) or it falls below the key of the
    # start 13 back (early). On the 1 ns lattice it also breaks one when q lies
    # 12 past a start and moves late onto that start's key; 1 ns early there,
    # or a move of any other key, leaves every start's hop at 13. The first
    # move lies 0, 5 or 12 past a start;
    # when it breaks nothing the starts stay the multiples of 13
    def breaks(past_a_start):
        return past_a_start == 0 or (past_a_start == _STRIDE - 1 and delta == 1 and spacing == 1)

    assert bool(multi_key) == (breaks(offset) or breaks((n - 20) % _STRIDE))


@st.composite
def piecewise_regular_cases(draw):
    """(sorted stamps, packet timer, absolute timer) of one run in 1-3 regular pieces.

    Each piece is up to 3 blocks of one spacing, which divides the absolute
    timer or is drawn freely; a rare stamp is moved by 1 ns either way.  The
    packet timer sits above every gap, so the walk groups the whole trace.
    """
    hard = draw(st.integers(2, 200))
    divisors = [d for d in range(1, hard + 1) if hard % d == 0]
    gaps = []
    for _ in range(draw(st.integers(1, 3))):
        spacing = draw(st.sampled_from(divisors) | st.integers(1, hard + 5))
        gaps.append(np.full(draw(st.integers(1, 3 * _B)), spacing, np.int64))
    t = draw(st.integers(1, 1_000)) + np.cumsum(np.concatenate(gaps))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    moved = rng.random(len(t)) < draw(st.sampled_from([0.0, 1e-4, 1e-3]))
    t[moved] += rng.choice([-1, 1], size=int(moved.sum()))
    t.sort()  # a 1 ns move on a 1 ns spacing may pass a neighbour
    pack = int(np.diff(t).max(initial=0)) + draw(st.integers(1, hard + 5))
    return t, pack, hard


@settings(max_examples=40, deadline=None)
@given(piecewise_regular_cases())
def test_walk_properties_on_piecewise_regular_traces(case):
    _assert_walk_matches_references(*case)


# --- properties over random traces ---


@st.composite
def timer_cases(draw):
    """(sorted stamps, packet timer, absolute timer).

    Small integer gaps give duplicate stamps and exact timer-boundary hits.
    A gap spread below the packet timer makes one long run; a wider spread
    makes many short runs.  The absolute timer may sit at or below the
    packet timer (inverted timers).  The gaps come from a drawn numpy seed,
    because hypothesis keeps drawn lists short and a few hundred arrivals
    are needed to keep many runs open at once.
    """
    pack = draw(st.integers(1, 12))
    absolute = draw(st.integers(1, 40))
    spread = draw(st.integers(0, 3 * pack))
    n = draw(st.integers(1, 2_000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    start = draw(st.integers(0, 1_000))
    return start + np.cumsum(rng.integers(0, spread, size=n, endpoint=True)), pack, absolute


def _runs(case):
    t, pack, _ = case
    return 1 + int(np.count_nonzero(np.diff(t) >= pack))


def test_timer_cases_reach_both_kernel_branches():
    quiet = settings(max_examples=2_000, database=None)
    find(timer_cases(), lambda case: _runs(case) >= 2 * _WALK_BELOW_RUNS, settings=quiet)
    find(timer_cases(), lambda case: _runs(case) == 1 and len(case[0]) > 100, settings=quiet)


def _assert_series_invariants(series, n, strictly_increasing=True):
    assert series.total_packets() == n
    assert int(series.count.min()) >= 1
    if strictly_increasing:
        assert np.all(np.diff(series.m_ns) > 0)


@settings(max_examples=300, deadline=None)
@given(timer_cases())
def test_hic_properties(case):
    t, pack, hard = case
    series = coalesce(make_trace(t), HicConfig(pack, hard, allow_inverted_timers=True))
    m, c = hic_reference(t, pack, hard)
    assert series.m_ns.tolist() == m
    assert series.count.tolist() == c
    _assert_series_invariants(series, len(t))
    abs_fired = _abs_fired_by_oracle(t, m, c, hard)
    assert series.flags == {"hic_abs_fired": abs_fired, "hic_pack_fired": len(m) - abs_fired}
    assert all(type(v) is int for v in series.flags.values())


@settings(max_examples=300, deadline=None)
@given(timer_cases())
def test_tic_properties(case):
    t, _, timer = case
    series = coalesce(make_trace(t), TicConfig(timer))
    m, c = tic_reference(t, timer)
    assert series.m_ns.tolist() == m
    assert series.count.tolist() == c
    _assert_series_invariants(series, len(t))
    assert series.flags == {}


@settings(max_examples=300, deadline=None)
@given(timer_cases(), st.integers(1, 12))
def test_pic_properties(case, count):
    t = case[0]
    series = coalesce(make_trace(t), PicConfig(count))
    m, c = pic_reference(t, count)
    assert series.m_ns.tolist() == m
    assert series.count.tolist() == c
    _assert_series_invariants(series, len(t), strictly_increasing=False)
    assert series.flags.get("pic_flushed", False) is (len(t) % count != 0)


def test_coalesce_determinism():
    rng = np.random.default_rng(77)
    trace = _fuzz_trace(rng)
    cfg = HicConfig(packet_timer_ns=7, absolute_timer_ns=29)
    assert coalesce(trace, cfg) == coalesce(trace, cfg)


# --- arrival-time arrays ---

_ARRAY_CASES = {
    "empty": np.empty(0, np.int64),
    "one-packet": np.array([7_000], np.int64),
    "poisson": gen_poisson(PoissonConfig(mean_gap_ns=19_000.0, duration_ns=200_000_000, seed=2)).t_ns,
    "tied-lattice": np.repeat(np.arange(0, 3_000_000, 10 * US), 2),
    "whole-floats": np.array([0.0, 5e4, 5e4, 4e5]),
}


@pytest.mark.parametrize("t", _ARRAY_CASES.values(), ids=_ARRAY_CASES.keys())
@pytest.mark.parametrize(
    "cfg",
    [
        TicConfig(timer_ns=125 * US),
        PicConfig(count=10),
        COALESCENCE_PRESETS["hicv1"],
        COALESCENCE_PRESETS["hicv2"],
        HicConfig(packet_timer_ns=9 * US, absolute_timer_ns=47 * US),
    ],
    ids=["tic", "pic", "hicv1", "hicv2", "hic"],
)
def test_coalesce_of_times_equals_coalesce_of_their_trace(t, cfg):
    kept = t.copy()
    got, want = coalesce(t, cfg), coalesce(make_trace(t), cfg)
    assert got == want and got.flags == want.flags
    assert np.array_equal(t, kept) and not np.shares_memory(got.m_ns, t)


@settings(max_examples=100, deadline=None)
@given(timer_cases())
def test_coalesce_of_times_equals_coalesce_of_their_trace_under_drawn_hic(case):
    t, pack, hard = case
    cfg = HicConfig(pack, hard, allow_inverted_timers=True)
    got, want = coalesce(t, cfg), coalesce(make_trace(t), cfg)
    assert got == want and got.flags == want.flags


@pytest.mark.parametrize(
    "t, message",
    [
        (np.array([-5, 3]), "t_ns must be non-negative"),
        (np.array([0, 200, 100]), "t_ns must be nondecreasing"),
        (np.array([0.0, 1.5]), "t_ns must hold whole numbers"),
        (np.array([0.0, np.nan]), "t_ns must hold whole numbers"),
        (np.array([0, 2**63], np.uint64), "t_ns must fit int64"),
        (np.array([0.0, 1e19]), "t_ns must fit int64"),
    ],
    ids=["negative", "decrease", "fraction", "nan", "uint64-past-int64", "float-past-int64"],
)
def test_coalesce_holds_times_to_the_trace_rule(t, message):
    with pytest.raises(PreconditionError, match=f"^{message}$"):
        PacketTrace(t, np.ones(len(t)), np.zeros(len(t)))
    for cfg in (TicConfig(timer_ns=10), PicConfig(count=1), COALESCENCE_PRESETS["hicv1"]):
        with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
            coalesce(t, cfg)
    # the kind is checked before the times are read
    with pytest.raises(ConfigError, match="^unknown coalescence config"):
        coalesce(t, TransferConfig())


# --- persistence ---


def test_measurement_roundtrip(tmp_path):
    trace = make_trace(np.arange(40) * 9 * US)
    series = coalesce(trace, HicConfig(packet_timer_ns=30 * US, absolute_timer_ns=300 * US))
    p = tmp_path / "meas.csv"
    save_measurements(series, p, config={"kind": "hic", "packet_timer_ns": 30 * US})
    text = p.read_text(encoding="utf-8")
    assert text.startswith("m_ns,count\n")
    back = load_measurements(p)
    assert back == series
    assert back.flags == {k: v for k, v in series.flags.items()}

    sidecar = (tmp_path / "meas.csv.json").read_text(encoding="utf-8")
    assert '"kind": "hic"' in sidecar


def test_measurement_roundtrip_empty(tmp_path):
    p = tmp_path / "empty.csv"
    save_measurements(MeasurementSeries(np.empty(0, np.int64), np.empty(0, np.int64)), p)
    assert len(load_measurements(p)) == 0


@pytest.mark.parametrize(
    "body",
    [
        "100,0\n",  # count below 1
        "200,1\n100,1\n",  # decreasing m
        "100,1\n100,1\n",  # repeated m
        "100,1.5\n",  # not an integer
        "-500,1\n200,1\n",  # negative m
    ],
    ids=["count-zero", "decreasing", "repeated", "non-integer", "negative-time"],
)
def test_load_measurements_rejects_invalid_rows(tmp_path, body):
    p = tmp_path / "bad.csv"
    p.write_text("m_ns,count\n" + body, encoding="utf-8")
    with pytest.raises(PreconditionError):
        load_measurements(p)


def test_load_measurements_rejects_malformed_sidecar(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("m_ns,count\n100,1\n", encoding="utf-8")
    # not JSON, not an object, flags not an object, flags null
    for sidecar in ["{not json", "[]", '{"flags": [1, 2]}', '{"flags": null}']:
        (tmp_path / "m.csv.json").write_text(sidecar, encoding="utf-8")
        with pytest.raises(PreconditionError, match=f"^{p}.json: "):
            load_measurements(p)


def test_load_measurements_raises_on_a_sidecar_it_cannot_read(tmp_path):
    # only a missing sidecar is optional: one that exists is read or reported
    p = tmp_path / "m.csv"
    p.write_text("m_ns,count\n100,1\n", encoding="utf-8")
    (tmp_path / "m.csv.json").mkdir()
    with pytest.raises(IsADirectoryError, match="m.csv.json"):
        load_measurements(p)


def test_save_measurements_refuses_what_load_refuses(tmp_path):
    # a tied series builds, but a file holds one interrupt per stamp
    p = tmp_path / "m.csv"
    tied = MeasurementSeries([10, 10, 20], [1, 2, 1])
    with pytest.raises(PreconditionError, match="^measurement timestamps must be strictly increasing$"):
        save_measurements(tied, p)
    assert not p.exists() and not (tmp_path / "m.csv.json").exists()
    p.write_text("m_ns,count\n10,1\n10,2\n20,1\n", encoding="utf-8")
    message = f"^{re.escape(str(p))}: measurement timestamps must be strictly increasing$"
    with pytest.raises(PreconditionError, match=message):
        load_measurements(p)


def test_series_equals_only_a_series():
    series = MeasurementSeries([10, 20], [1, 3])
    columns = (series.m_ns, series.count)
    assert series.__eq__(columns) is NotImplemented
    assert series != columns


@pytest.mark.parametrize(
    "m_ns, count, name",
    [([0.5, 1.7], [1.9, 1], "m_ns"), ([10, 20], [1.5, 1], "count"), ([10, np.nan], [1, 1], "m_ns")],
    ids=["fractions", "fractional-count", "nan"],
)
def test_series_refuses_floats_that_are_not_whole(m_ns, count, name):
    with pytest.raises(PreconditionError, match=f"^{name} must hold whole numbers$"):
        MeasurementSeries(m_ns, count)


@pytest.mark.parametrize(
    "m_ns, count, name",
    [
        (np.array([0.0, 1e19]), [1, 1], "m_ns"),
        ([0, 2**63], [1, 1], "m_ns"),
        ([0, 2**64], [1, 1], "m_ns"),
        ([10, 20], np.array([1, 2**63], np.uint64), "count"),
    ],
    ids=["float", "int", "object", "uint64-count"],
)
def test_series_refuses_values_past_int64(m_ns, count, name):
    with pytest.raises(PreconditionError, match=f"^{name} must fit int64$"):
        MeasurementSeries(m_ns, count)


def test_series_takes_whole_floats_as_ints():
    series = MeasurementSeries(np.array([10.0, 20.0]), [1.0, 3.0])
    assert series.m_ns.dtype == series.count.dtype == np.int64
    assert series == MeasurementSeries([10, 20], [1, 3])


def _stream(how=None):
    """75 nondecreasing stamps from 1,000 ns, or the same broken `how`."""
    m = 1_000 + np.cumsum(np.random.default_rng(0).integers(0, 60, 75, endpoint=True))
    if how == "shuffled":
        m = np.random.default_rng(0).permutation(m)
    elif how == "negative-first":
        m -= m[0] + 1
    elif how == "steps-down-at-end":
        m[-1] = m[-2] - 1
    return m


@pytest.mark.parametrize(
    "m_ns, count, message",
    [
        ([10, 20], [0, 1], "measurement counts must be >= 1"),
        ([10, 20, 20], [1, 3, -1], "measurement counts must be >= 1"),
        ([20, 10], [1, 1], "m_ns must be nondecreasing"),
        (_stream("shuffled"), np.ones(75), "m_ns must be nondecreasing"),
        (_stream("steps-down-at-end"), np.ones(75), "m_ns must be nondecreasing"),
        ([-5, 10], [1, 1], "m_ns must be non-negative"),
        (_stream("negative-first"), np.ones(75), "m_ns must be non-negative"),
        ([-5, -10], [1, 1], "m_ns must be non-negative"),  # both rules broken: t_ns's order
        ([20, 10], [1], "m_ns must be nondecreasing"),  # the time rule before the lengths
    ],
    ids=[
        "count-zero", "count-negative", "decrease", "shuffled", "steps-down-at-end",
        "negative-time", "negative-first", "negative-and-decreasing", "decrease-before-lengths",
    ],
)
def test_series_refuses_a_break_of_its_rule_at_construction(m_ns, count, message):
    with pytest.raises(PreconditionError, match=f"^{message}$"):
        MeasurementSeries(m_ns, count)


def test_series_takes_ties_and_a_zero_stamp():
    assert MeasurementSeries(_stream(), np.ones(75)).m_ns.tolist() == _stream().tolist()
    series = MeasurementSeries([0, 0, 10, 10], [1, 2, 1, 1])
    assert series.m_ns.tolist() == [0, 0, 10, 10] and series.total_packets() == 5
