"""Histogram detector: accumulation semantics, chi-square test, streaming.

Chi-square CDF values are cross-checked against the scipy.stats distribution
object; hand-counted histograms pin the accumulation rules.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from icmeas import pdmm
from icmeas.errors import ConfigError, InsufficientDataError
from icmeas.harness import COALESCENCE_PRESETS, build_trace, preset_traffic
from icmeas.meassim import HicConfig, MeasurementSeries, PicConfig, TransferConfig, coalesce, measure
from icmeas.pdmm import (
    _CHUNK_BLOCKS,
    DetectionReport,
    PdmmConfig,
    _count_blocks,
    _order_ranges,
    closed_form_chi_square,
    detect_stream,
    deviation_histogram,
    min_detectable_deviation,
    pearson_chi_square,
)
from icmeas.trafficgen import (
    AttackConfig,
    PacketTrace,
    PoissonConfig,
    gen_periodic,
    gen_poisson,
    merge,
)

from oracles import pdmm_counts_reference

US = 1000
MS = 1000 * US


def _cfg(**kw):
    base = dict(
        low_cutoff_ns=50 * US,
        high_cutoff_ns=500 * US,
        max_order=2,
        block_len=2,
        sub_bins=45,
        threshold=0.05,
        bin_width_ns=1000,
    )
    base.update(kw)
    return PdmmConfig(**base)


def _series(m_ns, counts=None):
    m = np.asarray(m_ns, np.int64)
    c = np.ones(len(m), np.int64) if counts is None else np.asarray(counts, np.int64)
    return MeasurementSeries(m, c, {})


# detector configuration calibrated on the built-in traffic presets; the
# experiment harness exposes the same values
CAL = dict(
    low_cutoff_ns=1000 * US,
    high_cutoff_ns=5000 * US,
    max_order=80,
    block_len=2000,
    sub_bins=200,
    threshold=0.05,
    bin_width_ns=1 * US,
)


class TestConfig:
    def test_valid(self):
        cfg = _cfg()
        assert _count_blocks(np.zeros(2, np.int64), 0, 2, 1, cfg).shape == (1, 45)

    @pytest.mark.parametrize(
        "kw",
        [
            {"low_cutoff_ns": -1},
            {"high_cutoff_ns": 50 * US},
            {"max_order": 0},
            {"block_len": 1},
            {"sub_bins": 1},
            {"threshold": 0.0},
            {"threshold": 1.0},
            {"bin_width_ns": 0},
            {"sub_bins": 44},  # 450 raw bins do not split into 44 cells
            {"window_blocks": 0},
        ],
    )
    def test_invalid(self, kw):
        with pytest.raises(ConfigError):
            _cfg(**kw)

    # The pairs sit one step either side of a chunk-size limit, sized on
    # blocks of 3 * sub_bins cells (slack on each side); a config allocates
    # nothing, and no accepted one here is run.
    @pytest.mark.parametrize(
        "span, sub_bins, too_large",
        [
            # keys of a chunk stay below _CHUNK_BLOCKS * 3 * span: int64 holds
            # 12 * 768614336404564650, the largest even span below (2**63 - 1) / 12
            (768614336404564650, 2, None),
            (768614336404564652, 2, "histogram span 768614336404564652 ns is too large: .*overflow int64"),
            # four blocks of span keys would fit int64, but every block has slack cells
            (3 * 2**58, 3, "histogram span 864691128455135232 ns is too large: .*overflow int64"),
            # a chunk's float64 counts take 4 * 3 * sub_bins * 8 bytes: (2**63 - 1) // 96
            (96076792050570581, 96076792050570581, None),
            (96076792050570582, 96076792050570582, "sub_bins = 96076792050570582 is too large: .*exceed the addressable size"),
        ],
    )
    def test_chunk_size_limits(self, span, sub_bins, too_large):
        kw = dict(low_cutoff_ns=0, high_cutoff_ns=span, sub_bins=sub_bins, bin_width_ns=1)
        assert _CHUNK_BLOCKS == 4  # the bounds above are worked out for 4-block chunks
        if too_large is None:
            assert PdmmConfig(**kw).sub_bins == sub_bins
        else:
            with pytest.raises(ConfigError, match=f"^{too_large}"):
                PdmmConfig(**kw)


class TestAccumulateBlock:
    def test_hand_counted_orders(self):
        # three timestamps, two orders: gaps 100 and 150 at order one, 250
        # at order two, all inside [50, 500) us, whose 45 cells are 10 us wide
        cfg = _cfg()
        m = np.array([0, 100 * US, 250 * US], np.int64)
        counts = _count_blocks(m, 0, len(m), 1, cfg)[0]
        assert counts.shape == (45,)
        assert counts.sum() == 3
        assert counts[(100 - 50) // 10] == 1
        assert counts[(150 - 50) // 10] == 1
        assert counts[(250 - 50) // 10] == 1

    def test_upper_boundary_discarded(self):
        cfg = _cfg()
        m = np.array([0, 500 * US], np.int64)
        assert _count_blocks(m, 0, len(m), 1, cfg)[0].sum() == 0

    def test_lower_boundary_counted(self):
        cfg = _cfg()
        m = np.array([0, 50 * US], np.int64)
        counts = _count_blocks(m, 0, len(m), 1, cfg)[0]
        assert counts.sum() == 1
        assert counts[0] == 1

    def test_below_lower_cutoff_discarded(self):
        cfg = _cfg()
        m = np.array([0, 49 * US], np.int64)
        assert _count_blocks(m, 0, len(m), 1, cfg)[0].sum() == 0

    def test_history_only_seeds_differences(self):
        # with two history points, only differences ending in the block are
        # counted: 3 timestamps x 2 orders minus nothing = 2*2, but one
        # order-two difference falls out of range
        cfg = _cfg(max_order=3)
        m = np.array([0, 100 * US, 200 * US, 300 * US], np.int64)
        # block entries 200 and 300: order1 {100,100}, order2 {200,200},
        # order3 {300}; all within [50,500)
        assert _count_blocks(m, 2, len(m) - 2, 1, cfg)[0].sum() == 5

    def test_order_independence_within_block(self):
        cfg = _cfg(max_order=4)
        rng = np.random.default_rng(7)
        m = np.cumsum(rng.integers(40 * US, 200 * US, 50)).astype(np.int64)
        # splitting the stream into two blocks, the second with the full
        # history, reproduces the one-shot accumulation exactly
        np.testing.assert_array_equal(
            _count_blocks(m, 0, len(m), 1, cfg)[0],
            _count_blocks(m[:20], 0, 20, 1, cfg)[0] + _count_blocks(m, 20, len(m) - 20, 1, cfg)[0],
        )


class TestPearsonChiSquare:
    def test_uniform_is_zero(self):
        chi, p = pearson_chi_square(np.full(10, 50.0))
        assert chi == 0.0
        assert p == 0.0

    def test_two_equal_cells(self):
        chi, _ = pearson_chi_square(np.array([5.0, 5.0]))
        assert chi == 0.0

    def test_hand_example_ninety(self):
        counts = np.full(10, 90.0)
        counts[0] = 190.0
        chi, p = pearson_chi_square(counts)
        assert chi == pytest.approx(90.0, abs=1e-12)
        assert p > 0.9999999
        assert p == pytest.approx(stats.chi2.cdf(90.0, 9), abs=1e-12)

    def test_cdf_matches_reference_distribution(self):
        rng = np.random.default_rng(3)
        counts = rng.integers(80, 120, 20).astype(float)
        chi, p = pearson_chi_square(counts)
        assert p == pytest.approx(stats.chi2.cdf(chi, 19), abs=1e-12)

    def test_not_ready_below_floor(self):
        with pytest.raises(InsufficientDataError):
            pearson_chi_square(np.full(10, 4.9))

    def test_not_ready_names_the_floor_and_the_count(self):
        # the floor is 5 counted differences per cell: 20 for 4 cells, met exactly by 4 x 5.0
        with pytest.raises(InsufficientDataError, match="^need at least 20 counted differences, have 16$"):
            pearson_chi_square(np.full(4, 4.0))
        assert pearson_chi_square(np.full(4, 5.0)) == (0.0, 0.0)

    @pytest.mark.parametrize("n", [0, 1])
    def test_needs_two_cells(self, n):
        with pytest.raises(ConfigError, match=f"^need at least 2 cells, have {n}$"):
            pearson_chi_square(np.full(n, 100.0))


class TestClosedForm:
    def test_printed_example(self):
        assert closed_form_chi_square(0.05, 10, 10_000) == pytest.approx(277.78, abs=0.005)

    def test_zero_deviation(self):
        assert closed_form_chi_square(0.0, 17, 12_345) == 0.0

    @pytest.mark.parametrize("sub_bins", [5, 10, 50])
    @pytest.mark.parametrize("deviation", [0.01, 0.05, 0.2])
    @pytest.mark.parametrize("total", [1e3, 1e6])
    def test_matches_constructed_histogram(self, sub_bins, deviation, total):
        h = deviation_histogram(sub_bins, total, deviation)
        chi, _ = pearson_chi_square(h)
        ref = closed_form_chi_square(deviation, sub_bins, total)
        assert abs(chi - ref) / ref < 1e-9

    def test_construction_preserves_total(self):
        for total in (5000.0, 1.0, 0.5):  # any positive total, 1 and below included
            counts = deviation_histogram(12, total, 0.03)
            assert counts.shape == (12,)
            assert counts.sum() == pytest.approx(total, rel=1e-12)

    def test_construction_validation(self):
        with pytest.raises(ConfigError):
            deviation_histogram(1, 100.0, 0.01)
        with pytest.raises(ConfigError):
            deviation_histogram(10, 100.0, 0.95)
        with pytest.raises(ConfigError):
            deviation_histogram(10, -5.0, 0.01)

    def test_construction_refuses_a_deviation_one_ulp_past_the_edge(self):
        # the raised share 0.5 + deviation rounds to 1 + 1 ulp, but the other cell is -1.1e-16
        assert deviation_histogram(2, 1.0, 0.5).tolist() == [1.0, 0.0]
        with pytest.raises(ConfigError, match="^deviation must keep all sub-bins non-negative$"):
            deviation_histogram(2, 1.0, 0.5000000000000001)

    def test_construction_near_the_edge_leaves_no_cell_negative(self):
        # 1 - 1/sub_bins and its neighbouring doubles: each is refused or builds a
        # histogram with no negative cell
        for sub_bins in range(2, 2001):
            edge = 1.0 - 1.0 / sub_bins
            for deviation in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0)):
                try:
                    counts = deviation_histogram(sub_bins, 1.0, float(deviation))
                except ConfigError:
                    continue
                assert counts.min() >= 0.0


class TestMinDetectableDeviation:
    def test_doubling_total_shrinks_by_sqrt2(self):
        s1 = min_detectable_deviation(50, 10_000, 0.05)
        s2 = min_detectable_deviation(50, 20_000, 0.05)
        assert s2 == pytest.approx(s1 / np.sqrt(2.0), rel=1e-12)

    def test_detection_above_threshold_deviation(self):
        sub_bins, total, threshold = 50, 100_000, 0.05
        s_min = min_detectable_deviation(sub_bins, total, threshold)
        for scale in (1.000001, 1.1, 2.0):
            h = deviation_histogram(sub_bins, total, s_min * scale)
            _, p = pearson_chi_square(h)
            assert p > 1.0 - threshold
        h = deviation_histogram(sub_bins, total, s_min * 0.999)
        _, p = pearson_chi_square(h)
        assert p < 1.0 - threshold

    def test_two_sub_bins(self):
        # closed form 4 * total * s**2 against chi2_0.95(1), the square of z_0.975
        chi2_95_1 = 1.959963984540054**2
        for total in (100, 10_000):
            s = min_detectable_deviation(2, total, 0.05)
            assert s == pytest.approx(np.sqrt(chi2_95_1 / (4 * total)), rel=1e-12)

    def test_validation(self):
        with pytest.raises(ConfigError):
            min_detectable_deviation(1, 100, 0.05)
        with pytest.raises(ConfigError):
            min_detectable_deviation(10, 0, 0.05)
        with pytest.raises(ConfigError):
            min_detectable_deviation(10, 100, 1.5)


class TestDetectionReport:
    def test_detected_follows_detection_time(self):
        for time_ns, detected in ((5, True), (0, True), (None, False)):
            rep = DetectionReport(time_ns, 3)
            assert rep.detected is detected
            assert rep.to_dict()["detected"] is detected
            assert rep.to_dict()["detection_time_ns"] == time_ns
            with pytest.raises(AttributeError):
                rep.detected = not detected

    def test_to_dict(self):
        rep = DetectionReport(123, 4, ((1, 2.0, 0.5), (2, 3.0, 0.99)))
        d = rep.to_dict()
        assert d["detected"] is True
        assert d["detection_time_ns"] == 123
        assert d["blocks"] == 4
        assert d["trajectory"] == [[1, 2.0, 0.5], [2, 3.0, 0.99]]


def _periodic_series(period_ns, n):
    return _series(period_ns * np.arange(1, n + 1, dtype=np.int64))


class TestDetectStream:
    def test_empty_stream(self):
        rep = detect_stream(_series([]), PdmmConfig(**CAL))
        assert not rep.detected
        assert rep.blocks_processed == 0
        assert rep.trajectory == ()

    def test_fewer_than_two_blocks(self):
        cfg = PdmmConfig(**CAL)
        rep = detect_stream(_periodic_series(400 * US, cfg.block_len * 2 - 1), cfg)
        assert not rep.detected
        assert rep.blocks_processed == 1

    def test_first_block_never_tested(self):
        cfg = PdmmConfig(**CAL)
        rep = detect_stream(_periodic_series(400 * US, cfg.block_len * 4), cfg)
        assert rep.detected
        assert rep.trajectory[0][0] == 1

    def test_periodic_detects_at_second_block(self):
        cfg = PdmmConfig(**CAL)
        n = cfg.block_len * 4
        rep = detect_stream(_periodic_series(400 * US, n), cfg)
        assert rep.detected
        assert rep.blocks_processed == 2
        assert rep.detection_time_ns == 400 * US * 2 * cfg.block_len
        assert rep.trajectory[-1][2] > 1.0 - cfg.threshold

    def test_windowed_bookkeeping_matches_block_deque(self):
        rng = np.random.default_rng(11)
        gaps = rng.integers(60 * US, 140 * US, 2400)
        m = np.cumsum(gaps).astype(np.int64)
        cfg = _cfg(block_len=200, max_order=5, window_blocks=3, sub_bins=9, threshold=1e-9)
        rep = detect_stream(_series(m), cfg)
        # replicate with an explicit deque of per-block histograms
        from collections import deque

        blocks = deque()
        ref = []
        ref_time = None
        n_blocks = len(m) // cfg.block_len
        for b in range(n_blocks):
            lo, hi = b * cfg.block_len, (b + 1) * cfg.block_len
            start = max(0, lo - cfg.max_order)
            blocks.append(_count_blocks(m[start:hi], lo - start, hi - lo, 1, cfg)[0])
            if len(blocks) > cfg.window_blocks:
                blocks.popleft()
            if b == 0:
                continue
            try:
                ref.append((b,) + pearson_chi_square(np.sum(blocks, axis=0)))
            except InsufficientDataError:
                continue
            if ref[-1][2] > 1.0 - cfg.threshold:
                ref_time = int(m[hi - 1])
                break
        # counts are integer-valued float64, so the running and the fresh
        # window sums are equal and so are the statistics
        assert list(rep.trajectory) == ref
        assert len(ref) > 3
        assert rep.detected == (ref_time is not None)
        assert rep.detection_time_ns == ref_time

    def test_background_no_detection(self):
        trace = gen_poisson(
            PoissonConfig(mean_gap_ns=19 * US, duration_ns=6 * 1000 * MS, seed=23, size_bytes=500)
        )
        ms = measure(trace, TransferConfig(), HicConfig(30 * US, 300 * US))
        rep = detect_stream(ms, PdmmConfig(**CAL))
        assert not rep.detected
        assert rep.blocks_processed > 20

    def test_attack_detected_within_seconds(self):
        bg = gen_poisson(
            PoissonConfig(mean_gap_ns=19 * US, duration_ns=8 * 1000 * MS, seed=24, size_bytes=500)
        )
        atk = gen_periodic(AttackConfig(period_ns=400 * US, duration_ns=8 * 1000 * MS))
        ms = measure(merge(bg, atk), TransferConfig(), HicConfig(30 * US, 300 * US))
        rep = detect_stream(ms, PdmmConfig(**CAL))
        assert rep.detected
        assert rep.detection_time_ns < 5 * 1000 * MS

    def test_harmonic_period_below_cutoff_detected(self):
        # period under the histogram's lower cutoff still detects through
        # its in-range integer multiples
        bg = gen_poisson(
            PoissonConfig(mean_gap_ns=19 * US, duration_ns=6 * 1000 * MS, seed=25, size_bytes=500)
        )
        atk = gen_periodic(AttackConfig(period_ns=150 * US, duration_ns=6 * 1000 * MS))
        ms = measure(merge(bg, atk), TransferConfig(), HicConfig(30 * US, 300 * US))
        rep = detect_stream(ms, PdmmConfig(**CAL))
        assert rep.detected

    def test_evidence_grows_linearly_with_blocks(self):
        # cumulative chi-square under a persistent periodic component grows
        # about linearly: doubling the observed span about doubles it
        ratios = []
        for seed in (31, 32, 33):
            bg = gen_poisson(
                PoissonConfig(
                    mean_gap_ns=19 * US, duration_ns=8 * 1000 * MS, seed=seed, size_bytes=500
                )
            )
            atk = gen_periodic(AttackConfig(period_ns=400 * US, duration_ns=8 * 1000 * MS))
            ms = measure(merge(bg, atk), TransferConfig(), HicConfig(30 * US, 300 * US))
            cfg = PdmmConfig(**CAL)
            counts = np.zeros(cfg.sub_bins)
            m = ms.m_ns
            n_blocks = len(m) // cfg.block_len
            chis = {}
            for b in range(n_blocks):
                lo, hi = b * cfg.block_len, (b + 1) * cfg.block_len
                start = max(0, lo - cfg.max_order)
                counts += _count_blocks(m[start:hi], lo - start, hi - lo, 1, cfg)[0]
                if b + 1 in (n_blocks // 2, n_blocks):
                    chis[b + 1], _ = pearson_chi_square(counts)
            ratios.append(chis[n_blocks] / chis[n_blocks // 2])
        assert 1.4 < float(np.mean(ratios)) < 2.8

    def test_determinism(self):
        bg = gen_poisson(
            PoissonConfig(mean_gap_ns=19 * US, duration_ns=4 * 1000 * MS, seed=26, size_bytes=500)
        )
        ms = measure(bg, TransferConfig(), HicConfig(30 * US, 300 * US))
        cfg = PdmmConfig(**CAL)
        assert detect_stream(ms, cfg) == detect_stream(ms, cfg)


# --- chunked counting against the pair-loop oracle ---

CHUNK = _CHUNK_BLOCKS


def _oracle_report(m, cfg):
    """detect_stream's report rebuilt from oracle counts and pearson_chi_square.

    Each tested histogram is summed afresh from the kept blocks' oracle
    counts; the counts are integers, so any summation order gives the same
    floats.
    """
    n_blocks = len(m) // cfg.block_len
    if n_blocks < 2:
        return DetectionReport(None, n_blocks)
    blocks, trajectory = [], []
    for b in range(n_blocks):
        lo, hi = b * cfg.block_len, (b + 1) * cfg.block_len
        blocks.append(
            pdmm_counts_reference(
                m, lo, hi, cfg.max_order, cfg.low_cutoff_ns, cfg.high_cutoff_ns, cfg.bin_width_ns
            )
        )
        kept = blocks if cfg.window_blocks is None else blocks[-cfg.window_blocks :]
        if b == 0:
            continue
        try:
            raw = np.sum(kept, axis=0, dtype=np.float64)
            chi, p = pearson_chi_square(raw.reshape(cfg.sub_bins, -1).sum(axis=1))
        except InsufficientDataError:
            continue
        trajectory.append((b, chi, p))
        if p > 1.0 - cfg.threshold:
            return DetectionReport(int(m[hi - 1]), b + 1, tuple(trajectory))
    return DetectionReport(None, n_blocks, tuple(trajectory))


def _fuzz_cfg(**kw):
    # 90 raw bins of 4 ns in 9 sub-bins; gaps average 30 ns, so orders
    # 2 to ~13 land in range and the histogram stays near uniform
    base = dict(
        low_cutoff_ns=40,
        high_cutoff_ns=400,
        max_order=16,
        block_len=25,
        sub_bins=9,
        threshold=1e-3,
        bin_width_ns=4,
    )
    base.update(kw)
    return PdmmConfig(**base)


def _fuzz_stream(seed, n, spread=60):
    rng = np.random.default_rng(seed)
    return 1_000 + np.cumsum(rng.integers(0, spread, n, endpoint=True))


def _assert_matches_oracle(m, cfg):
    rep = detect_stream(_series(m), cfg)
    assert rep == _oracle_report(m, cfg)
    return rep


@pytest.mark.parametrize(
    "n_blocks", [2, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK, 2 * CHUNK + 1, 3 * CHUNK - 1]
)
@pytest.mark.parametrize("tail", [0, 7])
def test_chunked_counts_match_oracle_at_any_block_count(n_blocks, tail):
    cfg = _fuzz_cfg(threshold=1e-9)
    for seed in range(3):
        m = _fuzz_stream(seed, n_blocks * cfg.block_len + tail)
        rep = _assert_matches_oracle(m, cfg)
        assert rep.blocks_processed == n_blocks


@pytest.mark.parametrize("block", [CHUNK - 1, CHUNK, 2 * CHUNK - 1, 2 * CHUNK])
def test_chunked_detection_stops_at_the_detecting_block(block):
    # near-uniform gaps up to the switch block, then a 1 ns period: every
    # difference it adds falls in the first sub-bin, so that block detects
    cfg = _fuzz_cfg(low_cutoff_ns=0, high_cutoff_ns=360, threshold=1e-6)
    n = (2 * CHUNK + 3) * cfg.block_len
    switch = block * cfg.block_len
    m = _fuzz_stream(block, n)
    m[switch:] = m[switch - 1] + np.arange(1, n - switch + 1)
    rep = _assert_matches_oracle(m, cfg)
    assert rep.detected
    assert rep.blocks_processed == block + 1
    assert rep.detection_time_ns == int(m[switch + cfg.block_len - 1])


@pytest.mark.parametrize("max_order", [26, 60, 140])
def test_chunked_history_spanning_several_blocks_matches_oracle(max_order):
    cfg = _fuzz_cfg(max_order=max_order, block_len=8, high_cutoff_ns=1120, threshold=1e-9)
    assert cfg.max_order > cfg.block_len
    for seed in range(3):
        _assert_matches_oracle(_fuzz_stream(seed, (2 * CHUNK + 2) * cfg.block_len + 3), cfg)


@pytest.mark.parametrize("window_blocks", [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3])
def test_chunked_window_matches_oracle(window_blocks):
    cfg = _fuzz_cfg(window_blocks=window_blocks, threshold=1e-9)
    for seed in range(3):
        _assert_matches_oracle(_fuzz_stream(seed, (3 * CHUNK + 1) * cfg.block_len), cfg)


def test_chunked_zero_low_cutoff_counts_repeated_stamps():
    # with low_cutoff_ns = 0 a repeated stamp is a zero difference, bin 0
    cfg = _fuzz_cfg(low_cutoff_ns=0, high_cutoff_ns=360, threshold=1e-9)
    for seed in range(3):
        m = _fuzz_stream(seed, (2 * CHUNK + 1) * cfg.block_len, spread=4)
        assert np.any(np.diff(m) == 0)
        _assert_matches_oracle(m, cfg)


@st.composite
def pdmm_cases(draw):
    """(timestamps, config) for the chunked counter.

    Timestamps come from a drawn numpy seed: non-negative and
    nondecreasing, as a MeasurementSeries requires, with repeated stamps when the
    gap spread allows zero gaps.  The config may put max_order above
    block_len, window_blocks on either side of the chunk size, and
    low_cutoff_ns at 0.
    """
    sub_bins = draw(st.integers(2, 6))
    bin_width = draw(st.integers(1, 4))
    low = draw(st.sampled_from([0, 1, 7, 40]))
    cfg = PdmmConfig(
        low_cutoff_ns=low,
        high_cutoff_ns=low + sub_bins * bin_width * draw(st.integers(1, 6)),
        max_order=draw(st.integers(1, 45)),
        block_len=draw(st.integers(2, 24)),
        sub_bins=sub_bins,
        threshold=draw(st.sampled_from([1e-9, 1e-3, 0.05, 0.5])),
        bin_width_ns=bin_width,
        window_blocks=draw(st.none() | st.integers(1, 2 * CHUNK + 2)),
    )
    n = draw(st.integers(0, (3 * CHUNK + 2) * cfg.block_len))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.sampled_from([0, 2**40])) + np.cumsum(
        rng.integers(0, draw(st.integers(0, 100)), n, endpoint=True)
    )
    return m, cfg


@settings(max_examples=200, deadline=None)
@given(pdmm_cases())
def test_chunked_report_equals_oracle_report(case):
    m, cfg = case
    _assert_matches_oracle(m, cfg)


# --- ties: a MeasurementSeries allows them, as coalesce makes them ---


def test_tied_series_from_coalesce_is_counted_like_the_oracle():
    # count-based coalescing with count 1 stamps each arrival: tied arrivals
    # give tied stamps, which low_cutoff_ns = 0 counts as zero differences
    cfg = _fuzz_cfg(low_cutoff_ns=0, high_cutoff_ns=360, threshold=1e-9)
    for seed in range(3):
        t = _fuzz_stream(seed, (2 * CHUNK + 1) * cfg.block_len, spread=4)
        trace = PacketTrace(t, np.full(len(t), 64), np.zeros(len(t), np.uint8))
        ms = coalesce(trace, PicConfig(count=1))
        assert ms.m_ns.tolist() == t.tolist() and np.any(np.diff(ms.m_ns) == 0)
        assert detect_stream(ms, cfg) == _oracle_report(ms.m_ns, cfg)


# --- order ranges: skipped, masked and unmasked rows against the pair-loop oracle ---


def _assert_blocks_match_oracle(m, first, n_blocks, cfg):
    """_count_blocks over n_blocks blocks after m[:first] equals the oracle block by block.

    The oracle counts raw bins of bin_width_ns; they are summed into the
    sub_bins cells that _count_blocks returns.
    """
    counts = _count_blocks(m, first, cfg.block_len, n_blocks, cfg)
    assert counts.shape == (n_blocks, cfg.sub_bins)
    for k in range(n_blocks):
        lo = first + k * cfg.block_len
        want = pdmm_counts_reference(
            m, lo, lo + cfg.block_len, cfg.max_order,
            cfg.low_cutoff_ns, cfg.high_cutoff_ns, cfg.bin_width_ns,
        )
        np.testing.assert_array_equal(counts[k], np.reshape(want, (cfg.sub_bins, -1)).sum(axis=1))


def _assert_chunks_match_oracle(m, cfg):
    """Every chunk detect_stream would count, against the oracle block by block.

    Walks the whole series whatever the test would decide, so no early stop
    hides a later chunk.
    """
    n_blocks = len(m) // cfg.block_len
    for b in range(0, n_blocks, CHUNK):
        lo = b * cfg.block_len
        hist_start = max(0, lo - cfg.max_order)
        chunk_blocks = min(CHUNK, n_blocks - b)
        _assert_blocks_match_oracle(m[hist_start:], lo - hist_start, chunk_blocks, cfg)


def _row_extrema(m, first, end, order, low):
    d = m[first:end] - m[first - order : end - order] - low
    return int(d.min()), int(d.max())


# gaps of 25-35 ns in [60, 420): order 1 never reaches the range, order 2
# straddles its low edge, orders 3-11 lie wholly inside it, orders from about
# 12 to 16 straddle its high edge and orders 17-20 lie wholly above it
_RANGES_CFG = dict(low_cutoff_ns=60, high_cutoff_ns=420, max_order=20, sub_bins=9, bin_width_ns=4)


def _ranges_stream(seed, n):
    rng = np.random.default_rng(seed)
    return 1_000 + np.cumsum(rng.integers(25, 35, n, endpoint=True))


@pytest.mark.parametrize("seed", range(3))
def test_order_ranges_chunk_has_every_kind_of_row(seed):
    cfg = _fuzz_cfg(**_RANGES_CFG)
    first, end = cfg.max_order, cfg.max_order + CHUNK * cfg.block_len
    m = _ranges_stream(seed, end)
    span = cfg.high_cutoff_ns - cfg.low_cutoff_ns
    kinds = set()
    for order in range(1, cfg.max_order + 1):
        lo, hi = _row_extrema(m, first, end, order, cfg.low_cutoff_ns)
        if hi < 0 or lo >= span:
            kinds.add("below" if hi < 0 else "above")
        else:
            kinds.add("inside" if lo >= 0 and hi < span else "edge")
    assert kinds == {"below", "edge", "inside", "above"}
    _assert_blocks_match_oracle(m, first, CHUNK, cfg)


@pytest.mark.parametrize("first", [0, 2, 5])
def test_order_ranges_sentinel_rows_are_unmasked(monkeypatch, first):
    # with history shorter than max_order, orders above `first` reach back
    # before m[0]; those entries are keyed 0, a dropped slack cell, and the
    # entries the rows do have lie wholly inside the range, so no row is masked
    cfg = _fuzz_cfg(**_RANGES_CFG)
    m = _ranges_stream(first, first + CHUNK * cfg.block_len)
    end = len(m)
    span = cfg.high_cutoff_ns - cfg.low_cutoff_ns
    for order in range(first + 1, 11):
        lo, hi = _row_extrema(m, order, end, order, cfg.low_cutoff_ns)
        assert order < 3 or (lo >= 0 and hi < span)
    calls = _spy_ranges(monkeypatch)
    _assert_blocks_match_oracle(m, first, CHUNK, cfg)
    [(lo, hi, masked)] = calls
    assert lo < hi and not masked


def test_order_ranges_sentinel_rows_in_a_later_chunk():
    # max_order above a chunk's length: the second chunk's history is short too
    cfg = _fuzz_cfg(**{**_RANGES_CFG, "max_order": 40, "high_cutoff_ns": 1140}, block_len=6)
    assert cfg.max_order > CHUNK * cfg.block_len
    for seed in range(3):
        _assert_chunks_match_oracle(_ranges_stream(seed, (3 * CHUNK + 1) * cfg.block_len), cfg)


def test_order_ranges_repeated_stamps_with_zero_low_cutoff():
    # low_cutoff_ns = 0: a zero difference is in range, so order 1 on up is unmasked
    cfg = _fuzz_cfg(low_cutoff_ns=0, high_cutoff_ns=360, max_order=12, bin_width_ns=4)
    for seed in range(3):
        m = _fuzz_stream(seed, cfg.max_order + CHUNK * cfg.block_len, spread=3)
        assert np.any(np.diff(m) == 0)
        assert _row_extrema(m, cfg.max_order, len(m), 1, 0)[0] == 0
        _assert_blocks_match_oracle(m, cfg.max_order, CHUNK, cfg)
        _assert_chunks_match_oracle(m, cfg)


# --- cells at the int64 edges of the keys, against the pair-loop oracle ---


def _offset_2_62(seed, n):
    return 2**62 + _fuzz_stream(seed, n)


def _ending_at_int64_max(seed, n):
    # the last stamp is 2**63 - 1, so m + low_cutoff_ns wraps
    m = _fuzz_stream(seed, n)
    return 2**63 - 1 - (m[-1] - m)


def _from_zero_to_int64_max(seed, n):
    # the first stamp is 0 and the last 2**63 - 1, the ends the input rule
    # allows: the orders reaching back across the jump hold differences of
    # nearly 2**63 - 1, which no key may wrap into range
    m = _fuzz_stream(seed, n)
    m -= m[0]
    m[n // 2 :] += 2**63 - 1 - m[-1]
    return m


@pytest.mark.parametrize("stamps", [_offset_2_62, _ending_at_int64_max, _from_zero_to_int64_max])
@pytest.mark.parametrize(
    "cell_ns, bin_width_ns",
    [(8, 1), (8, 4), (9, 1), (9, 3)],
    ids=["cell-2**3", "cell-2**3-raw-4", "cell-2**3+1", "cell-2**3+1-raw-3"],
)
def test_cells_at_int64_edges_match_oracle(stamps, cell_ns, bin_width_ns):
    cfg = _fuzz_cfg(
        low_cutoff_ns=40,
        high_cutoff_ns=40 + 45 * cell_ns,
        sub_bins=45,
        bin_width_ns=bin_width_ns,
        threshold=1e-9,
    )
    for seed in range(3):
        m = stamps(seed, (2 * CHUNK + 1) * cfg.block_len + 3)
        assert m.dtype == np.int64
        _assert_chunks_match_oracle(m, cfg)
        _assert_matches_oracle(m, cfg)


@pytest.mark.parametrize(
    "m, first, low, want",
    [
        ([0, 2**63 - 1], 0, 0, [0, 0]),  # the largest difference, far above the range
        ([2**63 - 3, 2**63 - 1], 0, 4, [0, 0]),  # m[0] + low wraps; d = 2 - 4
        # an unmasked row whose keyed and shifted stamps both wrap: d = 11 - 4
        # lands in the second cell, the tie (d = 0 - 4) in the lower slack
        ([2**63 - 12, 2**63 - 1, 2**63 - 1], 1, 4, [0, 1]),
        ([0, 0, 2**63 - 1, 2**63 - 1], 1, 0, [2, 0]),  # ties at both ends of the rule
    ],
    ids=["largest-difference", "shifted-wraps", "keyed-wraps-unmasked", "ties-at-both-ends"],
)
def test_differences_up_to_2_63_minus_1_are_counted_exactly(m, first, low, want):
    # cells of 5 ns in [low, low + 10); hand-counted, then against the oracle
    m = np.array(m, np.int64)
    cfg = PdmmConfig(
        low_cutoff_ns=low, high_cutoff_ns=low + 10, max_order=1, block_len=len(m) - first,
        sub_bins=2, bin_width_ns=5,
    )
    assert _count_blocks(m, first, cfg.block_len, 1, cfg).tolist() == [want]
    _assert_blocks_match_oracle(m, first, 1, cfg)


# --- slack cells: the edges of the keyed layout against the pair-loop oracle ---


def _spy_ranges(monkeypatch):
    """Record the one (lo, hi, masked) order range of each _count_blocks call."""
    calls = []

    def spy(*args):
        ranges = _order_ranges(*args)
        calls.append(ranges)
        return ranges

    monkeypatch.setattr(pdmm, "_order_ranges", spy)
    return calls


def _gaps_stream(gaps, start=1_000):
    return start + np.concatenate([[0], np.cumsum(gaps)]).astype(np.int64)


# span 40 ns in 4 cells of 10 ns and low = span: order 1, the only order,
# holds d = gap - span, so a zero gap is d = -span and a gap of 3 * span is
# d = 2 * span; gaps of 40-79 ns put d in range
_SLACK_CFG = dict(low_cutoff_ns=40, high_cutoff_ns=80, max_order=1, block_len=5, sub_bins=4, bin_width_ns=5)


@pytest.mark.parametrize(
    "edge_d, masked",
    [
        ((-40,), False),  # min d = -span: the first lower slack cell
        ((79,), False),  # max d = 2 * span - 1: the last upper slack cell
        ((-40, 79), False),
        ((80,), True),  # max d = 2 * span: past the layout
        ((-40, 80), True),
    ],
)
def test_slack_edges_match_oracle(monkeypatch, edge_d, masked):
    cfg = _fuzz_cfg(**_SLACK_CFG)
    for seed in range(3):
        gaps = np.random.default_rng(seed).integers(40, 80, CHUNK * cfg.block_len)
        gaps[-len(edge_d) - 1 : -1] = np.add(edge_d, cfg.low_cutoff_ns)  # in the last block
        m = _gaps_stream(gaps)
        assert set(edge_d) <= set((np.diff(m) - cfg.low_cutoff_ns).tolist())
        calls = _spy_ranges(monkeypatch)
        _assert_blocks_match_oracle(m, 1, CHUNK, cfg)
        assert calls == [(1, 2, masked)]


def test_slack_row_one_below_minus_span_is_masked(monkeypatch):
    # low = span + 1: a zero gap is d = -span - 1, one below the lower slack
    cfg = _fuzz_cfg(**{**_SLACK_CFG, "low_cutoff_ns": 41, "high_cutoff_ns": 81})
    for seed in range(3):
        gaps = np.random.default_rng(seed).integers(41, 81, CHUNK * cfg.block_len)
        gaps[1] = 0  # in the first block
        m = _gaps_stream(gaps)
        assert _row_extrema(m, 1, len(m), 1, cfg.low_cutoff_ns)[0] == -41
        calls = _spy_ranges(monkeypatch)
        _assert_blocks_match_oracle(m, 1, CHUNK, cfg)
        assert calls == [(1, 2, True)]


@pytest.mark.parametrize("seed", range(3))
def test_slack_low_cutoff_above_span_masks_rows_below_the_slack(monkeypatch, seed):
    # low 200 ns, span 100 ns: the layout keys d in [-100, 200).  Gaps of
    # 0-60 ns give a counted row whose smallest d is below -span, so the
    # whole chunk is masked; gaps of 25-60 ns up to order 6 keep every
    # counted row in the layout, slack included, so the chunk is not
    for max_order, low_gap, masked in [(16, 0, True), (6, 25, False)]:
        cfg = _fuzz_cfg(
            low_cutoff_ns=200, high_cutoff_ns=300, max_order=max_order, sub_bins=4, bin_width_ns=5
        )
        first, end = cfg.max_order, cfg.max_order + CHUNK * cfg.block_len
        m = _gaps_stream(np.random.default_rng(seed).integers(low_gap, 60, end - 1, endpoint=True))
        extrema = {o: _row_extrema(m, first, end, o, cfg.low_cutoff_ns) for o in range(1, first + 1)}
        counted = [o for o, (lo, hi) in extrema.items() if hi >= 0 and lo < 100]
        straddling = [o for o in counted if extrema[o][0] < -100 or extrema[o][1] >= 200]
        assert counted and bool(straddling) == masked
        assert any(extrema[o][0] < 0 for o in counted)  # a counted d in the lower slack
        calls = _spy_ranges(monkeypatch)
        _assert_blocks_match_oracle(m, first, CHUNK, cfg)
        assert calls == [(counted[0], counted[-1] + 1, masked)]


def test_slack_sentinel_rows_in_chunk_0(monkeypatch):
    # chunk 0 has no history: each row's entries with no earlier endpoint are
    # keyed 0, a dropped slack cell, so every chunk, chunk 0 too, keys
    # differences in both slacks unmasked
    cfg = _fuzz_cfg(**{**_SLACK_CFG, "max_order": 3})
    for seed in range(3):
        gaps = np.random.default_rng(seed).integers(14, 40, (3 * CHUNK + 1) * cfg.block_len - 1)
        m = _gaps_stream(gaps)
        assert _row_extrema(m, 3, len(m), 2, cfg.low_cutoff_ns)[0] < 0  # the lower slack
        assert _row_extrema(m, 3, len(m), 3, cfg.low_cutoff_ns)[1] >= 40  # the upper slack
        calls = _spy_ranges(monkeypatch)
        _assert_chunks_match_oracle(m, cfg)
        assert len(calls) == 4
        assert all(lo < hi and not masked for lo, hi, masked in calls)


# the largest span PdmmConfig accepts: a chunk's keys reach 12 * _SPAN - 1,
# which int64 holds; a chunk's eight gaps (one of 0, one of up to 3 * _SPAN
# and six of up to 1.5 * _SPAN) end at most at 12 * _SPAN <= 2**63 - 1
_SPAN = 768614336404564650


@pytest.mark.parametrize(
    "edge_d, masked",
    [(-_SPAN, False), (_SPAN - 1, False), (2 * _SPAN - 1, False), (2 * _SPAN, True)],
    ids=["min-minus-span", "max-span-1", "max-2span-1", "max-2span"],
)
def test_largest_span_keys_its_slack_edges_like_the_oracle(monkeypatch, edge_d, masked):
    # low = span: a zero gap is d = -span, the first lower slack cell
    cfg = PdmmConfig(
        low_cutoff_ns=_SPAN, high_cutoff_ns=2 * _SPAN, max_order=1, block_len=2, sub_bins=2,
        bin_width_ns=_SPAN // 2,
    )
    for seed in range(3):
        gaps = np.random.default_rng(seed).integers(
            _SPAN, 3 * _SPAN // 2, CHUNK * cfg.block_len, endpoint=True
        )
        gaps[0] = 0  # in the first block
        gaps[-2] = edge_d + cfg.low_cutoff_ns  # in the last block
        m = _gaps_stream(gaps, start=0)
        assert int(m[-1]) <= 2**63 - 1 and m[0] == 0 and np.all(np.diff(m) >= 0)
        lo, hi = _row_extrema(m, 1, len(m), 1, cfg.low_cutoff_ns)
        assert lo == -_SPAN and edge_d in (np.diff(m) - cfg.low_cutoff_ns).tolist()
        assert (hi >= 2 * _SPAN) == masked
        calls = _spy_ranges(monkeypatch)
        _assert_blocks_match_oracle(m, 1, CHUNK, cfg)
        assert calls == [(1, 2, masked)]


@pytest.mark.parametrize("seed", range(3))
def test_default_config_counts_sorted_high_rate_series_unmasked(monkeypatch, seed):
    # every d is at least -low_cutoff_ns = -span / 4, so no row is masked at
    # the low edge; at the preset's ~11k measurements/s a row reaches
    # d = 2 * span (a 9 ms difference) only across gaps of several ms, which
    # no chunk of these 5 s series holds (two rows of one chunk did, in six
    # seeded 20 s series)
    background, _ = preset_traffic("high-rate", 5_000 * MS, seed=seed, attack=False)
    ms = measure(build_trace(background), TransferConfig(), COALESCENCE_PRESETS["hicv1"])
    m, cfg = ms.m_ns, PdmmConfig()
    calls = _spy_ranges(monkeypatch)
    n_blocks = len(m) // cfg.block_len
    for b in range(0, n_blocks, CHUNK):
        lo = b * cfg.block_len
        start = max(0, lo - cfg.max_order)
        _count_blocks(m[start:], lo - start, cfg.block_len, min(CHUNK, n_blocks - b), cfg)
    assert len(calls) > 2
    assert all(lo < hi and not masked for lo, hi, masked in calls)


def test_default_config_clips_a_chunk_holding_a_10_ms_silence(monkeypatch):
    # a 10 ms silence in a hicv1 series: the rows reaching across it hold
    # differences past high + span = 9 ms, so that chunk, and only that
    # one, is masked, and the report still equals the oracle's
    background, _ = preset_traffic("high-rate", 1_000 * MS, seed=0, attack=False)
    m = measure(build_trace(background), TransferConfig(), COALESCENCE_PRESETS["hicv1"]).m_ns
    cfg = PdmmConfig()
    m[3_000:] += 10 * MS
    calls = _spy_ranges(monkeypatch)
    assert detect_stream(_series(m), cfg) == _oracle_report(m, cfg)
    assert [masked for _, _, masked in calls] == [True, False]
