"""Acceptance suite: one test per required end-to-end behavior.

Each test bundles the checks and tolerances for one contract item, so the
verbose pytest report shows a single pass/fail line per item.  Expected
values come from closed forms, independent replay/convolution oracles in
oracles.py, or seeded ensemble measurements; tolerances are stated inline.
"""

import json
import math
import time

import numpy as np
from scipy import integrate

from icmeas.analytic import (
    GapDistParams,
    estimate_lambda_ratio,
    estimate_lambda_single_pairs,
    mixture_density,
    pdf_shifted_erlang,
    pdf_shifted_exp,
    pdf_trunc_exp,
)
from icmeas.cli import main
from icmeas.harness import COALESCENCE_PRESETS, preset_experiment, run_experiment, run_systems
from icmeas.meassim import (
    HicConfig,
    MeasurementSeries,
    PicConfig,
    TicConfig,
    TransferConfig,
    coalesce,
    measure,
)
from icmeas.pdmm import (
    closed_form_chi_square,
    deviation_histogram,
    pearson_chi_square,
)
from icmeas.trafficgen import PacketTrace, PoissonConfig, gen_poisson
from oracles import (
    erlang_convolution_reference,
    hic_reference,
    pic_reference,
    tic_reference,
)

US = 1000
SECOND = 1_000_000_000
# the two dual-timer systems the paired ensembles compare
HIC_PRESETS = {s: COALESCENCE_PRESETS[s] for s in ("hicv1", "hicv2")}


def _trace(t_ns, size=500):
    t = np.asarray(t_ns, dtype=np.int64)
    return PacketTrace(t, np.full(len(t), size, np.int64), np.zeros(len(t), np.int64))


def _measured(mean_gap_ns, n_packets, seed, hic):
    cfg = PoissonConfig(
        mean_gap_ns=mean_gap_ns,
        duration_ns=int(mean_gap_ns * n_packets),
        seed=seed,
        size_bytes=500,
    )
    return measure(gen_poisson(cfg), TransferConfig(), hic)


def test_gap_densities_normalize_and_match_convolution_oracle():
    """Closed-form densities: unit mass to 1e-6, low orders vs an
    independent numerical convolution to 1e-6, and the depth-50 partial-sum
    identity to 1e-4 (density errors scaled by the mean gap)."""
    start = time.monotonic()
    lam, bound = 19_000.0, 4_000.0
    p = GapDistParams(lambda_ns=lam, bound_ns=bound)

    val, _ = integrate.quad(lambda y: pdf_shifted_exp(y, p), bound, bound + 60 * lam)
    assert abs(val - 1.0) <= 1e-6
    val, _ = integrate.quad(lambda y: pdf_trunc_exp(y, p), 0.0, bound)
    assert abs(val - 1.0) <= 1e-6
    for order in (1, 2, 3, 4, 5, 20, 50):
        hi = bound + (order + 12.0 * math.sqrt(order) + 40.0) * lam
        val, _ = integrate.quad(
            lambda y: pdf_shifted_erlang(y, order, p), bound, hi, limit=300
        )
        assert abs(val - 1.0) <= 1e-6, f"order {order}"

    for order in (1, 2, 3, 4, 5):
        span = (order + 14.0 * math.sqrt(order)) * lam
        x, ref = erlang_convolution_reference(lam, order, span)
        ours = pdf_shifted_erlang(x + bound, order, p)
        assert float(np.max(np.abs(ours - ref))) * lam <= 1e-6, f"order {order}"

    y = np.linspace(bound, bound + 80 * lam, 600)
    explicit = np.zeros_like(y)
    for order in range(1, 51):
        explicit += pdf_shifted_erlang(y, order, p)
    closed = mixture_density(y, 50, p)
    assert float(np.max(np.abs(closed - explicit))) * lam <= 1e-4
    assert time.monotonic() - start < 10.0


def test_rate_estimators_recover_mean_gap_within_two_percent():
    """Both mean-gap estimators land within 2% on million-packet streams;
    the ratio estimator is exactly invariant to a constant clock offset."""
    start = time.monotonic()
    hic = HicConfig(packet_timer_ns=30 * US, absolute_timer_ns=300 * US)

    lam = 50_000.0  # sparse stream: plenty of adjacent single-packet groups
    est = estimate_lambda_single_pairs(_measured(lam, 1_000_000, 410, hic), 30 * US)
    assert abs(est.value_ns - lam) / lam <= 0.02

    lam = 12_500.0  # dense stream: gap-to-group-size ratio
    ms = _measured(lam, 1_000_000, 411, hic)
    est = estimate_lambda_ratio(ms)
    assert abs(est.value_ns - lam) / lam <= 0.02

    shifted = MeasurementSeries(ms.m_ns + 987_654_321, ms.count, dict(ms.flags))
    assert estimate_lambda_ratio(shifted).value_ns == est.value_ns
    assert time.monotonic() - start < 30.0


def test_measurement_hand_examples_conservation_and_replay():
    """Frozen hand-worked groupings hold exactly, and 1000 fuzzed traces
    match the step-by-step replay oracles for every scheme while conserving
    the packet count."""
    start = time.monotonic()
    hic = HicConfig(packet_timer_ns=30 * US, absolute_timer_ns=300 * US)

    s = coalesce(_trace([0, 10 * US, 20 * US, 60 * US]), hic)
    assert s.m_ns.tolist() == [50 * US, 90 * US] and s.count.tolist() == [3, 1]
    s = coalesce(_trace(np.arange(30) * 20 * US), hic)
    assert s.m_ns.tolist() == [300 * US, 600 * US] and s.count.tolist() == [15, 15]
    s = coalesce(_trace([0, 5 * US, 12 * US]), TicConfig(timer_ns=10 * US))
    assert s.m_ns.tolist() == [10 * US, 22 * US] and s.count.tolist() == [2, 1]
    s = coalesce(_trace(np.arange(12) * 7 * US), PicConfig(count=5))
    assert s.m_ns.tolist() == [28 * US, 63 * US, 77 * US]
    assert s.count.tolist() == [5, 5, 2]

    rng = np.random.default_rng(90210)
    for _ in range(1000):
        n = int(rng.integers(1, 200))
        if rng.random() < 0.5:
            gaps = rng.integers(0, 16, size=n)
        else:
            gaps = np.rint(rng.exponential(rng.uniform(1, 40), size=n)).astype(np.int64)
        t = np.cumsum(gaps)
        trace = _trace(t)

        pack = int(rng.integers(1, 11))
        hard = pack + int(rng.integers(1, 31))
        timer = int(rng.integers(1, 21))
        k = int(rng.integers(1, 8))
        cases = [
            (HicConfig(pack, hard), hic_reference(t, pack, hard)),
            (TicConfig(timer), tic_reference(t, timer)),
            (PicConfig(k), pic_reference(t, k)),
        ]
        for cfg, (m_ref, c_ref) in cases:
            s = coalesce(trace, cfg)
            assert s.m_ns.tolist() == m_ref
            assert s.count.tolist() == c_ref
            assert int(s.count.sum()) == len(trace)
    assert time.monotonic() - start < 10.0


def test_chi_square_closed_form_matches_direct_statistic_on_grid():
    """The single-cell-deviation statistic dev^2*total*(K + K/(K-1)) agrees
    with the directly computed statistic to 1e-9 relative across the full
    deviation/cell-count/sample-size grid."""
    for dev in (0.01, 0.02, 0.05, 0.1, 0.2):
        for k in (5, 10, 20, 50, 100):
            for total in (1e3, 1e4, 1e5, 1e6):
                hist = deviation_histogram(k, total, dev)
                chi, _ = pearson_chi_square(hist)
                closed = closed_form_chi_square(dev, k, total)
                assert abs(chi - closed) / closed <= 1e-9, (dev, k, total)


def test_histogram_detector_false_positives_detection_and_harmonics():
    """50 seeded 20-second trials per condition: background false-positive
    rate at most 5% at the 0.05 threshold, at least 95% detection with a
    sub-5s median on the 400 us injection, and at least 90% detection when
    the injection period sits below the histogram range."""
    start = time.monotonic()
    trials = 50

    bg = run_experiment(
        preset_experiment(
            "high-rate", "hicv1", trials=trials, seed_base=1000,
            attack=False, detectors=("pdmm",),
        )
    )
    assert bg.aggregate["pdmm"]["detection_rate"] <= 0.05

    atk = run_experiment(
        preset_experiment(
            "high-rate", "hicv1", trials=trials, seed_base=2000, detectors=("pdmm",)
        )
    )
    assert atk.aggregate["pdmm"]["detection_rate"] >= 0.95
    assert atk.aggregate["pdmm"]["median_ttd_ns"] < 5 * SECOND

    har = run_experiment(
        preset_experiment(
            "harmonic", "hicv1", trials=trials, seed_base=3000, detectors=("pdmm",)
        )
    )
    assert har.aggregate["pdmm"]["detection_rate"] >= 0.90
    assert time.monotonic() - start < 600.0


def test_cross_system_detection_contrast():
    """Paired 15-trial ensembles: the histogram detector's median is faster
    on the 30/300 us system while the spectral detector's median is faster
    on the 33/120 us system (timeouts rank last); at the low rate the
    histogram detector catches every trial and the spectral detector times
    out in at least 80%."""
    trials = 15
    agg = {}
    for preset, base in (("high-rate", 600), ("low-rate", 700)):
        cfg = preset_experiment(preset, "hicv1", trials=trials, seed_base=base)
        for system, res in run_systems(cfg, HIC_PRESETS).items():
            agg[preset, system] = res.aggregate

    def med(preset, system, det):
        v = agg[preset, system][det]["median_ttd_ns"]
        return math.inf if v is None else v

    assert med("high-rate", "hicv1", "pdmm") < med("high-rate", "hicv2", "pdmm")
    assert med("high-rate", "hicv2", "pad") < med("high-rate", "hicv1", "pad")
    assert med("high-rate", "hicv2", "pad") < math.inf

    for system in ("hicv1", "hicv2"):
        assert agg["low-rate", system]["pdmm"]["detection_rate"] == 1.0
        assert agg["low-rate", system]["pad"]["timeouts"] >= 0.8 * trials


def test_stream_statistics_match_documented_contrast():
    """Median gap-variance ratio between the two systems is 2 (high rate)
    and 1.16 (low rate) within 30%, and both presets measure near 11,000
    interrupts per second within 20% on both systems."""
    target_ratio = {"high-rate": 2.0, "low-rate": 1.16}
    for preset in ("high-rate", "low-rate"):
        var = {}
        cfg = preset_experiment(preset, "hicv1", trials=5, seed_base=800, detectors=())
        for system, res in run_systems(cfg, HIC_PRESETS).items():
            var[system] = float(np.median([t.stats.var_gap_us2 for t in res.trials]))
            rate = float(np.median([t.stats.rate_per_s for t in res.trials]))
            assert abs(rate - 11_000.0) / 11_000.0 <= 0.20, (preset, system)
        ratio = var["hicv1"] / var["hicv2"]
        target = target_ratio[preset]
        assert abs(ratio - target) / target <= 0.30, preset


def test_experiment_reruns_are_byte_identical(tmp_path):
    """Two end-to-end pipeline runs with the same seed write byte-identical
    JSON and CSV result files."""

    def run(base):
        argv = [
            "experiment", "--preset", "high-rate", "--window-s", "4",
            "--trials", "2", "--seed", "123", "--out", str(tmp_path / base),
        ]
        assert main(argv) == 0

    run("first")
    run("second")
    first = (tmp_path / "first.json").read_bytes()
    assert first == (tmp_path / "second.json").read_bytes()
    csv_first = (tmp_path / "first.csv").read_bytes()
    assert csv_first == (tmp_path / "second.csv").read_bytes()
    doc = json.loads(first)
    assert set(doc["systems"]) == {"hicv1", "hicv2"}
