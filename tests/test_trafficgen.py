import numpy as np
import pytest

from icmeas.errors import ConfigError, PreconditionError
from icmeas.trafficgen import (
    ATTACK,
    BACKGROUND,
    AttackConfig,
    PacketTrace,
    PoissonConfig,
    gen_periodic,
    gen_poisson,
    load_trace,
    merge,
    save_trace,
)

US = 1000
MS = 1000_000
S = 1000_000_000


def test_poisson_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        PoissonConfig(mean_gap_ns=0, duration_ns=S, seed=1)
    with pytest.raises(ConfigError):
        PoissonConfig(mean_gap_ns=-5.0, duration_ns=S, seed=1)
    with pytest.raises(ConfigError):
        PoissonConfig(mean_gap_ns=100.0, duration_ns=-1, seed=1)
    with pytest.raises(ConfigError):
        PoissonConfig(mean_gap_ns=100.0, duration_ns=S, seed=1, size_mix=((100, 0.5), (200, 0.4)))


def test_poisson_empty_duration():
    trace = gen_poisson(PoissonConfig(mean_gap_ns=100.0, duration_ns=0, seed=3))
    assert len(trace) == 0


def test_poisson_sample_mean_and_bounds():
    # 3 sigma on the sample mean at this length is well under 1%
    cfg = PoissonConfig(mean_gap_ns=12_500.0, duration_ns=2 * S, seed=42)
    trace = gen_poisson(cfg)
    assert trace.is_sorted()
    assert trace.t_ns[0] >= 0
    assert trace.t_ns[-1] < cfg.duration_ns
    gaps = np.diff(trace.t_ns)
    assert gaps.mean() == pytest.approx(12_500.0, rel=0.01)
    assert np.all(trace.label == BACKGROUND)
    assert np.all(trace.size_bytes == 1500)


def test_poisson_gap_distribution_is_memoryless():
    # exponential gaps: variance equals the squared mean
    cfg = PoissonConfig(mean_gap_ns=10_000.0, duration_ns=2 * S, seed=7)
    gaps = np.diff(gen_poisson(cfg).t_ns).astype(float)
    assert gaps.std() == pytest.approx(gaps.mean(), rel=0.02)


def test_poisson_determinism():
    cfg = PoissonConfig(mean_gap_ns=5_000.0, duration_ns=100 * MS, seed=123)
    a = gen_poisson(cfg)
    b = gen_poisson(cfg)
    assert a == b
    c = gen_poisson(PoissonConfig(mean_gap_ns=5_000.0, duration_ns=100 * MS, seed=124))
    assert not (a == c)


def test_poisson_size_mix():
    cfg = PoissonConfig(
        mean_gap_ns=2_000.0,
        duration_ns=200 * MS,
        seed=9,
        size_mix=((64, 0.25), (1500, 0.75)),
    )
    trace = gen_poisson(cfg)
    sizes, counts = np.unique(trace.size_bytes, return_counts=True)
    assert set(sizes.tolist()) == {64, 1500}
    frac = counts[sizes == 64][0] / len(trace)
    assert frac == pytest.approx(0.25, abs=0.01)


def test_periodic_exact_grid():
    cfg = AttackConfig(period_ns=400 * US, duration_ns=2 * MS)
    trace = gen_periodic(cfg)
    assert trace.t_ns.tolist() == [0, 400 * US, 800 * US, 1200 * US, 1600 * US]
    assert np.all(trace.label == ATTACK)


def test_periodic_offset_and_duration_edge():
    cfg = AttackConfig(period_ns=100, duration_ns=300, start_offset_ns=50)
    trace = gen_periodic(cfg)
    # last point 250 < 300; 350 would exceed the window
    assert trace.t_ns.tolist() == [50, 150, 250]


def test_periodic_jitter_stays_near_grid():
    cfg = AttackConfig(period_ns=400 * US, duration_ns=S, jitter_stddev_ns=1000.0, seed=5)
    trace = gen_periodic(cfg)
    base = gen_periodic(AttackConfig(period_ns=400 * US, duration_ns=S))
    assert len(trace) == len(base)
    dev = trace.t_ns - base.t_ns
    assert np.abs(dev).max() < 200 * US  # well inside half a period
    assert dev.std() == pytest.approx(1000.0, rel=0.1)
    assert trace.is_sorted()


def test_periodic_rejects_large_jitter():
    with pytest.raises(ConfigError):
        AttackConfig(period_ns=100, duration_ns=1000, jitter_stddev_ns=30.0)


def test_merge_interleaves_and_breaks_ties_background_first():
    bg = PacketTrace(np.array([0, 100, 200]), np.array([500, 500, 500]), np.array([0, 0, 0]))
    atk = PacketTrace(np.array([100, 250]), np.array([1500, 1500]), np.array([1, 1]))
    out = merge(bg, atk)
    assert out.t_ns.tolist() == [0, 100, 100, 200, 250]
    assert out.label.tolist() == [0, 0, 1, 0, 1]
    assert out.size_bytes.tolist() == [500, 500, 1500, 500, 1500]


def test_merge_rejects_unsorted():
    bad = PacketTrace(np.array([100, 0]), np.array([500, 500]), np.array([0, 0]))
    good = PacketTrace.empty()
    with pytest.raises(PreconditionError):
        merge(bad, good)


def test_trace_roundtrip(tmp_path):
    cfg = PoissonConfig(mean_gap_ns=5_000.0, duration_ns=10 * MS, seed=11)
    trace = merge(
        gen_poisson(cfg),
        gen_periodic(AttackConfig(period_ns=800 * US, duration_ns=10 * MS)),
    )
    p = tmp_path / "trace.csv"
    save_trace(trace, p)
    text = p.read_text(encoding="utf-8")
    assert text.startswith("t_ns,size_bytes,label\n")
    assert "\r" not in text
    back = load_trace(p)
    assert back == trace


def test_trace_roundtrip_empty(tmp_path):
    p = tmp_path / "empty.csv"
    save_trace(PacketTrace.empty(), p)
    back = load_trace(p)
    assert len(back) == 0


@pytest.mark.parametrize(
    "body",
    [
        "200,500,0\n100,500,0\n",  # not sorted by t_ns
        "100,500,-1\n",  # would wrap to 255 through the uint8 label column
        "100,500,2\n",
        "100,500,x\n",  # not an integer
        "100,500\n",  # too few columns
    ],
    ids=["unsorted", "label-minus-one", "label-two", "non-integer", "short-row"],
)
def test_load_trace_rejects_invalid_rows(tmp_path, body):
    p = tmp_path / "bad.csv"
    p.write_text("t_ns,size_bytes,label\n" + body, encoding="utf-8")
    with pytest.raises(PreconditionError):
        load_trace(p)


def test_load_trace_rejects_wrong_header(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("m_ns,count\n100,1\n", encoding="utf-8")
    with pytest.raises(PreconditionError):
        load_trace(p)
