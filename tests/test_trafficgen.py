import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icmeas.errors import ConfigError, PreconditionError
from icmeas.meassim import MeasurementSeries, load_measurements, save_measurements
from icmeas.trafficgen import (
    _BLOCK_ROWS,
    ATTACK,
    BACKGROUND,
    AttackConfig,
    PacketTrace,
    PoissonConfig,
    gen_periodic,
    gen_poisson,
    _write_int_csv,
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


def test_configs_reject_negative_seed():
    # numpy's generators raise a bare ValueError on these
    with pytest.raises(ConfigError, match="seed"):
        PoissonConfig(mean_gap_ns=100.0, duration_ns=S, seed=-1)
    with pytest.raises(ConfigError, match="seed"):
        AttackConfig(period_ns=100, duration_ns=1000, seed=-1)


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


@pytest.mark.parametrize(
    "n", [0, 1, 4095, 4096, 4097, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1]
)
@pytest.mark.parametrize("width", [2, 3])
def test_write_int_csv_matches_numpy_text_writer(tmp_path, n, width):
    rng = np.random.default_rng(n * 10 + width)
    cols = [rng.integers(-(2**40), 2**40, n) for _ in range(width)]
    if n:
        cols[0][-1] = 2**62 + 12345
        cols[-1][0] = -(2**62) - 678
    p = tmp_path / "out.csv"
    _write_int_csv(p, "h", cols)
    want = io.BytesIO()
    want.write(b"h\n")
    np.savetxt(want, np.column_stack(cols), fmt="%d", delimiter=",", newline="\n")
    assert p.read_bytes() == want.getvalue()


_INT64_EDGES = [0, -1, 9, -10, -(2**63), 2**63 - 1, -(2**63) + 1]


@st.composite
def int_columns(draw):
    """2 or 3 equal-length int64 columns, with lengths at and across block boundaries.

    Values come from a seeded generator, because hypothesis keeps drawn
    lists short.  A column mixes digit counts and signs, holds one digit
    count throughout (so no pad byte is needed), or stays near zero; int64
    extremes are planted at drawn rows.
    """
    lengths = [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 3 * _BLOCK_ROWS + 7]
    n = draw(st.sampled_from(lengths))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols = []
    for _ in range(draw(st.sampled_from([2, 3]))):
        kind = draw(st.sampled_from(["mixed", "one-width", "small"]))
        if kind == "mixed":
            scale = 10.0 ** rng.integers(0, 19, n)
            col = (rng.random(n) * scale).astype(np.int64) * rng.choice([-1, 1], n)
        elif kind == "one-width":
            d = draw(st.integers(1, 19))
            col = rng.integers(10 ** (d - 1), min(10**d - 1, 2**63 - 1), n, endpoint=True)
            col *= draw(st.sampled_from([-1, 1]))
        else:
            col = rng.integers(-3, 4, n)
        if n:
            edges = st.tuples(st.integers(0, n - 1), st.sampled_from(_INT64_EDGES))
            for row, value in draw(st.lists(edges, max_size=4)):
                col[row] = value
        cols.append(col)
    return cols


@settings(max_examples=60, deadline=None)
@given(int_columns())
def test_write_int_csv_matches_numpy_text_writer_on_drawn_columns(tmp_path_factory, cols):
    p = tmp_path_factory.mktemp("w") / "out.csv"
    _write_int_csv(p, "h", cols)
    want = io.BytesIO()
    want.write(b"h\n")
    np.savetxt(want, np.column_stack(cols), fmt="%d", delimiter=",", newline="\n")
    assert p.read_bytes() == want.getvalue()


def test_save_trace_literal_text(tmp_path):
    trace = PacketTrace(np.array([0, 7, 1_000_000_123]), np.array([1500, 64, 1]), np.array([0, 1, 0]))
    p = tmp_path / "trace.csv"
    save_trace(trace, p)
    assert p.read_bytes() == b"t_ns,size_bytes,label\n0,1500,0\n7,64,1\n1000000123,1,0\n"


def test_save_measurements_literal_text(tmp_path):
    series = MeasurementSeries(np.array([120_000, 9_000_000_001]), np.array([1, 17]))
    p = tmp_path / "m.csv"
    save_measurements(series, p)
    assert p.read_bytes() == b"m_ns,count\n120000,1\n9000000001,17\n"


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
        "-5,500,0\n",  # timestamps count from the start of the trace
        "100,0,0\n",  # a packet has at least one byte
        "100,-1500,0\n",
    ],
    ids=[
        "unsorted",
        "label-minus-one",
        "label-two",
        "non-integer",
        "short-row",
        "negative-time",
        "size-zero",
        "size-negative",
    ],
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


# Both file loaders share one reader; each case runs through both of them.
# A loader is (load function, header, two valid rows, their columns).
_LOADERS = {
    "trace": (
        load_trace,
        "t_ns,size_bytes,label",
        ["100,500,0", "200,40,1"],
        lambda x: np.column_stack([x.t_ns, x.size_bytes, x.label]),
    ),
    "measurements": (
        load_measurements,
        "m_ns,count",
        ["100,1", "200,3"],
        lambda x: np.column_stack([x.m_ns, x.count]),
    ),
}


def _load_text(tmp_path, kind, text):
    load, _, _, columns = _LOADERS[kind]
    p = tmp_path / f"{kind}.csv"
    p.write_bytes(text.encode("utf-8"))
    return columns(load(p))


@pytest.mark.parametrize("kind", sorted(_LOADERS))
def test_loaders_accept_crlf_like_lf(tmp_path, kind):
    _, header, rows, _ = _LOADERS[kind]
    lf = _load_text(tmp_path, kind, "\n".join([header, *rows]) + "\n")
    crlf = _load_text(tmp_path, kind, "\r\n".join([header, *rows]) + "\r\n")
    assert lf.tolist() == [[int(v) for v in row.split(",")] for row in rows]
    assert crlf.tolist() == lf.tolist()


@pytest.mark.parametrize("kind", sorted(_LOADERS))
@pytest.mark.parametrize(
    "body",
    ["", "\n", "\n\n\n", "  \n", "\t\n \n", "\r\n\r\n", "   "],
    ids=["none", "one-blank", "blanks", "spaces", "tabs-and-spaces", "crlf-blanks", "no-newline"],
)
def test_loaders_read_blank_bodies_as_empty(tmp_path, kind, body):
    _, header, _, _ = _LOADERS[kind]
    assert len(_load_text(tmp_path, kind, header + "\n" + body)) == 0


@pytest.mark.parametrize("kind", sorted(_LOADERS))
def test_loaders_accept_header_only_file_without_newline(tmp_path, kind):
    _, header, _, _ = _LOADERS[kind]
    assert len(_load_text(tmp_path, kind, header)) == 0


@pytest.mark.parametrize("kind", sorted(_LOADERS))
@pytest.mark.parametrize(
    "tail", ["\n\n", "", "\n\n\n"], ids=["trailing-blank", "no-final-newline", "trailing-blanks"]
)
def test_loaders_accept_loose_file_endings(tmp_path, kind, tail):
    _, header, rows, _ = _LOADERS[kind]
    got = _load_text(tmp_path, kind, "\n".join([header, *rows]) + tail)
    assert got.tolist() == [[int(v) for v in row.split(",")] for row in rows]


@pytest.mark.parametrize("kind", sorted(_LOADERS))
@pytest.mark.parametrize("second", ["short", "long"])
def test_loaders_reject_bad_second_row(tmp_path, kind, second):
    load, header, rows, _ = _LOADERS[kind]
    bad = rows[1].rsplit(",", 1)[0] if second == "short" else rows[1] + ",7"
    p = tmp_path / "bad.csv"
    p.write_text("\n".join([header, rows[0], bad]) + "\n", encoding="utf-8")
    with pytest.raises(PreconditionError):
        load(p)


@pytest.mark.parametrize("kind", sorted(_LOADERS))
def test_loaders_reject_whitespace_line_between_rows(tmp_path, kind):
    load, header, rows, _ = _LOADERS[kind]
    p = tmp_path / "bad.csv"
    p.write_text("\n".join([header, rows[0], "  ", rows[1]]) + "\n", encoding="utf-8")
    with pytest.raises(PreconditionError):
        load(p)


@pytest.mark.parametrize("kind", sorted(_LOADERS))
@pytest.mark.parametrize("where", ["header", "body"])
def test_loaders_reject_non_utf8_text(tmp_path, kind, where):
    load, header, rows, _ = _LOADERS[kind]
    good = (header + "\n" + rows[0] + "\n").encode("utf-8")
    text = b"\x89PNG\r\n\x1a\n\xff\xfe" if where == "header" else good + b"1\xff0,2\n"
    p = tmp_path / "bad.csv"
    p.write_bytes(text)
    with pytest.raises(PreconditionError, match="UTF-8"):
        load(p)
