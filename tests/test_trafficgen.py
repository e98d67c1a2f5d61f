import dataclasses
import io
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icmeas.errors import ConfigError, PreconditionError
from icmeas.meassim import MeasurementSeries, load_measurements, save_measurements
from icmeas.trafficgen import (
    _BLOCK_ROWS,
    _COMPRESSED_SUFFIXES,
    ATTACK,
    BACKGROUND,
    AttackConfig,
    PacketTrace,
    PoissonConfig,
    gen_periodic,
    gen_poisson,
    _at_file_line,
    _write_int_csv,
    load_trace,
    merge,
    save_trace,
)

from oracles import gen_poisson_reference, merge_reference

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
    for mix in (((0, 0.5), (200, 0.5)), ((100, -0.5), (200, 1.5))):
        with pytest.raises(ConfigError, match=r"^size_mix entries must be \(size>=1, weight>=0\)$"):
            PoissonConfig(mean_gap_ns=100.0, duration_ns=S, seed=1, size_mix=mix)
    with pytest.raises(ConfigError, match="^size_bytes must be >= 1$"):
        PoissonConfig(mean_gap_ns=100.0, duration_ns=S, seed=1, size_bytes=0)


@pytest.mark.parametrize(
    "mean_gap_ns, duration_ns, message",
    [
        (2.0**63, S, "mean_gap_ns must be below 2**63"),
        (1e304, S, "mean_gap_ns must be below 2**63"),
        # duration_ns 2**63 is past int64, refused before this rule is reached
        (0.5, 2**62, "duration_ns / mean_gap_ns must be below 2**63"),
        (1e-303, S, "duration_ns / mean_gap_ns must be below 2**63"),
    ],
    ids=["gap-at-2**63", "gap-1e304", "packets-at-2**63", "gap-1e-303"],
)
def test_poisson_config_refuses_traces_past_int64(mean_gap_ns, duration_ns, message):
    # gen_poisson's gap sums would overflow to inf, or its first chunk be sized from inf
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        PoissonConfig(mean_gap_ns=mean_gap_ns, duration_ns=duration_ns, seed=1)


def test_poisson_config_takes_the_values_just_below_its_bounds():
    PoissonConfig(mean_gap_ns=1.0, duration_ns=2**63 - 1024, seed=1)  # the last ratio below 2**63
    below = math.nextafter(2.0**63, 0)
    trace = gen_poisson(PoissonConfig(mean_gap_ns=below, duration_ns=S, seed=1))
    assert trace == PacketTrace.empty()


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
    assert trace.t_ns[0] >= 0
    assert trace.t_ns[-1] < cfg.duration_ns
    gaps = np.diff(trace.t_ns)
    assert gaps.min() >= 0
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


def test_trace_equals_only_a_trace():
    trace = gen_poisson(PoissonConfig(mean_gap_ns=5_000.0, duration_ns=MS, seed=1))
    columns = (trace.t_ns, trace.size_bytes, trace.label)
    assert trace.__eq__(columns) is NotImplemented
    assert trace != columns


@pytest.mark.parametrize(
    "duration_ns, mean_gap_ns, size_mix",
    [
        (0, 19_000.0, ()),
        (1, 19_000.0, ()),
        (1, 0.7, ()),
        (1, 0.01, ()),  # about half the draws round up onto the boundary
        (MS, 19_000.0, ()),
        (MS, 3.0, ((64, 0.25), (1500, 0.75))),
        (20 * S, 19_000.0, ()),
        # the last chunk's draws run past int64, so the cut must come before the cast
        (2**62, 2.0**60, ()),
        (2**63 - 1, 1e17, ()),
    ],
)
@pytest.mark.parametrize("seed", [0, 7])
def test_poisson_matches_mask_cut_reference(duration_ns, mean_gap_ns, size_mix, seed):
    cfg = PoissonConfig(mean_gap_ns=mean_gap_ns, duration_ns=duration_ns, seed=seed, size_mix=size_mix)
    assert gen_poisson(cfg) == gen_poisson_reference(cfg)


@pytest.mark.parametrize(
    "duration_ns, mean_gap_ns",
    [(1_000, 0.5), (MS, 3.0), (100 * MS, 19_000.0), (2 * S, 19_000.0), (20 * S, 1e9)],
)
@pytest.mark.parametrize("seed", [0, 1, 7, 2**32 - 1])
def test_poisson_scaled_standard_draws_match_exponential_reference(duration_ns, mean_gap_ns, seed):
    # gen_poisson scales standard exponential draws in place; the reference
    # draws rng.exponential(mean_gap_ns, n).  The size draws that follow come
    # from the same generator, so they compare its state after the gaps too.
    mix = ((64, 0.3), (576, 0.2), (1500, 0.5))
    cfg = PoissonConfig(mean_gap_ns=mean_gap_ns, duration_ns=duration_ns, seed=seed, size_mix=mix)
    trace = gen_poisson(cfg)
    assert len(trace) > 0
    assert trace == gen_poisson_reference(cfg)


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


@settings(max_examples=60, deadline=None)
@given(
    n_expect=st.integers(0, 3000),
    mean_gap_ns=st.floats(0.01, 1e15),
    seed=st.integers(0, 2**32 - 1),
)
def test_poisson_times_are_the_rounded_draws_on_drawn_configs(n_expect, mean_gap_ns, seed):
    # times up to ~3e18 ns; the reference rounds into a new array with np.rint(t).astype(np.int64)
    cfg = PoissonConfig(mean_gap_ns=mean_gap_ns, duration_ns=int(n_expect * mean_gap_ns), seed=seed)
    got = gen_poisson(cfg)
    assert got.t_ns.dtype == np.int64
    assert np.array_equal(got.t_ns, gen_poisson_reference(cfg).t_ns)


@pytest.mark.parametrize(
    "gen, cfg, size, label",
    [
        (gen_poisson, PoissonConfig(19_000.0, 50 * MS, seed=4, size_bytes=500), 500, BACKGROUND),
        (gen_periodic, AttackConfig(period_ns=400 * US, duration_ns=50 * MS), 1500, ATTACK),
        (
            gen_periodic,
            AttackConfig(400 * US, 50 * MS, size_bytes=64, jitter_stddev_ns=1000.0, seed=5),
            64,
            ATTACK,
        ),
    ],
    ids=["poisson", "periodic", "periodic-jittered"],
)
def test_generated_one_value_columns_are_read_only_and_full(gen, cfg, size, label):
    trace = gen(cfg)
    n = len(trace)
    assert n > 100
    wants = (np.full(n, size, np.int64), np.full(n, label, np.uint8))
    for col, want in zip((trace.size_bytes, trace.label), wants):
        assert not col.flags.writeable
        assert col.dtype == want.dtype and col.shape == want.shape
        assert np.array_equal(col, want)


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
    # a train that would start at or after the duration has no packet, with
    # or without jitter; an offset a period or more past the duration would
    # draw a negative number of jitters (offset 250, duration 0: -2)
    for jitter_stddev_ns in (0.0, 1.0):
        for start_offset_ns, duration_ns in [(50, 0), (50, 49), (50, 50)] + [
            (250, d) for d in (0, 50, 150, 151, 249, 250)
        ]:
            empty = gen_periodic(
                dataclasses.replace(
                    cfg,
                    duration_ns=duration_ns,
                    start_offset_ns=start_offset_ns,
                    jitter_stddev_ns=jitter_stddev_ns,
                )
            )
            assert empty == PacketTrace.empty()
            assert empty.t_ns.dtype == np.int64 and empty.label.dtype == np.uint8


def test_periodic_jitter_stays_near_grid():
    cfg = AttackConfig(period_ns=400 * US, duration_ns=S, jitter_stddev_ns=1000.0, seed=5)
    trace = gen_periodic(cfg)
    base = gen_periodic(AttackConfig(period_ns=400 * US, duration_ns=S))
    assert len(trace) == len(base)
    dev = trace.t_ns - base.t_ns
    assert np.abs(dev).max() < 200 * US  # well inside half a period
    assert dev.std() == pytest.approx(1000.0, rel=0.1)
    assert np.all(np.diff(trace.t_ns) > 0)  # the clamp keeps neighbours apart
    # small periods, stddev just under period / 4: the clamp is +-max(period // 2 - 1, 0)
    for period_ns in range(1, 17):
        for seed in range(4):
            stddev = np.nextafter(period_ns / 4, 0)
            n = 200  # the last grid point plus the clamp stays below duration_ns
            cfg = AttackConfig(period_ns, n * period_ns, jitter_stddev_ns=stddev, seed=seed)
            t = gen_periodic(cfg).t_ns
            assert len(t) == n and np.all(np.diff(t) > 0)
            dev = t - period_ns * np.arange(n)
            assert np.abs(dev).max() <= max(period_ns // 2 - 1, 0)


def test_periodic_rejects_large_jitter():
    with pytest.raises(ConfigError):
        AttackConfig(period_ns=100, duration_ns=1000, jitter_stddev_ns=30.0)
    for key, value, message in [
        ("duration_ns", -1, "duration_ns must be non-negative"),
        ("start_offset_ns", -1, "start_offset_ns must be non-negative"),
        ("jitter_stddev_ns", -1.0, "jitter_stddev_ns must be non-negative"),
        ("size_bytes", 0, "size_bytes must be >= 1"),
    ]:
        with pytest.raises(ConfigError, match=f"^{message}$"):
            AttackConfig(**{"period_ns": 100, "duration_ns": 1000, key: value})


def test_merge_interleaves_and_breaks_ties_background_first():
    bg = PacketTrace(np.array([0, 100, 200]), np.array([500, 500, 500]), np.array([0, 0, 0]))
    atk = PacketTrace(np.array([100, 250]), np.array([1500, 1500]), np.array([1, 1]))
    out = merge(bg, atk)
    assert out.t_ns.tolist() == [0, 100, 100, 200, 250]
    assert out.label.tolist() == [0, 0, 1, 0, 1]
    assert out.size_bytes.tolist() == [500, 500, 1500, 500, 1500]


def test_merge_ties_follow_argument_order_not_labels():
    bg = PacketTrace(np.array([0, 100, 200]), np.array([500, 500, 500]), np.array([0, 0, 0]))
    atk = PacketTrace(np.array([100, 250]), np.array([1500, 1500]), np.array([1, 1]))
    out = merge(atk, bg)
    assert out.t_ns.tolist() == [0, 100, 100, 200, 250]
    assert out.label.tolist() == [0, 1, 0, 0, 1]
    assert out.size_bytes.tolist() == [500, 1500, 500, 500, 1500]


@st.composite
def merge_traces(draw):
    """A sorted trace of 0-12 packets on a few timestamps, so ties are common.

    Its labels are all BACKGROUND, all ATTACK, or mixed; a one-label column
    may be a broadcast of its value, as the generators build it.  Each row's
    size is distinct, so a reordering of tied rows shows in the size column.
    """
    n = draw(st.integers(0, 12))
    t = sorted(draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)))
    kind = draw(st.sampled_from(["background", "attack", "mixed"]))
    if kind == "mixed":
        label = draw(st.lists(st.sampled_from([BACKGROUND, ATTACK]), min_size=n, max_size=n))
    else:
        value = np.uint8(BACKGROUND if kind == "background" else ATTACK)
        label = np.broadcast_to(value, (n,)) if draw(st.booleans()) else [value] * n
    base = draw(st.integers(1, 1000))
    return PacketTrace(np.array(t, np.int64), base + np.arange(n), np.asarray(label, np.uint8))


@settings(max_examples=400, deadline=None)
@given(merge_traces(), merge_traces())
def test_merge_matches_stable_sort_reference(a, b):
    # both argument orders, and a trace merged with itself (equal labels on both sides)
    for x, y in ((a, b), (b, a), (a, a)):
        out = merge(x, y)
        assert out == merge_reference(x, y)
        assert out.t_ns.dtype == np.int64 and out.size_bytes.dtype == np.int64
        assert out.label.dtype == np.uint8


@pytest.mark.parametrize(
    "a, b",
    [
        # the attack first: on a tie its packets go before the background's, as a's
        ([(5, 1), (5, 1)], [(5, 0), (5, 0), (5, 0)]),
        ([(5, 1)], [(0, 0), (5, 0), (5, 0)]),
        # equal labels on both sides: a's tied rows before b's, whichever is larger
        ([(5, 0)], [(5, 0), (5, 0), (7, 0)]),
        ([(5, 0), (5, 0), (7, 0)], [(5, 0)]),
        # an empty trace beside a mixed one keeps the mixed one's rows as they are
        ([], [(5, 1), (5, 0), (6, 1), (6, 0)]),
        ([(5, 1), (5, 0)], []),
        # an empty trace beside a one-label one: nothing to insert, or nothing to insert into
        ([], [(5, 1), (6, 1)]),
        ([(5, 0)], []),
        ([], []),
    ],
    ids=[
        "attack-first",
        "attack-first-smaller",
        "same-label-a-smaller",
        "same-label-b-smaller",
        "empty-then-mixed",
        "mixed-then-empty",
        "empty-then-attack",
        "background-then-empty",
        "both-empty",
    ],
)
def test_merge_ties_and_empty_inputs(a, b):
    def trace(rows, first_size):
        t = np.array([r[0] for r in rows], np.int64)
        label = np.array([r[1] for r in rows], np.uint8)
        return PacketTrace(t, first_size + np.arange(len(rows)), label)

    x, y = trace(a, 100), trace(b, 200)
    assert merge(x, y) == merge_reference(x, y)
    assert merge(y, x) == merge_reference(y, x)


def test_merge_rejects_unsorted():
    # an unsorted trace cannot be built, so it never reaches merge
    with pytest.raises(PreconditionError):
        bad = PacketTrace(np.array([100, 0]), np.array([500, 500]), np.array([0, 0]))
        merge(bad, PacketTrace.empty())


def test_trace_is_sorted_by_construction(tmp_path):
    with pytest.raises(PreconditionError, match="^t_ns must be nondecreasing$"):
        PacketTrace(np.array([0, 200, 100]), np.full(3, 500), np.zeros(3))
    with pytest.raises(ConfigError, match="^trace columns must have equal length$"):
        PacketTrace(np.array([0, 100]), np.full(3, 500), np.zeros(3))
    tied = PacketTrace(np.array([0, 100, 100]), np.full(3, 500), np.zeros(3))
    assert tied.t_ns.tolist() == [0, 100, 100]
    p = tmp_path / "unsorted.csv"
    p.write_text("t_ns,size_bytes,label\n200,500,0\n100,500,0\n", encoding="utf-8")
    with pytest.raises(PreconditionError) as info:
        load_trace(p)
    assert str(info.value) == f"{p}: t_ns must be nondecreasing"


@pytest.mark.parametrize(
    "label",
    [np.array([256, 0]), [256, 0], [-1, 0], [2**70, 0], np.array([0.0, np.nan])],
    ids=["array-256", "list-256", "minus-one", "past-int64", "nan"],
)
def test_trace_refuses_labels_the_uint8_cast_would_wrap(label):
    with pytest.raises(PreconditionError, match="^labels must be 0 or 1$"):
        PacketTrace([0, 1], [1, 1], label)


@pytest.mark.parametrize(
    "size, label, message",
    [
        (np.int64(0), np.uint8(0), "size_bytes must be >= 1"),
        (np.int64(1), np.uint8(2), "labels must be 0 or 1"),
        (np.int64(1), np.int64(256), "labels must be 0 or 1"),
        (np.int64(1), np.float64(np.nan), "labels must be 0 or 1"),
    ],
    ids=["size-zero", "label-two", "int64-label-256", "nan-label"],
)
def test_trace_refuses_broadcast_columns_as_their_copies(size, label, message):
    # a broadcast column is read once, at its one value; its copy is reduced
    cols = np.broadcast_to(size, (3,)), np.broadcast_to(label, (3,))
    assert all(col.strides == (0,) for col in cols)
    for size_col, label_col in (cols, [np.ascontiguousarray(col) for col in cols]):
        with pytest.raises(PreconditionError, match=f"^{message}$"):
            PacketTrace([0, 1, 2], size_col, label_col)


@pytest.mark.parametrize(
    "cols, name",
    [
        (([0], [1], [0.5]), "label"),
        (([0.7, 1.2], [1.9, 2], [0, 1]), "t_ns"),
        (([0, 1], [1.9, 2], [0, 1]), "size_bytes"),
        (([0.0, np.inf], [1, 1], [0, 0]), "t_ns"),
        (([0.0, np.nan], [1, 1], [0, 0]), "t_ns"),
        (([0, 1, 2], np.broadcast_to(1.5, (3,)), np.zeros(3)), "size_bytes"),
    ],
    ids=["half-label", "fractional-times", "fractional-size", "inf-time", "nan-time", "broadcast"],
)
def test_trace_refuses_floats_that_are_not_whole(cols, name):
    # the int casts would truncate a fraction (0.5 -> 0) instead of refusing it
    with pytest.raises(PreconditionError, match=f"^{name} must hold whole numbers$"):
        PacketTrace(*cols)


@pytest.mark.parametrize(
    "cols, name",
    [
        ((np.array([0.0, 1e19]), [500, 500], [0, 0]), "t_ns"),
        ((np.array([0.0, 2.0**63]), [500, 500], [0, 0]), "t_ns"),
        (([0, 2**63], [500, 500], [0, 0]), "t_ns"),
        ((np.array([0, 2**63], np.uint64), [500, 500], [0, 0]), "t_ns"),
        (([0, 1], [500, 2**64], [0, 0]), "size_bytes"),
        (([0, 1], np.array([500.0, -1e19]), [0, 0]), "size_bytes"),
    ],
    ids=["float-time", "float-time-at-2**63", "int-time", "uint64-time", "object-size", "float-size"],
)
def test_trace_refuses_values_past_int64(cols, name):
    # the int64 cast would wrap or clip them, and a later rule would name the wrong break
    with pytest.raises(PreconditionError, match=f"^{name} must fit int64$"):
        PacketTrace(*cols)


def test_trace_takes_the_ends_of_int64():
    # only values past int64 are refused: the top from uint64, the bottom from a float
    top = 2**63 - 1
    trace = PacketTrace(np.array([0, top], np.uint64), [1, top], [0, 1])
    assert trace.t_ns.dtype == np.int64 and trace.t_ns.tolist() == [0, top]
    with pytest.raises(PreconditionError, match="^t_ns must be non-negative$"):
        PacketTrace(np.array([-(2.0**63), 0.0]), [1, 1], [0, 0])


def test_trace_takes_whole_floats_as_ints():
    trace = PacketTrace([0.0, 2.0, 2.0], np.broadcast_to(1500.0, (3,)), np.array([0.0, 1.0, 1.0]))
    assert trace.t_ns.dtype == trace.size_bytes.dtype == np.int64 and trace.label.dtype == np.uint8
    assert trace == PacketTrace([0, 2, 2], [1500] * 3, [0, 1, 1])


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


@pytest.mark.parametrize(
    "t_ns,size_bytes,label,message",
    [
        ([-5, 3], [500, 500], [0, 1], "t_ns must be non-negative"),
        ([0, 3], [500, 0], [0, 1], "size_bytes must be >= 1"),
        ([0, 3], [500, 500], [0, 2], "labels must be 0 or 1"),
    ],
    ids=["negative-time", "size-zero", "label-two"],
)
def test_save_trace_refuses_what_load_refuses(tmp_path, t_ns, size_bytes, label, message):
    # such a trace cannot be built, so it never reaches the writer
    p = tmp_path / "trace.csv"
    with pytest.raises(PreconditionError, match=f"^{message}$"):
        save_trace(PacketTrace(np.array(t_ns), np.array(size_bytes), np.array(label)), p)
    assert not p.exists()
    # the rows as text, written by hand, are refused by the loader for the same rule
    rows = "".join(f"{t},{s},{c}\n" for t, s, c in zip(t_ns, size_bytes, label))
    p.write_text("t_ns,size_bytes,label\n" + rows, encoding="utf-8")
    with pytest.raises(PreconditionError, match=f"^{p}: {message}$"):
        load_trace(p)


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
@pytest.mark.parametrize(
    "form", ["plus-signs", "spaces-around-fields", "trailing-form-feed", "spaced-header"]
)
def test_loaders_accept_loose_forms_as_the_plain_file(tmp_path, kind, form):
    # np.loadtxt strips whitespace around fields and takes a leading '+';
    # the header check strips its line
    _, header, rows, _ = _LOADERS[kind]
    loose_header, loose_rows = {
        "plus-signs": (header, ["+" + r.replace(",", ",+") for r in rows]),
        "spaces-around-fields": (header, [" " + r.replace(",", " , ") + " " for r in rows]),
        "trailing-form-feed": (header, [r + "\f" for r in rows]),
        "spaced-header": (" " + header + "  ", rows),
    }[form]
    plain = _load_text(tmp_path, kind, "\n".join([header, *rows]) + "\n")
    loose = _load_text(tmp_path, kind, "\n".join([loose_header, *loose_rows]) + "\n")
    assert loose.tolist() == plain.tolist()


@pytest.mark.parametrize("kind", sorted(_LOADERS))
@pytest.mark.parametrize("name", ["bad.csv", "bad.csv.gz"])
@pytest.mark.parametrize(
    "case",
    [
        "value-after-blank-line",
        "short-row",
        "long-row-after-blanks",
        "every-row-short",
        "every-row-long-after-blanks",
        "value-after-blank-line-crlf",
        "value-after-lone-cr",
        "width-change-after-lone-cr",
        "every-row-short-after-lone-crs",
    ],
)
def test_loader_errors_name_the_file_line(tmp_path, kind, name, case):
    # the header is line 1 and lines end at LF; np.loadtxt's own row also
    # ends at a lone CR, skips blank lines and counts from 0 for a bad value
    # but from 1 for a width change; when every row has the same wrong
    # width, the first row's line is named
    load, header, rows, _ = _LOADERS[kind]
    width = header.count(",") + 1
    bad_value = "100,x" + ",0" * (width - 2)
    short = [r.rsplit(",", 1)[0] for r in rows]
    lines, message = {
        "value-after-blank-line": (
            [rows[0], "", bad_value],
            "could not convert string 'x' to int64 at line 4, column 2.",
        ),
        "value-after-blank-line-crlf": (
            [rows[0] + "\r", "\r", bad_value + "\r"],
            "could not convert string 'x' to int64 at line 4, column 2.",
        ),
        "value-after-lone-cr": (
            [rows[0] + "\r," + ",".join(["0"] * (width - 1))],
            "could not convert string '' to int64 at line 2, column 1.",
        ),
        "width-change-after-lone-cr": (
            ["1\r" + ",2" * (width - 1), bad_value],
            f"the number of columns changed from 1 to {width} at line 2",
        ),
        "every-row-short-after-lone-crs": (
            ["\r" + short[0] + "\r" + short[1]],
            f"rows must have {width} columns, found {width - 1} at line 2",
        ),
        "short-row": (
            [rows[0], rows[1].rsplit(",", 1)[0]],
            f"the number of columns changed from {width} to {width - 1} at line 3",
        ),
        "long-row-after-blanks": (
            ["", rows[0], "", "", rows[1] + ",7"],
            f"the number of columns changed from {width} to {width + 1} at line 6",
        ),
        "every-row-short": (
            short,
            f"rows must have {width} columns, found {width - 1} at line 2",
        ),
        "every-row-long-after-blanks": (
            ["", "", rows[0] + ",7", "", rows[1] + ",7"],
            f"rows must have {width} columns, found {width + 1} at line 4",
        ),
    }[case]
    p = tmp_path / name
    p.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
    with pytest.raises(PreconditionError) as info:
        load(p)
    assert str(info.value) == f"{p}: {message}"


@pytest.mark.parametrize(
    "message",
    [
        "could not convert string 'x' to int64",
        "at row 3 of a message that names no row at its end",
        "the number of columns changed from 3 to 2 at row 7",
    ],
)
def test_loader_error_without_a_row_is_kept_as_it_is(message):
    assert _at_file_line(message, "0,1500,0\n\n0,1500\n") == message


@pytest.mark.parametrize("kind", sorted(_LOADERS))
@pytest.mark.parametrize("second", ["short", "long", "comment-line", "trailing-comment"])
def test_loaders_reject_bad_second_row(tmp_path, kind, second):
    # the writer never emits a '#', so the reader takes it for no comment marker
    load, header, rows, _ = _LOADERS[kind]
    bad = {
        "short": rows[1].rsplit(",", 1)[0],
        "long": rows[1] + ",7",
        "comment-line": "# note",
        "trailing-comment": rows[1] + " # note",
    }[second]
    p = tmp_path / "bad.csv"
    p.write_text("\n".join([header, rows[0], bad]) + "\n", encoding="utf-8")
    with pytest.raises(PreconditionError, match="bad.csv"):
        load(p)


@pytest.mark.parametrize("kind", sorted(_LOADERS))
def test_loaders_reject_whitespace_line_between_rows(tmp_path, kind):
    load, header, rows, _ = _LOADERS[kind]
    p = tmp_path / "bad.csv"
    p.write_text("\n".join([header, rows[0], "  ", rows[1]]) + "\n", encoding="utf-8")
    with pytest.raises(PreconditionError):
        load(p)


# Given a file name, np.loadtxt would pick a decompressor by these suffixes;
# the writers write plain text under any name, and the loaders read it back.
@pytest.mark.parametrize("suffix", [".csv.gz", ".bz2", ".xz", ".lzma"])
def test_plain_files_named_like_compressed_ones_round_trip(tmp_path, suffix):
    trace = merge(
        gen_poisson(PoissonConfig(mean_gap_ns=5 * US, duration_ns=10 * MS, seed=3)),
        gen_periodic(AttackConfig(period_ns=800 * US, duration_ns=10 * MS)),
    )
    series = MeasurementSeries(*np.unique(trace.t_ns, return_counts=True))
    for value, save, load in [
        (trace, save_trace, load_trace),
        (series, save_measurements, load_measurements),
    ]:
        plain, named = tmp_path / "plain.csv", tmp_path / f"named{suffix}"
        save(value, plain)
        save(value, named)
        assert named.read_bytes() == plain.read_bytes()
        assert load(named) == load(plain) == value


def test_compressed_suffixes_are_the_ones_numpy_decompresses():
    # an opener added by a numpy upgrade must join the reader's tuple
    openers = set(np.lib._datasource._file_openers.keys()) - {None}
    assert set(_COMPRESSED_SUFFIXES) == openers
    assert len(_COMPRESSED_SUFFIXES) == len(openers)


@pytest.mark.parametrize("kind", sorted(_LOADERS))
def test_loaders_read_url_shaped_names_as_local_files(tmp_path, monkeypatch, kind):
    # Given "http://host/x.csv", np.loadtxt would look for ./host/x.csv and
    # then fetch the URL; the reader must open the local file of that name.
    # The decoy ./host/x.csv is found first, so a reader that handed numpy
    # the name would load one row instead of reaching the network.
    load, header, rows, columns = _LOADERS[kind]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "http:" / "host").mkdir(parents=True)
    (tmp_path / "http:" / "host" / "x.csv").write_text("\n".join([header, *rows]) + "\n")
    (tmp_path / "host").mkdir()
    (tmp_path / "host" / "x.csv").write_text("\n".join([header, rows[1]]) + "\n")
    got = columns(load("http://host/x.csv"))
    assert got.tolist() == [[int(v) for v in row.split(",")] for row in rows]


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
