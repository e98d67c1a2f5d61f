"""Turning op times, facts and spans into the metrics BENCHMARK.json names."""

import resource
import statistics
import time

import numpy as np

import tracing
from workloads import TRUE_GAP_NS, facts_of

TAIL_BEYOND = 10  # samples that must lie beyond the reported tail

SCIENCE = (
    "ttd_s.pdmm.hicv1",
    "ttd_s.pdmm.hicv2",
    "ttd_s.pad.hicv1",
    "ttd_s.pad.hicv2",
    "detect_rate.pdmm.hicv1",
    "detect_rate.pdmm.hicv2",
    "detect_rate.pad.hicv1",
    "detect_rate.pad.hicv2",
    "fp_rate.pdmm",
    "fp_rate.pad",
)


class HostSpeed:
    """A fixed pure-Python and numpy loop, timed between ops and set-up probes.

    The 2-core host this was built on has spells of many seconds in which
    all code runs up to 1.7x slower, while process CPU time stays equal to
    wall time (so the process is not waiting for a core).  An op's time
    divided by the reference time measured beside it leaves about a third of
    that drift in the bounded metrics.  REF_S, the loop's time on a quiet
    host of that kind, turns the ratio back into seconds.
    """

    REF_S = 0.016

    def __init__(self):
        self.array = np.random.default_rng(0).integers(0, 10**9, 200_000)
        self.values = np.sort(self.array).tolist()
        self.times = []

    def sample(self):
        t0 = time.perf_counter()
        count, last = 0, 0
        for x in self.values:
            if x - last < 5000:
                count += 1
            last = x
        np.cumsum(np.sort(self.array))
        self.times.append(time.perf_counter() - t0)

    def factor(self, i):
        """How much slower than REF_S the host ran between samples i and i+1."""
        return (self.times[i] + self.times[i + 1]) / (2 * self.REF_S)


def tail(samples):
    """The slowest sample with TAIL_BEYOND samples beyond it, never below the
    median; returns (value, percentile, samples beyond it)."""
    s = sorted(samples)
    n = len(s)
    if n < 2 * TAIL_BEYOND + 1:
        return statistics.median(s), 50.0, n // 2
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def op_counts(facts):
    """Deterministic counts of one op, from what its public calls returned."""
    coal = facts_of(facts, "meassim.coalesce")
    gen = facts_of(facts, "trafficgen.gen_poisson") + facts_of(facts, "trafficgen.gen_periodic")
    pdmm = [f["report"] for f in facts_of(facts, "pdmm.detect_stream")]
    pad = [f["report"] for f in facts_of(facts, "pad.detect_psd")]
    estimates = [f["estimate"].value_ns for f in facts_of(facts, "analytic.estimate_lambda_ratio")]
    return {
        "generated": sum(f["packets"] for f in gen),
        "coalesced": sum(f["packets"] for f in coal),
        "measurements": sum(len(f["ms"]) for f in coal),
        "abs_fired": sum(f["ms"].flags.get("hic_abs_fired", 0) for f in coal),
        "pack_fired": sum(f["ms"].flags.get("hic_pack_fired", 0) for f in coal),
        "pdmm_blocks": sum(r.blocks_processed for r in pdmm),
        "pdmm_tested": sum(len(r.trajectory) for r in pdmm),
        "pad_windows": sum(r.blocks_processed for r in pad),
        "lambda_rel_error": max((abs(v / TRUE_GAP_NS - 1.0) for v in estimates), default=0.0),
    }


def end_to_end(ops, factors, elapsed_s, setup_s):
    """Bounded metrics of an untraced run, plus the same without the
    host-speed correction.  ``factors[k]`` belongs to ``ops[k]``."""
    times = [o["op_s"] for o in ops]
    norm = [t / f for t, f in zip(times, factors)]
    packets = [o["counts"]["coalesced"] for o in ops]
    # the whole run's wall time, corrected by the ops' time-weighted factor
    norm_elapsed_s = elapsed_s * sum(norm) / sum(times)
    metrics = {
        "op_s.p50.norm": statistics.median(norm),
        "op_s.tail.norm": tail(norm)[0],
        "ops_per_s.norm": len(ops) / norm_elapsed_s,
        "packets_per_s.norm": statistics.median(p / t for p, t in zip(packets, norm)),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw = {
        "op_s.p50": statistics.median(times),
        "op_s.tail": tail(times)[0],
        "ops_per_s": len(ops) / elapsed_s,
        "packets_per_s": statistics.median(p / t for p, t in zip(packets, times)),
    }
    return metrics, raw


def _ratio(a, b):
    return a / b if b else 0.0


def layer_values(entry, counts):
    """Per-layer metrics of one traced op."""
    by, own = entry["by_name"], entry["self_by_layer"]

    def ms(name):
        return 1e3 * by.get(name, 0.0)

    coalesce_s = sum(v for k, v in by.items() if k.startswith("meassim.coalesce."))
    fired = counts["abs_fired"] + counts["pack_fired"]
    values = {
        "trafficgen.gen_poisson_ms": ms("trafficgen.gen_poisson"),
        "trafficgen.gen_periodic_ms": ms("trafficgen.gen_periodic"),
        "trafficgen.merge_ms": ms("trafficgen.merge"),
        "trafficgen.packets": counts["generated"],
        "trafficgen.save_trace_ms": ms("trafficgen.save_trace"),
        "trafficgen.load_trace_ms": ms("trafficgen.load_trace"),
        "meassim.apply_transfer_ms": ms("meassim.apply_transfer"),
        "meassim.coalesce_ms.hicv1": ms("meassim.coalesce.hicv1"),
        "meassim.coalesce_ms.hicv2": ms("meassim.coalesce.hicv2"),
        "meassim.coalesce_ms.tic": ms("meassim.coalesce.tic"),
        "meassim.coalesce_ms.pic": ms("meassim.coalesce.pic"),
        "meassim.coalesce_ns_per_packet": 1e9 * _ratio(coalesce_s, counts["coalesced"]),
        "meassim.measurements": counts["measurements"],
        "meassim.abs_fired_share": _ratio(counts["abs_fired"], fired),
        "meassim.save_measurements_ms": ms("meassim.save_measurements"),
        "meassim.load_measurements_ms": ms("meassim.load_measurements"),
        "pdmm.detect_stream_ms": ms("pdmm.detect_stream"),
        "pdmm.blocks": counts["pdmm_blocks"],
        "pdmm.blocks_tested": counts["pdmm_tested"],
        "pdmm.ms_per_block": _ratio(ms("pdmm.detect_stream"), counts["pdmm_blocks"]),
        "pad.rasterize_ms": ms("pad.rasterize"),
        "pad.detect_psd_ms": ms("pad.detect_psd"),
        "pad.windows": counts["pad_windows"],
        "pad.ms_per_window": _ratio(ms("pad.detect_psd"), counts["pad_windows"]),
        "analytic.estimate_lambda_ms": ms("analytic.estimate_lambda_ratio"),
        "analytic.lambda_rel_error": counts["lambda_rel_error"],
        "harness.measurement_stats_ms": ms("harness.measurement_stats"),
        "harness.results_json_ms": ms("harness.results_json"),
        "cli.gen_s": by.get("cli.main.gen", 0.0),
        "cli.measure_s": by.get("cli.main.measure", 0.0),
        "cli.stats_s": by.get("cli.main.stats", 0.0),
        "cli.detect_pdmm_s": by.get("cli.main.detect_pdmm", 0.0),
        "cli.detect_pad_s": by.get("cli.main.detect_pad", 0.0),
    }
    for layer in tracing.LAYERS:
        values[f"{layer}.self_ms"] = 1e3 * own.get(layer, 0.0)
    return values


def per_layer(spans, ops, factors, science):
    """Medians over the traced ops of every per-layer metric, the science
    numbers, and the tracing overhead.  Returns (metrics, layer table).

    The overhead compares host-corrected traced and untraced op times, which
    alternate within the run.  ``factors[k]`` belongs to ``ops[k]``.
    """
    breakdown = tracing.op_breakdown(spans)
    traced = [(breakdown[o["i"]], o["counts"], f) for o, f in zip(ops, factors) if o["traced"]]
    for entry, _, _ in traced:
        covered = sum(entry["self_by_layer"].values())
        if abs(covered - entry["op_s"]) > 1e-6:
            raise RuntimeError(f"layer self times sum to {covered} s, the op took {entry['op_s']} s")
    per_op = [layer_values(entry, counts) for entry, counts, _ in traced]
    op_s = [entry["op_s"] for entry, _, _ in traced]
    metrics = {name: statistics.median(v[name] for v in per_op) for name in per_op[0]}
    metrics.update({name: science.get(name, 0.0) for name in SCIENCE})
    untraced_norm = [o["op_s"] / f for o, f in zip(ops, factors) if not o["traced"]]
    traced_norm = [entry["op_s"] / f for entry, _, f in traced]
    spans_per_op = {}
    for s in spans:
        spans_per_op[s[4]] = spans_per_op.get(s[4], 0) + 1
    metrics["trace.op_s.p50"] = statistics.median(op_s)
    metrics["trace.overhead_ratio"] = statistics.median(traced_norm) / statistics.median(untraced_norm)
    metrics["trace.spans_per_op"] = statistics.median(spans_per_op.values())
    table = {
        layer: {
            "self_ms_p50": statistics.median(v[f"{layer}.self_ms"] for v in per_op),
            "share": statistics.mean(v[f"{layer}.self_ms"] / 1e3 / t for v, t in zip(per_op, op_s)),
        }
        for layer in tracing.LAYERS
    }
    return metrics, table
