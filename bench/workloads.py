"""The four benchmark workloads: inputs, one op each, and its output check.

Every workload is a closed loop in one process: op i starts when op i-1 has
finished.  Op i draws its own seed from (workload seed, i), so a run's ops
and their outputs are fixed by ``--seed`` alone.  ``check`` returns a list
of problems, empty when the op's outputs are right; it runs after the op's
timer has stopped.
"""

import contextlib
import hashlib
import io
import json
import os
import statistics

import numpy as np

import icmeas
from icmeas import cli

SECOND = 1_000_000_000
WINDOW_NS = 20 * SECOND  # the preset detection window of every trial
WARMUP_NS = 1 * SECOND  # long enough for two pdmm blocks and one pad window
SYSTEMS = ("hicv1", "hicv2")
TRUE_GAP_NS = 10_000  # packet spacing of the dense trace
WARMUP_OP = 2**32 - 1  # op index whose seed the warm-up op uses


def op_seed(seed, i):
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def system_label(cfg):
    for name, preset in icmeas.COALESCENCE_PRESETS.items():
        if cfg == preset:
            return name
    return type(cfg).__name__.removesuffix("Config").lower()


def _packets(args, kwargs, out):
    return {"packets": len(out)}


# what each public call hands to the output check and the per-layer counts
FACTS = {
    "trafficgen.gen_poisson": _packets,
    "trafficgen.gen_periodic": _packets,
    "meassim.coalesce": lambda a, k, out: {"packets": len(a[0]), "ms": out},
    "meassim.load_measurements": lambda a, k, out: {"ms": out},
    "pdmm.detect_stream": lambda a, k, out: {"report": out},
    "pad.detect_psd": lambda a, k, out: {"report": out},
    "analytic.estimate_lambda_ratio": lambda a, k, out: {"estimate": out},
}
TAGS = {
    "meassim.coalesce": lambda a, k: system_label(a[1] if len(a) > 1 else k["cfg"]),
    "cli.main": lambda a, k: "_".join(a[0][:1] + [x for x in a[0] if x in ("pdmm", "pad")]),
}


def facts_of(facts, prefix):
    return [f for name, f in facts if name == prefix or name.startswith(prefix + ".")]


def series_problems(facts):
    """Invariants every coalesced series holds on any input."""
    problems = []
    for f in facts_of(facts, "meassim.coalesce"):
        ms = f["ms"]
        if ms.total_packets() != f["packets"]:
            problems.append(f"sum(count) {ms.total_packets()} != packets {f['packets']}")
        if len(ms) > 1 and int(np.diff(ms.m_ns).min()) <= 0:
            problems.append("m is not strictly increasing")
        if len(ms) and int(ms.count.min()) < 1:
            problems.append("a measurement has count < 1")
        if "hic_abs_fired" in ms.flags:
            fired = ms.flags["hic_abs_fired"] + ms.flags["hic_pack_fired"]
            if fired != len(ms):
                problems.append(f"hic_abs_fired + hic_pack_fired {fired} != len {len(ms)}")
    return problems


def series_digest(h, ms):
    h.update(ms.m_ns.tobytes())
    h.update(ms.count.tobytes())
    h.update(json.dumps(ms.flags, sort_keys=True).encode())


def _ttd(report, window_ns):
    ttd = report.detection_time_ns
    return None if ttd is None or ttd > window_ns else ttd


class Trials:
    """One op is one seeded preset trial per system, both detectors.

    Runs through ``preset_experiment`` + ``run_experiment`` and renders the
    result file text with ``results_json``, as ``icmeas experiment`` does.
    """

    digest_ops = 8  # ops whose outputs are pinned and give the science numbers

    def __init__(self, seed, systems, attack):
        self.seed, self.systems, self.attack = seed, systems, attack

    def _trials(self, seed, window_ns):
        results = {
            system: icmeas.run_experiment(
                icmeas.preset_experiment(
                    "high-rate",
                    system,
                    seed_base=seed,
                    attack=self.attack,
                    detection_window_ns=window_ns,
                )
            )
            for system in self.systems
        }
        return results, icmeas.results_json(results)

    def op(self, i):
        return self._trials(op_seed(self.seed, i), WINDOW_NS)

    def warmup(self):
        return self._trials(op_seed(self.seed, WARMUP_OP), WARMUP_NS)

    def check(self, out, facts, warm=False):
        window_ns = WARMUP_NS if warm else WINDOW_NS
        results, _ = out
        problems = series_problems(facts)
        series = facts_of(facts, "meassim.coalesce")
        reports = {"pdmm": facts_of(facts, "pdmm.detect_stream"), "pad": facts_of(facts, "pad.detect_psd")}
        n = len(self.systems)
        if len(series) != n or any(len(r) != n for r in reports.values()):
            return problems + ["the op did not make one series and two reports per system"]
        # the calls seen inside the op must reproduce run_experiment's numbers
        for k, system in enumerate(self.systems):
            trial = results[system].trials[0]
            if icmeas.measurement_stats(series[k]["ms"]) != trial.stats:
                problems.append(f"{system}: stats differ from run_experiment's")
            for det, reps in reports.items():
                if _ttd(reps[k]["report"], window_ns) != trial.detections[det]:
                    problems.append(f"{system}: {det} detection time differs from run_experiment's")
        return problems

    def digest(self, out):
        return hashlib.sha256(out[1].encode()).hexdigest()

    def science(self, outs):
        """Detection-time medians and detection shares over the pinned ops.

        A timeout counts as the full window, ranked after every detection.
        """
        window_s = WINDOW_NS / SECOND
        values = {}
        for system in self.systems:
            for det in ("pdmm", "pad"):
                ttds = [res[system].trials[0].detections[det] for res, _ in outs]
                share = sum(t is not None for t in ttds) / len(ttds)
                secs = [window_s if t is None else t / SECOND for t in ttds]
                if self.attack:
                    values[f"ttd_s.{det}.{system}"] = statistics.median(secs)
                    values[f"detect_rate.{det}.{system}"] = share
                else:
                    values[f"fp_rate.{det}"] = share
        return values


class DenseSweep:
    """One op measures a 20 s trace with constant 10 us spacing under TIC,
    PIC, hicv1 and hicv2, then runs measurement_stats and
    estimate_lambda_ratio on each series.

    The packet timer never expires inside this trace, so nearly every HIC
    group is closed by the absolute timer: the opposite regime to the
    presets.  The trace is built once, during set-up.
    """

    digest_ops = 1
    spacing_ns = TRUE_GAP_NS
    packets = 2_000_000
    size_bytes = 500

    def __init__(self, seed):
        offset = int(np.random.default_rng(seed).integers(0, self.spacing_ns))
        self.trace = self._dense(offset, self.packets)
        self.small = self._dense(offset, WARMUP_NS // self.spacing_ns)
        self.configs = (
            icmeas.TicConfig(timer_ns=125_000),
            icmeas.PicConfig(count=10),
            icmeas.COALESCENCE_PRESETS["hicv1"],
            icmeas.COALESCENCE_PRESETS["hicv2"],
        )
        self.first_digest = None

    def _dense(self, offset, n):
        t = offset + self.spacing_ns * np.arange(n, dtype=np.int64)
        return icmeas.PacketTrace(t, np.full(n, self.size_bytes), np.zeros(n, np.uint8))

    def _sweep(self, trace):
        outs = []
        for cfg in self.configs:
            ms = icmeas.measure(trace, icmeas.TransferConfig(), cfg)
            outs.append((ms, icmeas.measurement_stats(ms), icmeas.estimate_lambda_ratio(ms)))
        return outs

    def op(self, i):
        return self._sweep(self.trace)

    def warmup(self):
        return self._sweep(self.small)

    def check(self, out, facts, warm=False):
        problems = series_problems(facts)
        if len(facts_of(facts, "meassim.coalesce")) != len(self.configs):
            problems.append("the op did not coalesce once per config")
        for ms, stats, est in out:
            if icmeas.measurement_stats(ms) != stats:
                problems.append("stats do not match the series")
            if abs(est.value_ns / self.spacing_ns - 1.0) > 1e-3:
                problems.append(f"lambda estimate {est.value_ns} ns is off the 10 us spacing")
        # every op sees the same trace, so every op must give the same outputs
        if not warm:
            digest = self.digest(out)
            if self.first_digest is None:
                self.first_digest = digest
            elif digest != self.first_digest:
                problems.append("outputs differ from the first op on the same trace")
        return problems

    def digest(self, out):
        h = hashlib.sha256()
        for ms, stats, est in out:
            series_digest(h, ms)
            h.update(repr((stats, est.value_ns)).encode())
        return h.hexdigest()

    def science(self, outs):
        return {}


class CliFiles:
    """One op calls ``cli.main`` in-process for gen -> measure -> stats ->
    detect pdmm -> detect pad, with files in a scratch directory of the
    checkout.  The only workload that goes through the CSV save/load layer.
    """

    digest_ops = 4
    # 5 s traces rather than the 20 s default: four times the ops per run, so
    # the run median is steady on a noisy 2-core host; the file layer's share
    # of an op is the same
    duration_s = "5"
    files = ("trace.csv", "m.csv", "m.csv.json", "pdmm.json", "pad.json")

    def __init__(self, seed, workdir):
        self.seed, self.workdir = seed, workdir

    def _commands(self, seed, duration_s, tag):
        d = os.path.join(self.workdir, tag)
        os.makedirs(d, exist_ok=True)
        p = {f: os.path.join(d, f) for f in self.files}
        argvs = [
            ["gen", "--preset", "high-rate", "--seed", str(seed), "--duration-s", duration_s, "--out", p["trace.csv"]],
            ["measure", "--trace", p["trace.csv"], "--system", "hicv1", "--out", p["m.csv"]],
            ["stats", "--measurements", p["m.csv"]],
            ["detect", "--detector", "pdmm", "--measurements", p["m.csv"], "--out", p["pdmm.json"]],
            ["detect", "--detector", "pad", "--measurements", p["m.csv"], "--out", p["pad.json"]],
        ]
        codes, stdout = [], []
        for argv in argvs:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                codes.append(cli.main(argv))
            stdout.append(buf.getvalue())
        return {"dir": d, "paths": p, "codes": codes, "stdout": stdout}

    def op(self, i):
        return self._commands(op_seed(self.seed, i), self.duration_s, f"op{i}")

    def warmup(self):
        return self._commands(op_seed(self.seed, WARMUP_OP), str(WARMUP_NS / SECOND), "warmup")

    def check(self, out, facts, warm=False):
        problems = series_problems(facts)
        if out["codes"] != [0] * 5:
            problems.append(f"exit codes {out['codes']}")
        made = facts_of(facts, "meassim.coalesce")
        loaded = facts_of(facts, "meassim.load_measurements")
        if len(made) != 1 or len(loaded) != 3:
            return problems + ["expected one measure and three measurement loads"]
        ms = made[0]["ms"]
        if any(f["ms"] != ms for f in loaded):
            problems.append("measurements changed on the file round trip")
        if json.loads(out["stdout"][2]) != vars(icmeas.measurement_stats(ms)):
            problems.append("stats output does not match the measured series")
        return problems

    def digest(self, out):
        h = hashlib.sha256()
        for f in self.files:
            with open(out["paths"][f], "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
        h.update(out["stdout"][2].encode())
        return h.hexdigest()

    def science(self, outs):
        return {}


WORKLOADS = {
    "injected": lambda seed, workdir: Trials(seed, SYSTEMS, attack=True),
    "background": lambda seed, workdir: Trials(seed, ("hicv1",), attack=False),
    "dense-sweep": lambda seed, workdir: DenseSweep(seed),
    "cli-files": lambda seed, workdir: CliFiles(seed, workdir),
}
