"""Benchmark of the icmeas pipeline: one workload per run, closed loop.

Run from the root of a checkout:

    python3 bench/run.py --workload injected --seed 0 --seconds 20 --trace 0

Set-up builds the workload's inputs from --seed, runs one short warm-up op,
checks its output and runs the benchmark's self-checks.  Then ops run back
to back for --seconds (and at least until the ops whose outputs are pinned
have run).  Every op's outputs are checked; a failed op makes the run exit 1.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced and
traced ops and reports per-layer metrics from the traced ones.  The last
line of stdout is one JSON object {correct, attempted, failed, metrics}; the
full record, with the environment and raw op times, goes to .bench_out/ in
the checkout.
"""

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:  # before numpy loads, so every run is single-threaded
    os.environ[_var] = "1"

import argparse
import glob
import hashlib
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SPEC = ROOT / "BENCHMARK.json"
PINS = Path(__file__).resolve().parent / "pins.json"
SETUP_PROBES = 5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_package():
    """Import icmeas from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "icmeas" / "__init__.py").is_file():
        raise SystemExit(f"bench: no icmeas package under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import icmeas

    if Path(icmeas.__file__).resolve().parent != (src / "icmeas").resolve():
        raise SystemExit(f"bench: imported icmeas from {icmeas.__file__}, not {src}")
    return icmeas


def corrupted(facts):
    """The facts with one count of the first coalesced series raised by one."""
    out, done = [], False
    for name, fact in facts:
        if not done and name.startswith("meassim.coalesce"):
            ms = fact["ms"]
            count = ms.count.copy()
            count[len(count) // 2] += 1
            fact = {**fact, "ms": type(ms)(ms.m_ns, count, dict(ms.flags))}
            done = True
        out.append((name, fact))
    return out


def prepare(args):
    """Everything between interpreter start and the first timed op."""
    icmeas = import_package()
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"bench: unknown workload {args.workload!r}")
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    tracer = tracing.Tracer(icmeas, workloads.FACTS, workloads.TAGS)
    tracer.install()
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    out, _, facts = tracer.run_op(-1, True, wl.warmup)
    problems = wl.check(out, facts, warm=True)
    if not wl.check(out, corrupted(facts), warm=True):
        problems.append("self-check: an op with one corrupted count passed the check")
    problems += [f"self-check: {p}" for p in tracing.check_self_time()]
    tracer.spans.clear()
    if problems:
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
        raise SystemExit("bench: set-up failed: " + "; ".join(problems))
    return tracer, wl, workdir


def probe_setup(args, host):
    """Time one fresh interpreter from spawn to the point where it would
    start its first timed op; returns (host-corrected s, raw s)."""
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed), "--setup-probe"]
    host.sample()
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
        ready = child.stdout.readline().strip() == "ready"
        t1 = time.perf_counter()
        child.stdout.read()
    host.sample()
    if not ready or child.returncode != 0:
        raise SystemExit("bench: set-up probe failed")
    return (t1 - t0) / host.factor(len(host.times) - 2), t1 - t0


def env_record(seed):
    def read(path):
        try:
            with open(path, encoding="utf-8") as f:
                return f.read().strip()
        except OSError:
            return None

    import numpy
    import scipy

    cpuinfo = dict(
        (k.strip(), v.strip())
        for k, _, v in (line.partition(":") for line in (read("/proc/cpuinfo") or "").splitlines())
        if v
    )
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind, size = (read(f"{index}/{x}") for x in ("level", "type", "size"))
        caches[f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")] = size
    commit = None
    if (ROOT / ".git").exists():
        try:
            got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
            commit = got.stdout.strip() if got.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "icmeas").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpuinfo.get("model name", platform.processor() or None),
        "cpu_cache": caches or cpuinfo.get("cache size"),
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "seed": seed,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def main(argv=None):
    args = parse_args(argv)
    tracer, wl, workdir = prepare(args)
    try:
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        return measure(args, tracer, wl)
    finally:
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, tracer, wl):
    import metrics as mt

    pins = json.loads(PINS.read_text(encoding="utf-8"))
    pinned = pins["ops"].get(args.workload) if args.seed == pins["seed"] else None

    host = mt.HostSpeed()
    ops, kept, digests, failures, probes = [], [], [], [], []
    n_probes = 0 if args.trace else SETUP_PROBES
    probe_s = 0.0  # wall time spent in set-up probes, left out of ops_per_s

    def probe():
        nonlocal probe_s
        t0 = time.perf_counter()
        probes.append(probe_setup(args, host))
        probe_s += time.perf_counter() - t0

    t_run = time.perf_counter()
    deadline = t_run + args.seconds
    min_ops = max(wl.digest_ops, 2 * args.trace)  # a traced run needs a traced op
    i = 0
    while i < min_ops or time.perf_counter() < deadline:
        # set-up probes are spread over the run: the host's slow spells last
        # seconds, so back-to-back probes would all land in the same one
        if len(probes) < n_probes and time.perf_counter() >= t_run + len(probes) * args.seconds / n_probes:
            probe()
        traced = bool(args.trace) and i % 2 == 1
        host.sample()
        ref = len(host.times) - 1  # the next sample follows the op, whatever comes next
        try:
            out, op_s, facts = tracer.run_op(i, traced, wl.op, i)
            problems = wl.check(out, facts)
            if i < wl.digest_ops:
                digests.append(wl.digest(out))
                kept.append(out)
                if pinned is not None and digests[-1] != pinned[i]:
                    problems.append("outputs differ from the pinned digest")
            ops.append({"i": i, "op_s": op_s, "traced": traced, "ref": ref, "counts": mt.op_counts(facts)})
            if isinstance(out, dict) and "dir" in out:
                shutil.rmtree(out["dir"])
            del out, facts
        except Exception as exc:  # one broken op must not stop the run
            traceback.print_exc()
            problems = [f"raised {exc!r}"]
        if problems:
            failures.append({"i": i, "problems": problems})
            print(f"bench: op {i} failed: {'; '.join(problems)}", file=sys.stderr)
        i += 1
    host.sample()
    while len(probes) < n_probes:
        probe()

    factors = [host.factor(o["ref"]) for o in ops]
    science = wl.science(kept)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env_record(args.seed),
        "op_s": [o["op_s"] for o in ops],
        "traced": [o["traced"] for o in ops],
        "host_factor": factors,
        "setup_raw_s": [raw for _, raw in probes],
        "digests": digests,
        "science": science,
        "failures": failures,
    }
    if args.trace:
        metrics, record["layers"] = mt.per_layer(tracer.spans, ops, factors, science)
        spans = [[s[0], s[1] - t_run, s[2] - t_run, s[3], s[4]] for s in tracer.spans]
        (OUT_DIR / f"{args.workload}-seed{args.seed}-spans.json").write_text(json.dumps(spans))
    else:
        setup_s = statistics.median(norm for norm, _ in probes)
        elapsed_s = time.perf_counter() - t_run - probe_s
        metrics, record["raw"] = mt.end_to_end(ops, factors, elapsed_s, setup_s)
        _, pct, beyond = mt.tail(record["op_s"])
        record["tail"] = {"percentile": pct, "beyond": beyond, "samples": len(ops)}
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(units):
        raise SystemExit(f"bench: metrics {sorted(set(metrics) ^ set(units))} disagree with {SPEC.name}")
    record["metrics"] = metrics
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n"
    )

    print("env " + json.dumps(record["env"], sort_keys=True))
    print(f"{args.workload}: {len(ops)} ops, {len(failures)} failed")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6g} {units[name]}")
    for name, value in record.get("raw", {}).items():
        print(f"  raw {name:30s} {value:14.6g}")
    if "tail" in record:
        print("  tail " + json.dumps(record["tail"]))
    for layer, row in record.get("layers", {}).items():
        print(f"  self time {layer:12s} {row['self_ms_p50']:10.2f} ms  {100 * row['share']:5.1f}% of an op")
    if science:
        print("  science " + json.dumps(science, sort_keys=True))
    result = {
        "correct": not failures,
        "attempted": i,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
