"""Command line front end.

Subcommands map onto the pipeline stages: ``gen`` writes packet traces,
``measure`` turns a trace into a measurement series, ``detect`` runs one
detector over a measurement file, ``experiment`` runs the seeded end-to-end
pipeline across systems, and ``stats`` summarizes a measurement file.

Exit codes: 0 success, 1 configuration error, 2 insufficient data, 3 I/O
failure, 4 invalid input file.
"""

import argparse
import dataclasses
import json
import math
import sys

from .errors import ConfigError, InsufficientDataError, PreconditionError
from .harness import (
    COALESCENCE_PRESETS,
    DETECTOR_NAMES,
    SECOND,
    TRAFFIC_PRESETS,
    US,
    ExperimentConfig,
    build_trace,
    config_from_dict,
    config_to_dict,
    emit_results,
    load_config_json,
    load_experiment_config,
    measurement_stats,
    preset_experiment,
    preset_traffic,
    run_detector,
    run_experiment,
)
from .meassim import (
    HicConfig,
    PicConfig,
    TicConfig,
    TransferConfig,
    load_measurements,
    measure,
    save_measurements,
)
from .trafficgen import AttackConfig, PoissonConfig, load_trace, save_trace


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems as config errors."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="icmeas", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a packet trace", parents=[])
    gen.add_argument("--preset", choices=sorted(TRAFFIC_PRESETS))
    gen.add_argument("--mean-gap-us", type=float, help="background exponential mean")
    gen.add_argument("--size-bytes", type=int, default=500)
    gen.add_argument("--attack-period-us", type=float)
    gen.add_argument("--attack-size-bytes", type=int, default=1500)
    gen.add_argument("--attack-jitter-us", type=float, default=0.0)
    gen.add_argument("--no-attack", action="store_true")
    gen.add_argument("--duration-s", type=float, default=20.0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)

    meas = sub.add_parser("measure", help="simulate measurement of a trace")
    meas.add_argument("--trace", required=True)
    meas.add_argument("--system", choices=sorted(COALESCENCE_PRESETS))
    meas.add_argument("--pack-us", type=float, help="dual-timer per-packet timer")
    meas.add_argument("--abs-us", type=float, help="dual-timer absolute timer")
    meas.add_argument("--tic-us", type=float, help="fixed-timer coalescing")
    meas.add_argument("--pic-count", type=int, help="count-based coalescing")
    meas.add_argument("--rate-gbps", type=float, default=1.0)
    meas.add_argument("--out", required=True)

    det = sub.add_parser("detect", help="run one detector on measurements")
    det.add_argument("--detector", choices=DETECTOR_NAMES, required=True)
    det.add_argument("--measurements", required=True)
    det.add_argument("--config", help="JSON file with a pdmm or pad section")
    det.add_argument("--threshold", type=float, help="histogram detector threshold")
    det.add_argument("--peak-factor", type=float, help="spectral detector threshold")
    det.add_argument("--out", help="write the report here instead of stdout")

    exp = sub.add_parser("experiment", help="run the seeded end-to-end pipeline")
    exp.add_argument("--preset", choices=sorted(TRAFFIC_PRESETS))
    exp.add_argument("--config", help="JSON experiment config file")
    exp.add_argument("--systems", default="hicv1,hicv2")
    exp.add_argument("--detectors", default="pdmm,pad")
    exp.add_argument("--no-attack", action="store_true")
    exp.add_argument("--window-s", type=float, default=20.0)
    exp.add_argument("--trials", type=int, help="default 1, or the config file's")
    exp.add_argument("--seed", type=int, help="default 0, or the config file's seed_base")
    exp.add_argument("--out", required=True, help="base path for .json and .csv")

    st = sub.add_parser("stats", help="summarize a measurement file")
    st.add_argument("--measurements", required=True)
    return parser


def _ns(value: float, unit: int, flag: str) -> int:
    """A time flag given in units of `unit` ns, as integer nanoseconds."""
    ns = value * unit
    if not math.isfinite(ns) or abs(ns) >= 2**63:
        raise ConfigError(f"{flag} must be finite and fit int64 nanoseconds, not {value!r}")
    return int(round(ns))


def _cmd_gen(args) -> int:
    duration_ns = _ns(args.duration_s, SECOND, "--duration-s")
    if args.preset is not None:
        background, attack = preset_traffic(args.preset, duration_ns, seed=args.seed)
    elif args.mean_gap_us is not None:
        background = PoissonConfig(
            mean_gap_ns=args.mean_gap_us * US,
            duration_ns=duration_ns,
            seed=args.seed,
            size_bytes=args.size_bytes,
        )
        attack = (
            AttackConfig(
                period_ns=_ns(args.attack_period_us, US, "--attack-period-us"),
                duration_ns=duration_ns,
                size_bytes=args.attack_size_bytes,
            )
            if args.attack_period_us is not None
            else None
        )
    else:
        raise ConfigError("gen needs --preset or --mean-gap-us")
    if attack is not None and not args.no_attack:
        attack = dataclasses.replace(attack, jitter_stddev_ns=args.attack_jitter_us * US)
    else:
        attack = None  # the jitter is not checked against an attack that is not sent
    trace = build_trace(background, attack)
    save_trace(trace, args.out)
    print(f"wrote {len(trace)} packets to {args.out}")
    return 0


def _coalescence_from_args(args):
    if args.system is not None:
        return COALESCENCE_PRESETS[args.system]
    if args.pack_us is not None and args.abs_us is not None:
        return HicConfig(
            packet_timer_ns=_ns(args.pack_us, US, "--pack-us"),
            absolute_timer_ns=_ns(args.abs_us, US, "--abs-us"),
        )
    if args.tic_us is not None:
        return TicConfig(timer_ns=_ns(args.tic_us, US, "--tic-us"))
    if args.pic_count is not None:
        return PicConfig(count=args.pic_count)
    raise ConfigError("measure needs --system, --pack-us/--abs-us, --tic-us, or --pic-count")


def _cmd_measure(args) -> int:
    cfg = _coalescence_from_args(args)
    trace = load_trace(args.trace)
    series = measure(trace, TransferConfig(bit_rate_bps=args.rate_gbps * 1e9), cfg)
    save_measurements(series, args.out, config=config_to_dict(cfg))
    print(f"wrote {len(series)} measurements to {args.out}")
    return 0


def _detector_config(args):
    """The detector's preset, overlaid with its --config section and flag."""
    preset = getattr(ExperimentConfig, args.detector)
    d = config_to_dict(preset)
    if args.config is not None:
        doc = load_config_json(args.config)
        section = doc.get(args.detector, {}) if isinstance(doc, dict) else None
        if not isinstance(section, dict):
            raise ConfigError(f"{args.config}: the {args.detector} section must be an object")
        d.update(section)
    key = "threshold" if args.detector == "pdmm" else "peak_factor"  # flag and config key
    if getattr(args, key) is not None:
        d[key] = getattr(args, key)
    return config_from_dict(d, type(preset))


def _cmd_detect(args) -> int:
    series = load_measurements(args.measurements)
    report = run_detector(args.detector, series, _detector_config(args))
    text = json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_experiment(args) -> int:
    detectors = tuple(d for d in args.detectors.split(",") if d)
    window_ns = _ns(args.window_s, SECOND, "--window-s")
    results = {}
    # --trials and --seed override a config file only when given
    runs = {k: v for k, v in (("trials", args.trials), ("seed_base", args.seed)) if v is not None}
    if args.config is not None:
        cfg = dataclasses.replace(load_experiment_config(args.config), **runs)
        results["config"] = run_experiment(cfg)
    elif args.preset is not None:
        systems = [s for s in args.systems.split(",") if s]
        if not systems:
            raise ConfigError("--systems names no system")
        for system in systems:
            cfg = preset_experiment(
                traffic=args.preset,
                system=system,
                attack=not args.no_attack,
                detectors=detectors,
                detection_window_ns=window_ns,
                **runs,
            )
            results[system] = run_experiment(cfg)
    else:
        raise ConfigError("experiment needs --preset or --config")
    emit_results(results, json_path=args.out + ".json", csv_path=args.out + ".csv")
    for name in sorted(results):
        for det, agg in results[name].aggregate.items():
            med = agg["median_ttd_ns"]
            shown = "-" if med is None else f"{med / SECOND:.3f}s"
            print(f"{name} {det}: median_ttd={shown} rate={agg['detection_rate']:.2f}")
    print(f"wrote {args.out}.json and {args.out}.csv")
    return 0


def _cmd_stats(args) -> int:
    series = load_measurements(args.measurements)
    stats = measurement_stats(series)
    sys.stdout.write(
        json.dumps(dataclasses.asdict(stats), sort_keys=True, indent=2) + "\n"
    )
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "measure": _cmd_measure,
    "detect": _cmd_detect,
    "experiment": _cmd_experiment,
    "stats": _cmd_stats,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except InsufficientDataError as exc:
        print(f"insufficient data: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except PreconditionError as exc:
        print(f"invalid input file: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
