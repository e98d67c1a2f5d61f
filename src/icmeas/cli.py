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
    measurement_stats,
    preset_experiment,
    preset_traffic,
    run_detector,
    run_systems,
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


# defaults of the experiment flags that only a preset run takes
_PRESET_RUN = {
    "systems": "hicv1,hicv2",
    "detectors": "pdmm,pad",
    "no_attack": False,
    "window_s": 20.0,
}
# defaults of the gen flags that only a trace without --preset takes
_CUSTOM_TRACE = {
    "mean_gap_us": None,
    "size_bytes": 500,
    "attack_period_us": None,
    "attack_size_bytes": 1500,
}
# each detector's threshold flag, named as its config key
_DETECTOR_FLAG = {"pdmm": "threshold", "pad": "peak_factor"}


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems as config errors."""

    def error(self, message):
        raise ConfigError(message)


def _int64(text: str) -> int:
    """argparse type of the integer flags: an int that fits int64, like a config file's."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if not -(2**63) <= value < 2**63:
        raise argparse.ArgumentTypeError(f"must fit int64, not {text}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="icmeas", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a packet trace", parents=[])
    gen.add_argument("--preset", choices=sorted(TRAFFIC_PRESETS))
    gen.add_argument("--mean-gap-us", type=float, help="background exponential mean")
    # the _CUSTOM_TRACE flags (defaults there): a preset sets these itself
    gen.add_argument("--size-bytes", type=_int64)
    gen.add_argument("--attack-period-us", type=float)
    gen.add_argument("--attack-size-bytes", type=_int64)
    gen.add_argument("--attack-jitter-us", type=float)
    gen.add_argument("--no-attack", action="store_true")
    gen.add_argument("--duration-s", type=float, default=20.0)
    gen.add_argument("--seed", type=_int64, default=0)
    gen.add_argument("--out", required=True)

    meas = sub.add_parser("measure", help="simulate measurement of a trace")
    meas.add_argument("--trace", required=True)
    meas.add_argument("--system", choices=sorted(COALESCENCE_PRESETS))
    meas.add_argument("--pack-us", type=float, help="dual-timer per-packet timer")
    meas.add_argument("--abs-us", type=float, help="dual-timer absolute timer")
    meas.add_argument("--tic-us", type=float, help="fixed-timer coalescing")
    meas.add_argument("--pic-count", type=_int64, help="count-based coalescing")
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
    # the _PRESET_RUN flags (defaults there): a config file sets these itself
    exp.add_argument("--systems")
    exp.add_argument("--detectors")
    exp.add_argument("--no-attack", action="store_true", default=None)
    exp.add_argument("--window-s", type=float)
    exp.add_argument("--trials", type=_int64, help="default 1, or the config file's")
    exp.add_argument("--seed", type=_int64, help="default 0, or the config file's seed_base")
    exp.add_argument("--out", required=True, help="base path for .json and .csv")

    st = sub.add_parser("stats", help="summarize a measurement file")
    st.add_argument("--measurements", required=True)
    return parser


def _flags(keys) -> str:
    return ", ".join("--" + k.replace("_", "-") for k in keys)


def _ns(value: float, unit: int, flag: str) -> int:
    """A time flag given in units of `unit` ns, as integer nanoseconds."""
    ns = value * unit
    if not math.isfinite(ns) or abs(ns) >= 2**63:
        raise ConfigError(f"{flag} must be finite and fit int64 nanoseconds, not {value!r}")
    return int(round(ns))


def _cmd_gen(args) -> int:
    duration_ns = _ns(args.duration_s, SECOND, "--duration-s")
    given = {k: getattr(args, k) for k in _CUSTOM_TRACE if getattr(args, k) is not None}
    if args.preset is not None:
        if given:
            raise ConfigError(f"{_flags(given)} cannot be combined with --preset")
        background, attack = preset_traffic(args.preset, duration_ns, seed=args.seed)
    elif args.mean_gap_us is not None:
        opts = {**_CUSTOM_TRACE, **given}
        attack_flags = [
            k for k in ("attack_size_bytes", "attack_jitter_us") if getattr(args, k) is not None
        ]
        if attack_flags and opts["attack_period_us"] is None and not args.no_attack:
            raise ConfigError(f"{_flags(attack_flags)} cannot be used without --attack-period-us")
        background = PoissonConfig(
            mean_gap_ns=opts["mean_gap_us"] * US,
            duration_ns=duration_ns,
            seed=args.seed,
            size_bytes=opts["size_bytes"],
        )
        attack = (
            AttackConfig(
                period_ns=_ns(opts["attack_period_us"], US, "--attack-period-us"),
                duration_ns=duration_ns,
                size_bytes=opts["attack_size_bytes"],
            )
            if opts["attack_period_us"] is not None
            else None
        )
    else:
        raise ConfigError("gen needs --preset or --mean-gap-us")
    if args.no_attack:
        attack = None  # the jitter is not checked against an attack that is not sent
    elif attack is not None and args.attack_jitter_us is not None:
        attack = dataclasses.replace(attack, jitter_stddev_ns=args.attack_jitter_us * US)
    trace = build_trace(background, attack)
    save_trace(trace, args.out)
    print(f"wrote {len(trace)} packets to {args.out}")
    return 0


def _coalescence_from_args(args):
    if (args.pack_us is None) != (args.abs_us is None):
        missing = "--abs-us" if args.abs_us is None else "--pack-us"
        raise ConfigError(f"--pack-us and --abs-us go together: {missing} is missing")
    choices = {
        "--system": args.system,
        "--pack-us/--abs-us": args.pack_us,
        "--tic-us": args.tic_us,
        "--pic-count": args.pic_count,
    }
    given = [flag for flag, value in choices.items() if value is not None]
    if len(given) > 1:
        raise ConfigError(f"measure takes one coalescence choice, not {' and '.join(given)}")
    if args.system is not None:
        return COALESCENCE_PRESETS[args.system]
    if args.pack_us is not None:
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
    try:
        series = measure(trace, TransferConfig(bit_rate_bps=args.rate_gbps * 1e9), cfg)
    except PreconditionError as exc:  # a time past the int64 range
        raise PreconditionError(f"{args.trace}: {exc}") from None
    tied = series.m_ns[1:] == series.m_ns[:-1]  # only count coalescing can tie
    if tied.any():
        per = "packet" if cfg.count == 1 else f"{cfg.count} packets"
        raise PreconditionError(
            f"{args.trace}: measurement timestamps must be strictly increasing, but arrivals "
            f"tie at t_ns={series.m_ns[tied.argmax()]} after the transfer delay: a "
            f"--pic-count of {cfg.count} cannot give one interrupt per {per} there"
        )
    save_measurements(series, args.out, config=config_to_dict(cfg))
    print(f"wrote {len(series)} measurements to {args.out}")
    return 0


def _detector_config(args):
    """The detector's preset, overlaid with its --config section and flag."""
    key = _DETECTOR_FLAG[args.detector]
    for other, other_key in _DETECTOR_FLAG.items():
        if other != args.detector and getattr(args, other_key) is not None:
            raise ConfigError(f"{_flags([other_key])} is a flag of --detector {other}")
    preset = getattr(ExperimentConfig, args.detector)
    d = config_to_dict(preset)
    if args.config is not None:
        doc = load_config_json(args.config)
        section = doc.get(args.detector, {}) if isinstance(doc, dict) else None
        if not isinstance(section, dict):
            raise ConfigError(f"{args.config}: the {args.detector} section must be an object")
        d.update(section)
    if getattr(args, key) is not None:
        d[key] = getattr(args, key)
    return config_from_dict(d, type(preset))


def _cmd_detect(args) -> int:
    cfg = _detector_config(args)
    report = run_detector(args.detector, load_measurements(args.measurements), cfg)
    text = json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_experiment(args) -> int:
    # --trials and --seed override a config file only when given
    runs = {k: v for k, v in (("trials", args.trials), ("seed_base", args.seed)) if v is not None}
    given = {k: getattr(args, k) for k in _PRESET_RUN if getattr(args, k) is not None}
    if args.config is not None:
        if given:
            raise ConfigError(f"{_flags(given)} cannot be combined with --config")
        cfg = dataclasses.replace(config_from_dict(load_config_json(args.config)), **runs)
        systems = {"config": cfg.coalescence}
    elif args.preset is not None:
        opts = {**_PRESET_RUN, **given}
        names = [s for s in opts["systems"].split(",") if s]
        if not names:
            raise ConfigError("--systems names no system")
        if len(set(names)) < len(names):
            raise ConfigError(f"--systems must not repeat a system: {opts['systems']}")
        cfg = preset_experiment(
            traffic=args.preset,
            system=names[0],
            attack=not opts["no_attack"],
            detectors=tuple(d for d in opts["detectors"].split(",") if d),
            detection_window_ns=_ns(opts["window_s"], SECOND, "--window-s"),
            **runs,
        )
        unknown = [s for s in names if s not in COALESCENCE_PRESETS]
        if unknown:  # fail before any trial runs
            raise ConfigError(f"unknown coalescence preset: {unknown[0]!r}")
        systems = {s: COALESCENCE_PRESETS[s] for s in names}
    else:
        raise ConfigError("experiment needs --preset or --config")
    results = run_systems(cfg, systems)
    emit_results(results, args.out)
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
