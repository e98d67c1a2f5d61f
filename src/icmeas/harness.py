"""Seeded experiment pipeline: traffic, measurement, detectors, result files.

Ties the package together: builds background and attack traces from named
presets or explicit configs, pushes them through the transfer model and a
coalescence scheme, runs the histogram and spectral detectors over the
measurement stream, and aggregates per-trial detection times into result
tables serialized as JSON and CSV.
"""

import dataclasses
import json
import types
from dataclasses import dataclass
from typing import get_args, get_origin

import numpy as np

from .errors import ConfigError, InsufficientDataError
from .meassim import CoalescenceConfig, HicConfig, TransferConfig, apply_transfer, coalesce
from .pad import PadConfig, detect_psd, rasterize
from .pdmm import PdmmConfig, detect_stream
from .trafficgen import AttackConfig, PoissonConfig, gen_periodic, gen_poisson, merge

US = 1000
SECOND = 1_000_000_000

DETECTOR_NAMES = ("pdmm", "pad")

# dual-timer coalescence parameter sets of the two simulated NIC generations
COALESCENCE_PRESETS = {
    "hicv1": HicConfig(packet_timer_ns=30 * US, absolute_timer_ns=300 * US),
    "hicv2": HicConfig(packet_timer_ns=33 * US, absolute_timer_ns=120 * US),
}

# traffic presets pair a Poisson background with a periodic component; rates
# are calibrated so both coalescence presets produce ~11,000 measurements/s
# and the documented variance contrast between them.  Duration and seed are
# 0 here: preset_traffic sets them per run.
TRAFFIC_PRESETS = {
    "high-rate": (
        PoissonConfig(mean_gap_ns=19_000.0, duration_ns=0, seed=0, size_bytes=500),
        AttackConfig(period_ns=400 * US, duration_ns=0, size_bytes=1500),
    ),
    "low-rate": (
        PoissonConfig(mean_gap_ns=27_000.0, duration_ns=0, seed=0, size_bytes=500),
        AttackConfig(period_ns=800 * US, duration_ns=0, size_bytes=1500),
    ),
    # period below the histogram cutoffs; detectable through its multiples
    "harmonic": (
        PoissonConfig(mean_gap_ns=19_000.0, duration_ns=0, seed=0, size_bytes=500),
        AttackConfig(period_ns=150 * US, duration_ns=0, size_bytes=1500),
    ),
}

# detector parameters calibrated on the presets above (false-positive rate
# and detection-time measurements over seeded background/attack ensembles)
PDMM_PRESET = PdmmConfig(
    low_cutoff_ns=1000 * US,
    high_cutoff_ns=5000 * US,
    max_order=80,
    block_len=2000,
    sub_bins=200,
    threshold=0.05,
    bin_width_ns=1 * US,
)
PAD_PRESET = PadConfig(
    sample_interval_ns=100 * US,
    window=8192,
    segments=8,
    peak_factor=8.0,
    min_freq_hz=200.0,
    max_freq_hz=3000.0,
)


@dataclass(frozen=True)
class MeasurementStats:
    """First-order gap moments and throughput of a measurement series."""

    mean_gap_us: float
    var_gap_us2: float
    mean_count: float
    rate_per_s: float


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: traffic x transfer x coalescence x detectors x trials."""

    background: PoissonConfig
    attack: AttackConfig | None = None
    transfer: TransferConfig = TransferConfig()
    coalescence: CoalescenceConfig = COALESCENCE_PRESETS["hicv1"]
    detectors: tuple[str, ...] = DETECTOR_NAMES
    pdmm: PdmmConfig = PDMM_PRESET
    pad: PadConfig = PAD_PRESET
    detection_window_ns: int = 20 * SECOND
    trials: int = 1
    seed_base: int = 0

    def __post_init__(self):
        if self.detection_window_ns <= 0:
            raise ConfigError("detection_window_ns must be positive")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.seed_base < 0:
            raise ConfigError("seed_base must be non-negative")
        bad = [d for d in self.detectors if d not in DETECTOR_NAMES]
        if bad:
            raise ConfigError(f"unknown detectors: {bad}")
        if len(set(self.detectors)) < len(self.detectors):
            raise ConfigError(f"detectors must not repeat: {list(self.detectors)}")


@dataclass(frozen=True)
class TrialResult:
    """Per-trial detection times (ns, None = timeout) and stream stats."""

    seed: int
    stats: MeasurementStats
    detections: dict

    def __post_init__(self):
        for name, ttd in self.detections.items():
            if ttd is not None and ttd < 0:
                raise ConfigError(f"negative detection time for {name}")


@dataclass(frozen=True)
class ExperimentResult:
    """Config echo, per-trial rows, and per-detector aggregates."""

    config: dict
    trials: tuple
    aggregate: dict


def preset_traffic(traffic: str, duration_ns: int, seed: int = 0, attack: bool = True):
    """(background, attack or None) configs of a named traffic preset."""
    if traffic not in TRAFFIC_PRESETS:
        raise ConfigError(f"unknown traffic preset: {traffic!r}")
    background, attack_cfg = TRAFFIC_PRESETS[traffic]
    background = dataclasses.replace(background, duration_ns=duration_ns, seed=seed)
    return background, dataclasses.replace(attack_cfg, duration_ns=duration_ns) if attack else None


def preset_experiment(
    traffic: str,
    system: str,
    trials: int = 1,
    seed_base: int = 0,
    attack: bool = True,
    detectors: tuple = DETECTOR_NAMES,
    detection_window_ns: int = 20 * SECOND,
) -> ExperimentConfig:
    """Build an ExperimentConfig from named traffic and coalescence presets."""
    background, attack_cfg = preset_traffic(traffic, detection_window_ns, attack=attack)
    if system not in COALESCENCE_PRESETS:
        raise ConfigError(f"unknown coalescence preset: {system!r}")
    return ExperimentConfig(
        background=background,
        attack=attack_cfg,
        coalescence=COALESCENCE_PRESETS[system],
        detectors=tuple(detectors),
        trials=trials,
        seed_base=seed_base,
        detection_window_ns=detection_window_ns,
    )


def measurement_stats(ms) -> MeasurementStats:
    """First-order gap mean/variance (us, us^2), mean group size, rate."""
    if len(ms) < 2:
        raise InsufficientDataError("need at least 2 measurements for stats")
    gaps_us = np.diff(ms.m_ns) / US
    span_s = (int(ms.m_ns[-1]) - int(ms.m_ns[0])) / SECOND
    if span_s <= 0:
        raise InsufficientDataError("measurement span must be positive")
    var = float(gaps_us.var(ddof=1)) if len(gaps_us) > 1 else 0.0
    return MeasurementStats(
        mean_gap_us=float(gaps_us.mean()),
        var_gap_us2=var,
        mean_count=float(ms.count.mean()),
        rate_per_s=(len(ms) - 1) / span_s,
    )


def trial_seeds(seed_base: int, trials: int) -> list:
    """Deterministic per-trial seeds derived from one base seed."""
    return [int(s) for s in np.random.SeedSequence(seed_base).generate_state(trials)]


def build_trace(
    background: PoissonConfig,
    attack: AttackConfig | None = None,
    transfer: TransferConfig | None = None,
):
    """The Poisson background trace, merged with the periodic attack when given.

    With a transfer config each component is delayed before the merge, so
    the result is the transferred trace in arrival order.  The background
    is passed to merge first, and merge orders packets that arrive at the
    same instant by argument order, so they go background before attack.
    A component of one packet size moves by one shift and the merge
    inserts the attack into the background, so neither sorts.
    """
    parts = [gen_poisson(background)]
    if attack is not None:
        parts.append(gen_periodic(attack))
    if transfer is not None:
        parts = [apply_transfer(p, transfer) for p in parts]
    return parts[0] if attack is None else merge(*parts)


def run_detector(name: str, ms, cfg, window_ns: int | None = None):
    """Run the detector `name` (one of DETECTOR_NAMES) with `cfg` over `ms`.

    pad rasterizes the series up to window_ns, dropping later measurements,
    or the whole series when no window is given; pdmm reads the stream as is.
    """
    if name == "pdmm":
        return detect_stream(ms, cfg)
    n_samples = None if window_ns is None else window_ns // cfg.sample_interval_ns
    return detect_psd(rasterize(ms, cfg.sample_interval_ns, n_samples), cfg)


def _run_trial(cfg: ExperimentConfig, seed: int, systems: dict) -> dict:
    window_ns = cfg.detection_window_ns
    background = dataclasses.replace(cfg.background, duration_ns=window_ns, seed=seed)
    attack = None if cfg.attack is None else dataclasses.replace(cfg.attack, duration_ns=window_ns)
    trace = build_trace(background, attack, cfg.transfer)
    series = {system: coalesce(trace, c) for system, c in systems.items()}
    del trace  # released before the detectors run
    trials = {}
    for system, ms in series.items():
        detections = {}
        for name in cfg.detectors:
            ttd = run_detector(name, ms, getattr(cfg, name), window_ns).detection_time_ns
            # a detection past the window counts as a timeout
            detections[name] = None if ttd is None or ttd > window_ns else ttd
        trials[system] = TrialResult(seed=seed, stats=measurement_stats(ms), detections=detections)
    return trials


def _aggregate(cfg: ExperimentConfig, trials: tuple) -> ExperimentResult:
    aggregate = {}
    for name in cfg.detectors:
        ttds = [t.detections[name] for t in trials]
        finite = sorted(t for t in ttds if t is not None)
        timeouts = len(ttds) - len(finite)
        if timeouts >= len(finite):
            median = None
        else:
            k = len(ttds)  # median index over all trials, timeouts at the top
            mid = (k - 1) // 2
            median = finite[mid] if k % 2 == 1 else (finite[mid] + finite[mid + 1]) // 2
        aggregate[name] = {
            "median_ttd_ns": median,
            "detection_rate": len(finite) / len(ttds),
            "timeouts": timeouts,
        }
    echo = config_to_dict(cfg)
    for name in DETECTOR_NAMES:
        if name not in cfg.detectors:
            echo[name] = None  # unused detector settings stay out of the echo
    return ExperimentResult(config=echo, trials=trials, aggregate=aggregate)


def run_systems(cfg: ExperimentConfig, systems: dict) -> dict:
    """Run cfg's trials under each {name: coalescence config}; {name: ExperimentResult}.

    Each trial seed's trace is built once, measured under every system and
    released before the detectors run.  Trial seeds derive from seed_base.
    Medians rank timeouts last: timing out in half the trials gives None.
    """
    if not systems:
        raise ConfigError("run_systems needs at least one system")
    per_seed = [_run_trial(cfg, seed, systems) for seed in trial_seeds(cfg.seed_base, cfg.trials)]
    return {
        name: _aggregate(dataclasses.replace(cfg, coalescence=c), tuple(t[name] for t in per_seed))
        for name, c in systems.items()
    }


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """run_systems under cfg's own coalescence config alone."""
    return run_systems(cfg, {"": cfg.coalescence})[""]


def results_json(results: dict) -> str:
    """Stable-order JSON for a {system_name: ExperimentResult} mapping."""
    payload = {name: dataclasses.asdict(res) for name, res in sorted(results.items())}
    return json.dumps({"systems": payload}, sort_keys=True, indent=2) + "\n"


def results_csv(results: dict) -> str:
    """Comparison table: one row per detector and stat, one column per system.

    Detection cells hold the aggregate median in nanoseconds or "-" for a
    timed-out median, mirroring the JSON numbers exactly.
    """
    systems = sorted(results.keys())
    lines = ["metric," + ",".join(systems)]
    detectors = sorted({d for res in results.values() for d in res.aggregate})
    for det in detectors:
        cells = []
        for sysname in systems:
            agg = results[sysname].aggregate.get(det)
            if agg is None or agg["median_ttd_ns"] is None:
                cells.append("-")
            else:
                cells.append(json.dumps(agg["median_ttd_ns"]))
        lines.append(f"median_ttd_ns[{det}]," + ",".join(cells))
    for stat in ("mean_gap_us", "var_gap_us2", "mean_count", "rate_per_s"):
        cells = []
        for sysname in systems:
            vals = [getattr(t.stats, stat) for t in results[sysname].trials]
            cells.append(json.dumps(float(np.median(vals))))
        lines.append(f"median_{stat}," + ",".join(cells))
    return "\n".join(lines) + "\n"


def emit_results(results: dict, out) -> None:
    """Write the JSON and CSV renderings of a results mapping to {out}.json and {out}.csv."""
    for suffix, render in ((".json", results_json), (".csv", results_csv)):
        with open(f"{out}{suffix}", "w", encoding="utf-8", newline="\n") as f:
            f.write(render(results))


def config_to_dict(obj) -> dict:
    """JSON-style data for a config dataclass; config_from_dict inverts it.

    Tuples become lists.  Every config section carries its class name under
    "type"; an ExperimentConfig, the root of a config file, does not.
    """
    d = {f.name: _plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if not isinstance(obj, ExperimentConfig):
        d["type"] = type(obj).__name__
    return d


def _plain(value):
    if dataclasses.is_dataclass(value):
        return config_to_dict(value)
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


def config_from_dict(d, cls=ExperimentConfig):
    """Build a config dataclass (by default an ExperimentConfig) from JSON data.

    Accepts what config_to_dict emits.  A section's optional "type" names its
    class and is required where the field allows several; a coalescence
    section may also be a preset name.  Missing or null keys take the
    field's default.  Unknown keys, missing required keys, unknown types and
    values that do not match the field annotations raise ConfigError.
    """
    return _decode(cls, d, "config")


def _decode(tp, value, where):
    if tp == CoalescenceConfig and isinstance(value, str):
        if value not in COALESCENCE_PRESETS:
            raise ConfigError(f"{where}: unknown coalescence preset: {value!r}")
        return COALESCENCE_PRESETS[value]
    arms = get_args(tp) if isinstance(tp, types.UnionType) else (tp,)
    arms = [a for a in arms if a is not type(None)]
    if dataclasses.is_dataclass(arms[0]):
        return _decode_section(arms, value, where)
    (tp,) = arms
    if get_origin(tp) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{where} must be a list")
        args = get_args(tp)
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(args) != len(value):
            raise ConfigError(f"{where} must hold {len(args)} entries")
        return tuple(_decode(a, v, f"{where}[{i}]") for i, (a, v) in enumerate(zip(args, value)))
    ok = isinstance(value, (int, float) if tp is float else tp)
    if not ok or (isinstance(value, bool) and tp is not bool):
        raise ConfigError(f"{where} must be {tp.__name__}, not {value!r}")
    if isinstance(value, int) and not -(2**63) <= value < 2**63:
        raise ConfigError(f"{where} must fit int64, not {value!r}")
    return value


def _decode_section(classes, value, where):
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be an object")
    by_name = {c.__name__: c for c in classes}
    kind = value.get("type", classes[0].__name__ if len(classes) == 1 else None)
    cls = by_name.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ConfigError(f"{where}: type must be one of {sorted(by_name)}, not {kind!r}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(set(value) - set(fields) - {"type"})
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown} for {kind}")
    kwargs = {}
    for name, f in fields.items():
        if value.get(name) is not None:
            kwargs[name] = _decode(f.type, value[name], f"{where}.{name}")
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"{where}: {kind} needs {name}")
    return cls(**kwargs)


def load_config_json(path):
    """The JSON document of a config file; text that is not UTF-8 JSON raises ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except ValueError as exc:  # UnicodeDecodeError or json.JSONDecodeError
        raise ConfigError(f"{path}: {exc}") from None
