"""Interrupt-coalescence measurement toolkit.

Simulates how NIC interrupt coalescing turns packet arrivals into interrupt
timestamps, models the resulting inter-arrival distributions analytically,
and detects periodic traffic injected into a Poisson background with a
histogram-deviation detector and a spectral-density detector.
"""

from types import ModuleType as _ModuleType

from .analytic import (
    GapDistParams,
    LambdaEstimate,
    estimate_lambda_ratio,
    estimate_lambda_single_pairs,
    mean_shifted_exp,
    mean_trunc_exp,
    mixture_density,
    pdf_shifted_erlang,
    pdf_shifted_exp,
    pdf_trunc_exp,
)
from .errors import ConfigError, IcmeasError, InsufficientDataError, PreconditionError
from .harness import (
    COALESCENCE_PRESETS,
    TRAFFIC_PRESETS,
    ExperimentConfig,
    ExperimentResult,
    MeasurementStats,
    TrialResult,
    config_from_dict,
    config_to_dict,
    emit_results,
    measurement_stats,
    preset_experiment,
    results_csv,
    results_json,
    run_experiment,
    run_systems,
    trial_seeds,
)
from .meassim import (
    CoalescenceConfig,
    HicConfig,
    MeasurementSeries,
    PicConfig,
    TicConfig,
    TransferConfig,
    apply_transfer,
    coalesce,
    load_measurements,
    measure,
    save_measurements,
)
from .pad import PadConfig, detect_psd, periodogram, rasterize
from .pdmm import (
    DetectionReport,
    PdmmConfig,
    closed_form_chi_square,
    detect_stream,
    deviation_histogram,
    min_detectable_deviation,
    pearson_chi_square,
)
from .trafficgen import (
    AttackConfig,
    PacketTrace,
    PoissonConfig,
    gen_periodic,
    gen_poisson,
    load_trace,
    merge,
    save_trace,
)

__version__ = "0.1.0"

# every public name imported above, in sorted order; the benchmark tracer
# wraps the functions it lists
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
