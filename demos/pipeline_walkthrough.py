"""Walk one seeded run through the full pipeline, stage by stage.

Generates a high-rate Poisson background with a 400 us periodic injection,
measures it under the hicv1 coalescing preset, prints the stream statistics,
then runs both detectors and reports what each saw.

Run:  python3 demos/pipeline_walkthrough.py [seed]
"""

import sys
from dataclasses import replace

from icmeas import (
    COALESCENCE_PRESETS,
    TRAFFIC_PRESETS,
    PadConfig,
    PdmmConfig,
    TransferConfig,
    detect_psd,
    detect_stream,
    gen_periodic,
    gen_poisson,
    measure,
    measurement_stats,
    merge,
    rasterize,
)

SECOND = 1_000_000_000


def main(seed: int = 7) -> None:
    duration_ns = 20 * SECOND
    background_cfg, attack_cfg = TRAFFIC_PRESETS["high-rate"]

    background = gen_poisson(replace(background_cfg, duration_ns=duration_ns, seed=seed))
    injection = gen_periodic(replace(attack_cfg, duration_ns=duration_ns))
    trace = merge(background, injection)
    print(f"trace: {len(background)} background + {len(injection)} injected "
          f"packets over {duration_ns / SECOND:.0f}s")

    series = measure(trace, TransferConfig(), COALESCENCE_PRESETS["hicv1"])
    stats = measurement_stats(series)
    print(f"measured under hicv1: {len(series)} interrupts, "
          f"{stats.rate_per_s:,.0f}/s, mean gap {stats.mean_gap_us:.1f} us, "
          f"gap variance {stats.var_gap_us2:,.0f} us^2, "
          f"mean group size {stats.mean_count:.2f}")

    report = detect_stream(series, PdmmConfig())
    if report.detected:
        print(f"histogram detector: fired at {report.detection_time_ns / SECOND:.2f}s "
              f"after {report.blocks_processed} blocks")
    else:
        print(f"histogram detector: no detection in {report.blocks_processed} blocks")

    pad = PadConfig()
    samples = rasterize(series, pad.sample_interval_ns,
                        int(duration_ns // pad.sample_interval_ns))
    report = detect_psd(samples, pad)
    if report.detected:
        print(f"spectral detector: fired at {report.detection_time_ns / SECOND:.2f}s")
    else:
        # the 300 us absolute timer smears the injection's spectral lines
        print("spectral detector: no detection (typical under hicv1)")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 7)
