"""Compare both coalescing presets side by side on the same seeded traffic.

Runs a small paired ensemble of the high-rate injection scenario under
hicv1 and hicv2 and prints the comparison table: the histogram detector is
faster on hicv1 (short packet timer, fine-grained gap structure) while the
spectral detector strongly favors hicv2 (short absolute timer keeps the
injection's spectral lines phase coherent).

Run:  python3 demos/cross_system_comparison.py [trials]
"""

import sys

from icmeas import COALESCENCE_PRESETS, preset_experiment, results_csv, run_systems

SECOND = 1_000_000_000


def main(trials: int = 3) -> None:
    # one trace per seed, measured under both systems
    cfg = preset_experiment("high-rate", "hicv1", trials=trials, seed_base=600)
    systems = {s: COALESCENCE_PRESETS[s] for s in ("hicv1", "hicv2")}
    results = run_systems(cfg, systems)
    print(f"ran {trials} trials under {' and '.join(systems)}")

    print()
    print(results_csv(results))
    for system, res in sorted(results.items()):
        for det, agg in sorted(res.aggregate.items()):
            med = agg["median_ttd_ns"]
            shown = "timeout" if med is None else f"{med / SECOND:.2f}s"
            print(f"{system} {det}: median detection {shown}, "
                  f"rate {agg['detection_rate']:.0%}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 3)
