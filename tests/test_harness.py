"""Tests for the experiment harness: presets, stats, runs, serialization."""

import dataclasses
import json
import tracemalloc
import weakref

import numpy as np
import pytest

from icmeas import harness
from icmeas.errors import ConfigError, InsufficientDataError
from icmeas.harness import (
    COALESCENCE_PRESETS,
    PAD_PRESET,
    PDMM_PRESET,
    TRAFFIC_PRESETS,
    ExperimentConfig,
    build_trace,
    config_from_dict,
    config_to_dict,
    emit_results,
    load_config_json,
    measurement_stats,
    preset_experiment,
    preset_traffic,
    results_csv,
    results_json,
    run_detector,
    run_experiment,
    run_systems,
    trial_seeds,
)
from icmeas.meassim import (
    HicConfig,
    MeasurementSeries,
    PicConfig,
    TicConfig,
    TransferConfig,
    apply_transfer,
    coalesce,
    measure,
)
from icmeas.pad import detect_psd, rasterize
from icmeas.pdmm import PdmmConfig, detect_stream
from icmeas.trafficgen import (
    AttackConfig,
    PacketTrace,
    PoissonConfig,
    gen_periodic,
    gen_poisson,
    load_trace,
    merge,
    save_trace,
)

from oracles import merge_reference, transfer_reference

US = 1000
MS = 1_000_000
SECOND = 1_000_000_000

# short window keeps run_experiment tests fast; detectors still get several
# histogram blocks and one spectral window
SHORT = 2 * SECOND


def _series(m_us, counts):
    return MeasurementSeries(np.asarray(m_us) * US, np.asarray(counts), {})


class TestPresets:
    def test_coalescence_presets(self):
        v1 = COALESCENCE_PRESETS["hicv1"]
        v2 = COALESCENCE_PRESETS["hicv2"]
        assert (v1.packet_timer_ns, v1.absolute_timer_ns) == (30 * US, 300 * US)
        assert (v2.packet_timer_ns, v2.absolute_timer_ns) == (33 * US, 120 * US)

    def test_traffic_preset_names(self):
        assert set(TRAFFIC_PRESETS) == {"high-rate", "low-rate", "harmonic"}

    def test_traffic_preset_attack_periods(self):
        periods = {name: attack.period_ns for name, (_, attack) in TRAFFIC_PRESETS.items()}
        assert periods == {"high-rate": 400 * US, "low-rate": 800 * US, "harmonic": 150 * US}

    def test_harmonic_period_is_below_histogram_range(self):
        period = TRAFFIC_PRESETS["harmonic"][1].period_ns
        assert period < PDMM_PRESET.low_cutoff_ns

    def test_traffic_presets_are_configs_that_preset_traffic_places(self):
        gaps = {"high-rate": 19_000.0, "low-rate": 27_000.0, "harmonic": 19_000.0}
        for name, (background, attack) in TRAFFIC_PRESETS.items():
            assert background == PoissonConfig(
                mean_gap_ns=gaps[name], duration_ns=0, seed=0, size_bytes=500
            )
            assert attack == AttackConfig(period_ns=attack.period_ns, duration_ns=0, size_bytes=1500)
            assert preset_traffic(name, SHORT, seed=3) == (
                dataclasses.replace(background, duration_ns=SHORT, seed=3),
                dataclasses.replace(attack, duration_ns=SHORT),
            )
            assert preset_traffic(name, SHORT, attack=False)[1] is None

    def test_detector_presets(self):
        assert PDMM_PRESET.low_cutoff_ns == 1000 * US
        assert PDMM_PRESET.high_cutoff_ns == 5000 * US
        assert PDMM_PRESET.max_order == 80
        assert PDMM_PRESET.block_len == 2000
        assert PDMM_PRESET.sub_bins == 200
        assert PDMM_PRESET.threshold == 0.05
        assert PDMM_PRESET.bin_width_ns == 1 * US
        assert PAD_PRESET.sample_interval_ns == 100 * US
        assert PAD_PRESET.window == 8192
        assert PAD_PRESET.segments == 8
        assert PAD_PRESET.peak_factor == 8.0
        assert (PAD_PRESET.min_freq_hz, PAD_PRESET.max_freq_hz) == (200.0, 3000.0)

    def test_preset_experiment_unknown_names(self):
        with pytest.raises(ConfigError):
            preset_experiment("bogus", "hicv1")
        with pytest.raises(ConfigError):
            preset_experiment("high-rate", "bogus")

    def test_preset_experiment_no_attack(self):
        cfg = preset_experiment("high-rate", "hicv1", attack=False)
        assert cfg.attack is None

    def test_preset_experiment_fields(self):
        cfg = preset_experiment("low-rate", "hicv2", trials=3, seed_base=9)
        assert cfg.background.mean_gap_ns == 27_000.0
        assert cfg.background.size_bytes == 500
        assert cfg.attack.period_ns == 800 * US
        assert cfg.attack.size_bytes == 1500
        assert cfg.coalescence == COALESCENCE_PRESETS["hicv2"]
        assert cfg.trials == 3 and cfg.seed_base == 9


class TestExperimentConfigValidation:
    def _base(self, **kw):
        kw.setdefault(
            "background", PoissonConfig(mean_gap_ns=19_000.0, duration_ns=SHORT, seed=0)
        )
        return ExperimentConfig(**kw)

    def test_rejects_zero_window(self):
        with pytest.raises(ConfigError):
            self._base(detection_window_ns=0)

    def test_rejects_zero_trials(self):
        with pytest.raises(ConfigError):
            self._base(trials=0)

    def test_rejects_unknown_detector(self):
        with pytest.raises(ConfigError):
            self._base(detectors=("pdmm", "fft"))

    def test_rejects_repeated_detector(self):
        with pytest.raises(ConfigError, match="repeat"):
            self._base(detectors=("pdmm", "pad", "pdmm"))

    def test_rejects_negative_seed_base(self):
        with pytest.raises(ConfigError, match="seed_base"):
            self._base(seed_base=-1)


class TestTrialSeeds:
    def test_deterministic(self):
        assert trial_seeds(42, 5) == trial_seeds(42, 5)

    def test_distinct_across_trials_and_bases(self):
        a = trial_seeds(1, 8)
        b = trial_seeds(2, 8)
        assert len(set(a)) == 8
        assert set(a).isdisjoint(b)


class TestMeasurementStats:
    def test_constant_gaps_have_zero_variance(self):
        # gaps are all exactly 100 us: rate = 3 gaps / 300 us
        stats = measurement_stats(_series([0, 100, 200, 300], [2, 3, 4, 5]))
        assert stats.mean_gap_us == 100.0
        assert stats.var_gap_us2 == 0.0
        assert stats.mean_count == 3.5
        assert stats.rate_per_s == pytest.approx(10_000.0, rel=1e-12)

    def test_two_point_example(self):
        # one gap: sample variance is undefined, reported as 0
        stats = measurement_stats(_series([0, 250], [1, 7]))
        assert stats.mean_gap_us == 250.0
        assert stats.var_gap_us2 == 0.0
        assert stats.mean_count == 4.0
        assert stats.rate_per_s == pytest.approx(4000.0, rel=1e-12)

    def test_matches_numpy_on_random_series(self):
        rng = np.random.default_rng(77)
        m = np.cumsum(rng.integers(1, 200_000, 500))
        c = rng.integers(1, 30, 500)
        stats = measurement_stats(MeasurementSeries(m, c, {}))
        gaps = np.diff(m) / US
        assert stats.mean_gap_us == pytest.approx(gaps.mean(), rel=1e-12)
        assert stats.var_gap_us2 == pytest.approx(gaps.var(ddof=1), rel=1e-12)
        assert stats.mean_count == pytest.approx(c.mean(), rel=1e-12)

    def test_single_measurement_is_insufficient(self):
        with pytest.raises(InsufficientDataError):
            measurement_stats(_series([5], [1]))

    def test_zero_span_is_insufficient(self):
        with pytest.raises(InsufficientDataError, match="^measurement span must be positive$"):
            measurement_stats(MeasurementSeries(np.array([5, 5]), np.array([1, 1]), {}))


class TestBuildTrace:
    def test_background_alone_and_merged_with_attack(self):
        background, attack = preset_traffic("high-rate", SHORT, seed=3)
        assert build_trace(background) == gen_poisson(background)
        assert build_trace(background, attack) == merge(
            gen_poisson(background), gen_periodic(attack)
        )

    @staticmethod
    def _reference(background, attack, transfer):
        """gen_poisson and gen_periodic, each delayed per packet, merged by a stable time sort."""
        parts = [gen_poisson(background)]
        if attack is not None:
            parts.append(gen_periodic(attack))
        if transfer is not None:
            parts = [transfer_reference(p, transfer.bit_rate_bps) for p in parts]
        return parts[0] if attack is None else merge_reference(*parts)

    @pytest.mark.parametrize("transfer", [None, TransferConfig()], ids=["sent", "transferred"])
    @pytest.mark.parametrize("attack", [True, False])
    @pytest.mark.parametrize("traffic", sorted(TRAFFIC_PRESETS))
    def test_equals_reference_build(self, traffic, attack, transfer):
        background, atk = preset_traffic(traffic, SHORT, seed=4, attack=attack)
        assert build_trace(background, atk, transfer) == self._reference(background, atk, transfer)

    @pytest.mark.parametrize("rate_bps", [100e6, 16e9])
    def test_equals_reference_build_with_size_mix_and_jitter(self, rate_bps):
        background = PoissonConfig(
            mean_gap_ns=3_000.0, duration_ns=SHORT // 4, seed=6, size_mix=((64, 0.5), (1500, 0.5))
        )
        attack = AttackConfig(
            period_ns=50 * US, duration_ns=SHORT // 4, size_bytes=999, jitter_stddev_ns=5_000.0, seed=6
        )
        transfer = TransferConfig(bit_rate_bps=rate_bps)
        assert build_trace(background, attack, transfer) == self._reference(background, attack, transfer)

    @staticmethod
    def _assert_same_arrivals(new, old):
        """Equal t_ns, equal packets as a multiset, equal series under every scheme.

        Only the order of packets that arrive at the same instant may differ,
        so the (t, size, label) rows are compared sorted.
        """
        assert np.array_equal(new.t_ns, old.t_ns)
        rows_new = np.lexsort((new.label, new.size_bytes, new.t_ns))
        rows_old = np.lexsort((old.label, old.size_bytes, old.t_ns))
        assert np.array_equal(new.size_bytes[rows_new], old.size_bytes[rows_old])
        assert np.array_equal(new.label[rows_new], old.label[rows_old])
        schemes = [*COALESCENCE_PRESETS.values(), TicConfig(timer_ns=125 * US), PicConfig(count=10)]
        for cfg in schemes:
            ms_new, ms_old = coalesce(new, cfg), coalesce(old, cfg)
            assert ms_new == ms_old and ms_new.flags == ms_old.flags

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("attack", [True, False])
    @pytest.mark.parametrize("traffic", sorted(TRAFFIC_PRESETS))
    def test_transfer_before_merge_equals_transfer_after(self, traffic, attack, seed):
        background, atk = preset_traffic(traffic, SHORT, seed=seed, attack=attack)
        transfer = TransferConfig()
        new = build_trace(background, atk, transfer)
        self._assert_same_arrivals(new, apply_transfer(build_trace(background, atk), transfer))

    @pytest.mark.parametrize("seed", [0, 5])
    def test_transfer_before_merge_with_size_mix_and_jitter(self, seed):
        background = PoissonConfig(
            mean_gap_ns=3_000.0, duration_ns=SHORT // 4, seed=seed, size_mix=((64, 0.5), (1500, 0.5))
        )
        attack = AttackConfig(
            period_ns=50 * US, duration_ns=SHORT // 4, size_bytes=1000, jitter_stddev_ns=5_000.0, seed=seed
        )
        transfer = TransferConfig(bit_rate_bps=100e6)
        # at 80 ns per byte a 64 B packet overtakes a 1500 B one sent up to 114 us before it,
        # so the background component itself re-sorts under the delay
        bg = gen_poisson(background)
        assert np.any(np.diff(bg.t_ns + 80 * bg.size_bytes) < 0)
        new = build_trace(background, attack, transfer)
        self._assert_same_arrivals(new, apply_transfer(build_trace(background, attack), transfer))

    def test_arrival_ties_put_background_before_attack(self):
        # one background packet every ~2 ns, so many attack arrivals tie with one
        background = PoissonConfig(mean_gap_ns=2.0, duration_ns=MS, seed=4, size_bytes=500)
        attack = AttackConfig(period_ns=10 * US, duration_ns=MS, size_bytes=1500, start_offset_ns=7)
        trace = build_trace(background, attack, TransferConfig())
        tied = np.flatnonzero(trace.t_ns[1:] == trace.t_ns[:-1])
        assert np.any(trace.label[tied] != trace.label[tied + 1])
        assert np.all(trace.label[tied] <= trace.label[tied + 1])

    @pytest.mark.parametrize("size_mix", [(), ((64, 0.5), (1500, 0.5))], ids=["one-size", "size-mix"])
    def test_trial_on_read_only_columns_matches_writable_copies(self, tmp_path, size_mix):
        background, attack = preset_traffic("high-rate", SHORT, seed=5)
        background = dataclasses.replace(background, size_mix=size_mix)
        built = build_trace(background, attack)
        transfer, hic = TransferConfig(), COALESCENCE_PRESETS["hicv2"]
        outputs = []
        for writable in (True, False):
            cols = [np.array(c) for c in (built.t_ns, built.size_bytes, built.label)]
            for c in cols:
                c.setflags(write=writable)
            trace = PacketTrace(*cols)
            assert all(c.flags.writeable == writable for c in vars(trace).values())
            measured = measure(trace, transfer, hic)
            delayed = coalesce(apply_transfer(trace, transfer), hic)
            merged = merge(trace, gen_periodic(dataclasses.replace(attack, start_offset_ns=7)))
            detectors = (("pdmm", PDMM_PRESET), ("pad", PAD_PRESET))
            reports = [run_detector(name, measured, cfg) for name, cfg in detectors]
            p = tmp_path / f"{writable}.csv"
            save_trace(trace, p)
            series = (measured, measured.flags, delayed, delayed.flags)
            outputs.append((*series, merged, reports, p.read_bytes(), load_trace(p)))
        assert outputs[0] == outputs[1]

    # Bytes per packet at the peak of a 2 s high-rate build: the built trace alone holds
    # 17 (t_ns, size and label).  Materialized one-value columns and an int64 copy of the
    # draw buffer measured 36.4, 26.5 and 26.5; broadcasts and an in-place cast 27.4, 17.5
    # and 9.5.
    @pytest.mark.parametrize(
        "attack, transfer, bound",
        [(True, TransferConfig(), 30), (False, TransferConfig(), 20), (False, None, 12)],
        ids=["attack-transferred", "background-transferred", "background-sent"],
    )
    def test_peak_allocation_per_packet(self, attack, transfer, bound):
        background, atk = preset_traffic("high-rate", SHORT, seed=0, attack=attack)
        tracemalloc.start()
        try:
            trace = build_trace(background, atk, transfer)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(trace) > 100_000
        assert peak / len(trace) < bound


class TestRunDetector:
    # no attack: both detectors scan the whole 2 s series, which holds pad's
    # 3 windows; a 1 s window rasterizes 10,000 samples, room for one
    MS = measure(
        gen_poisson(preset_traffic("high-rate", SHORT, seed=3, attack=False)[0]),
        TransferConfig(),
        COALESCENCE_PRESETS["hicv1"],
    )

    def test_pad_window_cut(self):
        window_ns, si = SECOND, PAD_PRESET.sample_interval_ns
        cut = run_detector("pad", self.MS, PAD_PRESET, window_ns)
        assert cut == detect_psd(rasterize(self.MS, si, window_ns // si), PAD_PRESET)
        inside = self.MS.m_ns < window_ns
        head = MeasurementSeries(self.MS.m_ns[inside], self.MS.count[inside])
        assert run_detector("pad", head, PAD_PRESET, window_ns) == cut
        whole = run_detector("pad", self.MS, PAD_PRESET)
        assert whole == detect_psd(rasterize(self.MS, si), PAD_PRESET)
        assert (cut.blocks_processed, whole.blocks_processed) == (1, 3)

    def test_pdmm_reads_past_the_window(self):
        report = run_detector("pdmm", self.MS, PDMM_PRESET, SECOND)
        assert report == detect_stream(self.MS, PDMM_PRESET)
        inside = int(np.count_nonzero(self.MS.m_ns < SECOND))
        assert report.blocks_processed * PDMM_PRESET.block_len > inside


class TestRunExperiment:
    def test_deterministic_repeat(self):
        cfg = preset_experiment(
            "high-rate", "hicv1", trials=2, seed_base=11, detection_window_ns=SHORT
        )
        first = results_json({"hicv1": run_experiment(cfg)})
        second = results_json({"hicv1": run_experiment(cfg)})
        assert first == second

    def test_detection_and_timeout_aggregates(self):
        # spectral detector never fires on the 30/300 us system in-window,
        # the histogram detector always does on this attack preset
        cfg = preset_experiment(
            "high-rate", "hicv1", trials=2, seed_base=11, detection_window_ns=SHORT
        )
        res = run_experiment(cfg)
        assert res.aggregate["pdmm"]["detection_rate"] == 1.0
        assert res.aggregate["pdmm"]["median_ttd_ns"] <= SHORT
        assert res.aggregate["pad"]["median_ttd_ns"] is None
        assert res.aggregate["pad"]["timeouts"] == 2

    def test_trial_count_and_seed_echo(self):
        cfg = preset_experiment(
            "high-rate",
            "hicv1",
            trials=3,
            seed_base=4,
            detectors=("pad",),
            detection_window_ns=SHORT,
        )
        res = run_experiment(cfg)
        assert len(res.trials) == 3
        assert [t.seed for t in res.trials] == trial_seeds(4, 3)
        assert res.config["seed_base"] == 4
        assert res.config["pdmm"] is None  # detector not requested

    def test_stats_only_run_with_no_detectors(self):
        cfg = preset_experiment(
            "high-rate",
            "hicv1",
            trials=1,
            seed_base=2,
            detectors=(),
            detection_window_ns=SHORT,
        )
        res = run_experiment(cfg)
        assert res.aggregate == {}
        assert res.trials[0].detections == {}
        assert res.trials[0].stats.rate_per_s > 0


# one system of each scheme the coalescer knows
SYSTEMS = {
    "hicv1": COALESCENCE_PRESETS["hicv1"],
    "hicv2": COALESCENCE_PRESETS["hicv2"],
    "tic": TicConfig(timer_ns=100 * US),
    "pic": PicConfig(count=5),
}


class TestRunSystems:
    @pytest.mark.parametrize("detectors", [(), ("pdmm",), ("pdmm", "pad")])
    @pytest.mark.parametrize("attack", [True, False])
    @pytest.mark.parametrize("traffic", sorted(TRAFFIC_PRESETS))
    def test_each_system_equals_its_own_run(self, traffic, attack, detectors):
        cfg = preset_experiment(
            traffic,
            "hicv1",
            trials=2,
            seed_base=21,
            attack=attack,
            detectors=detectors,
            detection_window_ns=SHORT,
        )
        results = run_systems(cfg, SYSTEMS)
        assert list(results) == list(SYSTEMS)
        for name, system in SYSTEMS.items():
            assert results[name] == run_experiment(dataclasses.replace(cfg, coalescence=system))

    def test_builds_one_trace_per_seed(self, monkeypatch):
        built = []

        def counting_build_trace(*args):
            built.append(args[0].seed)
            return build_trace(*args)

        monkeypatch.setattr(harness, "build_trace", counting_build_trace)
        cfg = preset_experiment(
            "high-rate", "hicv1", trials=3, seed_base=5, detectors=(), detection_window_ns=SHORT
        )
        run_systems(cfg, SYSTEMS)
        assert built == trial_seeds(5, 3)

    def test_trace_is_released_before_the_detectors_run(self, monkeypatch):
        traces = []

        def tracked_build_trace(*args):
            trace = build_trace(*args)
            traces.append(weakref.ref(trace))
            return trace

        def checked_run_detector(*args):
            assert traces and all(ref() is None for ref in traces)
            return run_detector(*args)

        monkeypatch.setattr(harness, "build_trace", tracked_build_trace)
        monkeypatch.setattr(harness, "run_detector", checked_run_detector)
        cfg = preset_experiment(
            "high-rate", "hicv1", trials=2, detectors=("pdmm",), detection_window_ns=SHORT
        )
        run_systems(cfg, SYSTEMS)

    def test_needs_a_system(self):
        cfg = preset_experiment("high-rate", "hicv1", detection_window_ns=SHORT)
        with pytest.raises(ConfigError, match="at least one system"):
            run_systems(cfg, {})


class TestSerialization:
    def _results(self):
        cfg = preset_experiment(
            "high-rate", "hicv1", trials=1, seed_base=6, detection_window_ns=SHORT
        )
        return {"hicv1": run_experiment(cfg)}

    def test_json_parses_and_sorts_systems(self):
        cfg1 = preset_experiment(
            "high-rate", "hicv1", trials=1, seed_base=6, detection_window_ns=SHORT
        )
        cfg2 = dataclasses.replace(cfg1, coalescence=COALESCENCE_PRESETS["hicv2"])
        doc = json.loads(
            results_json({"hicv2": run_experiment(cfg2), "hicv1": run_experiment(cfg1)})
        )
        assert list(doc["systems"]) == ["hicv1", "hicv2"]

    def test_csv_timeout_marker_and_values_match_json(self):
        results = self._results()
        doc = json.loads(results_json(results))
        lines = results_csv(results).splitlines()
        table = {row.split(",")[0]: row.split(",")[1] for row in lines[1:]}
        agg = doc["systems"]["hicv1"]["aggregate"]
        assert table["median_ttd_ns[pad]"] == "-"
        assert int(table["median_ttd_ns[pdmm]"]) == agg["pdmm"]["median_ttd_ns"]
        stats = doc["systems"]["hicv1"]["trials"][0]["stats"]
        assert float(table["median_rate_per_s"]) == stats["rate_per_s"]

    def test_emit_results_writes_files(self, tmp_path):
        results = self._results()
        emit_results(results, tmp_path / "out")
        assert (tmp_path / "out.json").read_text(encoding="utf-8") == results_json(results)
        assert (tmp_path / "out.csv").read_text(encoding="utf-8") == results_csv(results)

    def test_emit_results_unwritable_path(self, tmp_path):
        with pytest.raises(OSError):
            emit_results(self._results(), tmp_path / "no" / "dir" / "x")


def _json_round_trip(cfg, cls=ExperimentConfig):
    return config_from_dict(json.loads(json.dumps(config_to_dict(cfg))), cls)


class TestConfigFiles:
    def test_round_trip_through_echo(self):
        cfg = preset_experiment(
            "low-rate", "hicv2", trials=2, seed_base=13, detection_window_ns=SHORT
        )
        echo = run_experiment(
            dataclasses.replace(cfg, trials=1, detectors=())
        ).config
        echo["trials"] = 2
        echo["detectors"] = ["pdmm", "pad"]
        rebuilt = config_from_dict(echo)
        assert rebuilt.background == cfg.background
        assert rebuilt.attack == cfg.attack
        assert rebuilt.coalescence == cfg.coalescence
        assert rebuilt.trials == 2 and rebuilt.seed_base == 13

    def test_named_coalescence_and_defaults(self):
        d = {
            "background": {"mean_gap_ns": 19_000.0, "duration_ns": SHORT, "seed": 0},
            "coalescence": "hicv1",
        }
        cfg = config_from_dict(d)
        assert cfg.coalescence == COALESCENCE_PRESETS["hicv1"]
        assert cfg.attack is None
        assert cfg.detectors == ("pdmm", "pad")
        assert cfg.pdmm == PDMM_PRESET and cfg.pad == PAD_PRESET

    def test_explicit_coalescence_section(self):
        d = {
            "background": {"mean_gap_ns": 19_000.0, "duration_ns": SHORT, "seed": 0},
            "coalescence": {
                "type": "HicConfig",
                "packet_timer_ns": 40 * US,
                "absolute_timer_ns": 200 * US,
            },
        }
        assert config_from_dict(d).coalescence == HicConfig(40 * US, 200 * US)

    def test_missing_background_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"coalescence": "hicv1"})

    def test_unknown_preset_name_rejected(self):
        d = {
            "background": {"mean_gap_ns": 19_000.0, "duration_ns": SHORT, "seed": 0},
            "coalescence": "hicv9",
        }
        with pytest.raises(ConfigError):
            config_from_dict(d)

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(
            json.dumps(
                {
                    "background": {
                        "mean_gap_ns": 27_000.0,
                        "duration_ns": SHORT,
                        "seed": 0,
                        "size_bytes": 500,
                    },
                    "attack": {
                        "period_ns": 800 * US,
                        "duration_ns": SHORT,
                        "size_bytes": 1500,
                    },
                    "coalescence": "hicv2",
                    "detectors": ["pdmm"],
                    "trials": 1,
                    "seed_base": 3,
                }
            ),
            encoding="utf-8",
        )
        cfg = config_from_dict(load_config_json(path))
        preset = preset_experiment(
            "low-rate", "hicv2", trials=1, seed_base=3, detectors=("pdmm",)
        )
        assert cfg.background.mean_gap_ns == preset.background.mean_gap_ns
        assert cfg.attack.period_ns == preset.attack.period_ns
        assert cfg.coalescence == preset.coalescence

    @pytest.mark.parametrize("traffic", sorted(TRAFFIC_PRESETS))
    @pytest.mark.parametrize("system", sorted(COALESCENCE_PRESETS))
    @pytest.mark.parametrize("detectors", [("pdmm", "pad"), ("pad",), ()])
    def test_preset_round_trip(self, traffic, system, detectors):
        cfg = preset_experiment(traffic, system, trials=3, seed_base=7, detectors=detectors)
        assert _json_round_trip(cfg) == cfg

    @pytest.mark.parametrize(
        "change",
        [
            {"coalescence": TicConfig(timer_ns=125 * US)},
            {"coalescence": PicConfig(count=10)},
            {
                "background": PoissonConfig(
                    mean_gap_ns=19_000.0,
                    duration_ns=SHORT,
                    seed=0,
                    size_mix=((500, 0.25), (1500, 0.75)),
                )
            },
            {"pdmm": dataclasses.replace(PDMM_PRESET, window_blocks=4)},
            {"attack": None},
        ],
    )
    def test_section_round_trip(self, change):
        cfg = dataclasses.replace(preset_experiment("high-rate", "hicv1"), **change)
        assert _json_round_trip(cfg) == cfg

    def test_sections_carry_type_and_root_does_not(self):
        d = config_to_dict(preset_experiment("high-rate", "hicv2"))
        assert "type" not in d
        assert d["coalescence"]["type"] == "HicConfig"
        assert d["background"]["type"] == "PoissonConfig"
        assert d["detectors"] == ["pdmm", "pad"]
        assert config_to_dict(PDMM_PRESET)["type"] == "PdmmConfig"

    def test_echo_is_the_codec_output_without_unused_detectors(self):
        cfg = preset_experiment(
            "high-rate", "hicv1", detectors=("pad",), detection_window_ns=SHORT
        )
        echo = run_experiment(cfg).config
        assert echo == {**config_to_dict(cfg), "pdmm": None}
        assert config_from_dict(echo) == cfg

    def test_null_takes_the_default(self):
        d = config_to_dict(preset_experiment("high-rate", "hicv1"))
        d["trials"] = None
        d["pdmm"] = None
        d["background"]["size_bytes"] = None
        cfg = config_from_dict(d)
        assert cfg.trials == 1 and cfg.pdmm == PDMM_PRESET
        assert cfg.background.size_bytes == 1500

    def test_int_accepted_for_float(self):
        d = config_to_dict(PDMM_PRESET)
        d["threshold"] = 0
        with pytest.raises(ConfigError, match="threshold must be in"):
            config_from_dict(d, PdmmConfig)
        d = config_to_dict(preset_experiment("high-rate", "hicv1"))
        d["background"]["mean_gap_ns"] = 19_000
        assert config_from_dict(d).background.mean_gap_ns == 19_000.0

    def _bad(self, edit):
        d = config_to_dict(preset_experiment("high-rate", "hicv1"))
        edit(d)
        with pytest.raises(ConfigError) as err:
            config_from_dict(d)
        return str(err.value)

    def test_unknown_key(self):
        msg = self._bad(lambda d: d["pad"].update(peak_factr=9.0))
        assert "peak_factr" in msg

    def test_unknown_top_level_key(self):
        assert "seed" in self._bad(lambda d: d.update(seed=3))

    def test_missing_required_key(self):
        msg = self._bad(lambda d: d["background"].pop("mean_gap_ns"))
        assert "mean_gap_ns" in msg

    def test_non_object_section(self):
        assert "background" in self._bad(lambda d: d.update(background=5))

    def test_non_object_root(self):
        with pytest.raises(ConfigError):
            config_from_dict([1, 2])

    def test_unknown_type(self):
        msg = self._bad(lambda d: d["coalescence"].update(type="HicConfigV3"))
        assert "HicConfigV3" in msg
        self._bad(lambda d: d["coalescence"].update(type=["HicConfig"]))

    def test_coalescence_needs_a_type(self):
        self._bad(lambda d: d["coalescence"].pop("type"))

    def test_mismatched_type(self):
        self._bad(lambda d: d["pdmm"].update(type="PadConfig"))

    def test_string_timer(self):
        msg = self._bad(lambda d: d["coalescence"].update(packet_timer_ns="30000"))
        assert "packet_timer_ns" in msg

    @pytest.mark.parametrize(
        "key, value",
        [("trials", True), ("trials", 2.0), ("detectors", "pdmm"), ("detectors", [1])],
    )
    def test_wrong_typed_values(self, key, value):
        self._bad(lambda d: d.update({key: value}))

    def test_bool_is_not_an_int_but_is_a_bool(self):
        self._bad(lambda d: d["coalescence"].update(absolute_timer_ns=True))
        d = config_to_dict(HicConfig(40 * US, 30 * US, allow_inverted_timers=True))
        assert config_from_dict(d, HicConfig).allow_inverted_timers is True
        d["allow_inverted_timers"] = 1
        with pytest.raises(ConfigError):
            config_from_dict(d, HicConfig)

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("coalescence", "packet_timer_ns", 2**63),
            ("background", "mean_gap_ns", 10**400),  # an int beyond float range too
            (None, "trials", -(2**63) - 1),
        ],
    )
    def test_int_outside_int64(self, section, key, value):
        msg = self._bad(lambda d: (d if section is None else d[section]).update({key: value}))
        assert key in msg and "int64" in msg

    def test_int64_bounds_accepted(self):
        d = config_to_dict(preset_experiment("high-rate", "hicv1"))
        d["seed_base"] = 2**63 - 1
        assert config_from_dict(d).seed_base == 2**63 - 1

    @pytest.mark.parametrize("mix", [[[500]], [[500, "a"]], [500], {"500": 1.0}])
    def test_malformed_size_mix(self, mix):
        self._bad(lambda d: d["background"].update(size_mix=mix))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize(
    "section, key",
    [
        ("transfer", "bit_rate_bps"),
        ("background", "mean_gap_ns"),
        ("background", "size_mix"),
        ("attack", "jitter_stddev_ns"),
        ("pad", "peak_factor"),
        ("pad", "min_freq_hz"),
        ("pad", "max_freq_hz"),
    ],
)
def test_non_finite_float_fields_are_config_errors(tmp_path, section, key, value):
    # range checks alone let NaN through; the config file spells it NaN or Infinity
    d = config_to_dict(preset_experiment("high-rate", "hicv1"))
    d[section][key] = [[500, value], [1500, 0.75]] if key == "size_mix" else value
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(d), encoding="utf-8")
    with pytest.raises(ConfigError, match="must be finite"):
        config_from_dict(load_config_json(path))


@pytest.mark.parametrize("text", [b"\xff\xfe{\x00}\x00", b'{"trials": 1, "seed_base": "\xe9"}'])
def test_config_file_that_is_not_utf8_is_a_config_error(tmp_path, text):
    path = tmp_path / "exp.json"
    path.write_bytes(text)
    with pytest.raises(ConfigError):
        config_from_dict(load_config_json(path))
