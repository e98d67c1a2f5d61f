"""End-to-end tests of the command line front end and its exit codes."""

import json

import numpy as np
import pytest

from icmeas.cli import main
from icmeas.harness import trial_seeds
from icmeas.meassim import load_measurements
from icmeas.trafficgen import load_trace

US = 1000


def _gen(tmp_path, *extra, name="trace.csv"):
    out = tmp_path / name
    argv = [
        "gen",
        "--preset",
        "high-rate",
        "--duration-s",
        "1",
        "--seed",
        "5",
        "--out",
        str(out),
        *extra,
    ]
    assert main(argv) == 0
    return out


def _measure(tmp_path, trace, *extra, name="m.csv"):
    out = tmp_path / name
    argv = ["measure", "--trace", str(trace), "--out", str(out), *extra]
    assert main(argv) == 0
    return out


class TestGen:
    def test_writes_loadable_trace_with_attack(self, tmp_path):
        trace = load_trace(_gen(tmp_path))
        assert len(trace) > 10_000
        assert set(np.unique(trace.label)) == {0, 1}

    def test_no_attack_flag(self, tmp_path):
        trace = load_trace(_gen(tmp_path, "--no-attack"))
        assert set(np.unique(trace.label)) == {0}
        # the jitter would be too large for the preset's 400 us period, but
        # no attack is sent, so it is not checked
        jittered = _gen(tmp_path, "--no-attack", "--attack-jitter-us", "1000", name="j.csv")
        assert load_trace(jittered) == trace

    def test_explicit_parameters(self, tmp_path):
        out = tmp_path / "t.csv"
        argv = [
            "gen",
            "--mean-gap-us",
            "50",
            "--attack-period-us",
            "500",
            "--duration-s",
            "0.1",
            "--seed",
            "1",
            "--out",
            str(out),
        ]
        assert main(argv) == 0
        trace = load_trace(out)
        periodic = trace.t_ns[trace.label == 1]
        assert np.all(np.diff(periodic) == 500 * US)

    def test_requires_preset_or_mean_gap(self, tmp_path):
        assert main(["gen", "--out", str(tmp_path / "t.csv")]) == 1

    @pytest.mark.parametrize(
        "extra",
        [
            ["--preset", "high-rate", "--seed", "-1"],
            ["--mean-gap-us", "50", "--seed", "-1"],
            ["--mean-gap-us", "50", "--attack-period-us", "0"],
        ],
        ids=["preset-negative-seed", "negative-seed", "zero-attack-period"],
    )
    def test_bad_values_are_config_errors(self, tmp_path, capsys, extra):
        out = tmp_path / "t.csv"
        assert main(["gen", "--duration-s", "0.1", "--out", str(out), *extra]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err
        assert not out.exists()


class TestMeasure:
    def test_system_preset_equals_explicit_timers(self, tmp_path):
        trace = _gen(tmp_path)
        by_name = _measure(tmp_path, trace, "--system", "hicv1", name="a.csv")
        by_val = _measure(
            tmp_path, trace, "--pack-us", "30", "--abs-us", "300", name="b.csv"
        )
        a, b = load_measurements(by_name), load_measurements(by_val)
        assert np.array_equal(a.m_ns, b.m_ns)
        assert np.array_equal(a.count, b.count)

    def test_fixed_timer_and_count_variants(self, tmp_path):
        trace = _gen(tmp_path)
        tic = load_measurements(_measure(tmp_path, trace, "--tic-us", "100", name="t.csv"))
        pic = load_measurements(_measure(tmp_path, trace, "--pic-count", "8", name="p.csv"))
        assert len(tic) > 0 and len(pic) > 0
        assert np.all(pic.count[:-1] == 8)

    def test_needs_some_scheme(self, tmp_path):
        trace = _gen(tmp_path)
        assert main(["measure", "--trace", str(trace), "--out", str(tmp_path / "m.csv")]) == 1

    @pytest.mark.parametrize(
        "text",
        [
            b"t_ns,size,label\n100,500,0\n",
            b"t_ns,size_bytes,label\n100,500,-1\n",
            b"t_ns,size_bytes,label\n-5,500,0\n",
            b"\x7fELF\x02\x01\x01\x00\xff\xfe\n\x00\x00",
        ],
        ids=["bad-header", "bad-label", "negative-time", "not-utf8"],
    )
    def test_malformed_trace_is_invalid_input(self, tmp_path, capsys, text):
        trace = tmp_path / "t.csv"
        trace.write_bytes(text)
        argv = ["measure", "--trace", str(trace), "--system", "hicv1", "--out", str(tmp_path / "m.csv")]
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert err.startswith("invalid input file:") and "Traceback" not in err

    def test_nan_rate_is_config_error(self, tmp_path, capsys):
        # a NaN rate used to exit 0 and write m_ns near -9.22e18
        argv = ["measure", "--trace", str(_gen(tmp_path)), "--system", "hicv1"]
        assert main(argv + ["--rate-gbps", "nan", "--out", str(tmp_path / "m.csv")]) == 1
        assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp_path / "m.csv").exists()

    def test_sidecar_echoes_the_coalescence_config(self, tmp_path):
        m = _measure(tmp_path, _gen(tmp_path), "--system", "hicv2")
        sidecar = json.loads((tmp_path / "m.csv.json").read_text(encoding="utf-8"))
        assert sidecar["config"] == {
            "type": "HicConfig",
            "packet_timer_ns": 33 * US,
            "absolute_timer_ns": 120 * US,
            "allow_inverted_timers": False,
        }
        assert load_measurements(m).flags == sidecar["flags"]

    def test_missing_trace_is_io_error(self, tmp_path):
        argv = [
            "measure",
            "--trace",
            str(tmp_path / "absent.csv"),
            "--system",
            "hicv1",
            "--out",
            str(tmp_path / "m.csv"),
        ]
        assert main(argv) == 3


class TestDetect:
    def test_report_file_for_each_detector(self, tmp_path):
        trace = _gen(tmp_path)
        m = _measure(tmp_path, trace, "--system", "hicv2")
        for det in ("pdmm", "pad"):
            out = tmp_path / f"{det}.json"
            argv = [
                "detect",
                "--detector",
                det,
                "--measurements",
                str(m),
                "--out",
                str(out),
            ]
            assert main(argv) == 0
            report = json.loads(out.read_text(encoding="utf-8"))
            assert set(report) == {"detected", "detection_time_ns", "blocks", "trajectory"}

    def test_stdout_report(self, tmp_path, capsys):
        trace = _gen(tmp_path)
        m = _measure(tmp_path, trace, "--system", "hicv1")
        capsys.readouterr()  # drop the gen/measure progress lines
        assert main(["detect", "--detector", "pdmm", "--measurements", str(m)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert isinstance(report["detected"], bool)

    def test_threshold_override_changes_outcome(self, tmp_path):
        trace = _gen(tmp_path)
        m = _measure(tmp_path, trace, "--system", "hicv1")
        out = tmp_path / "r.json"
        argv = [
            "detect",
            "--detector",
            "pdmm",
            "--measurements",
            str(m),
            "--threshold",
            "1e-12",
            "--out",
            str(out),
        ]
        assert main(argv) == 0
        # threshold so strict nothing can cross it in a 1 s slice
        assert json.loads(out.read_text(encoding="utf-8"))["detected"] is False

    def test_config_file_section(self, tmp_path):
        trace = _gen(tmp_path)
        m = _measure(tmp_path, trace, "--system", "hicv1")
        cfg = tmp_path / "det.json"
        cfg.write_text(json.dumps({"pad": {"window": 4096, "segments": 4}}))
        out = tmp_path / "r.json"
        argv = [
            "detect",
            "--detector",
            "pad",
            "--measurements",
            str(m),
            "--config",
            str(cfg),
            "--out",
            str(out),
        ]
        assert main(argv) == 0
        assert out.exists()

    def _detect_with_config(self, tmp_path, doc, detector="pdmm"):
        m = tmp_path / "m.csv"
        m.write_text("m_ns,count\n100,1\n200,1\n", encoding="utf-8")
        cfg = tmp_path / "det.json"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        argv = ["detect", "--detector", detector, "--measurements", str(m), "--config", str(cfg)]
        return main(argv)

    def test_config_section_with_misspelled_key(self, tmp_path, capsys):
        assert self._detect_with_config(tmp_path, {"pdmm": {"treshold": 0.01}}) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "treshold" in err

    def test_config_section_must_be_an_object(self, tmp_path):
        assert self._detect_with_config(tmp_path, {"pad": [1, 2]}, detector="pad") == 1
        assert self._detect_with_config(tmp_path, [1, 2], detector="pad") == 1

    def test_config_section_with_wrong_typed_value(self, tmp_path):
        assert self._detect_with_config(tmp_path, {"pad": {"window": "8192"}}, "pad") == 1

    def test_malformed_measurement_file_is_invalid_input(self, tmp_path, capsys):
        m = tmp_path / "m.csv"
        m.write_text("m_ns,count\n200,1\n100,1\n", encoding="utf-8")
        assert main(["detect", "--detector", "pdmm", "--measurements", str(m)]) == 4
        assert capsys.readouterr().err.startswith("invalid input file:")

    @pytest.mark.parametrize(
        "command",
        [["detect", "--detector", "pad"], ["detect", "--detector", "pdmm"], ["stats"]],
        ids=["pad", "pdmm", "stats"],
    )
    def test_negative_measurement_time_is_invalid_input(self, tmp_path, capsys, command):
        # pad's rasterizer used to die on this file with a bincount traceback
        m = tmp_path / "m.csv"
        m.write_text("m_ns,count\n-500,1\n200,1\n", encoding="utf-8")
        assert main(command + ["--measurements", str(m)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("invalid input file:") and "Traceback" not in err

    @pytest.mark.parametrize(
        "command", [["detect", "--detector", "pdmm"], ["stats"]], ids=["detect", "stats"]
    )
    def test_non_utf8_measurement_file_is_invalid_input(self, tmp_path, capsys, command):
        m = tmp_path / "m.csv"
        m.write_bytes(b"m_ns,count\n100,1\n\xc3\x28,1\n")
        assert main(command + ["--measurements", str(m)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("invalid input file:") and "Traceback" not in err

    def test_non_utf8_config_is_config_error(self, tmp_path, capsys):
        m = _measure(tmp_path, _gen(tmp_path), "--system", "hicv1")
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"pdmm": {"threshold": 0.01}, "note": "\xff"}')
        capsys.readouterr()
        argv = ["detect", "--detector", "pdmm", "--measurements", str(m), "--config", str(cfg)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err

    def test_bad_detector_name(self, tmp_path):
        assert main(["detect", "--detector", "zz", "--measurements", "x"]) == 1


class TestExperiment:
    def _run(self, tmp_path, *extra, base="res"):
        out = tmp_path / base
        argv = [
            "experiment",
            "--preset",
            "high-rate",
            "--window-s",
            "2",
            "--trials",
            "1",
            "--seed",
            "9",
            "--out",
            str(out),
            *extra,
        ]
        assert main(argv) == 0
        return out

    def test_writes_json_and_csv(self, tmp_path):
        out = self._run(tmp_path)
        doc = json.loads((tmp_path / "res.json").read_text(encoding="utf-8"))
        assert set(doc["systems"]) == {"hicv1", "hicv2"}
        csv = (tmp_path / "res.csv").read_text(encoding="utf-8")
        assert csv.splitlines()[0] == "metric,hicv1,hicv2"
        assert out.with_suffix(".csv").exists()

    def test_repeat_run_is_byte_identical(self, tmp_path):
        self._run(tmp_path, base="a")
        self._run(tmp_path, base="b")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_timeout_renders_as_dash(self, tmp_path):
        # the spectral detector does not fire through the 300 us absolute
        # timer in this short seeded window, so its hicv1 column holds the
        # timeout marker
        self._run(tmp_path, "--systems", "hicv1", "--detectors", "pad")
        rows = (tmp_path / "res.csv").read_text(encoding="utf-8").splitlines()
        table = {r.split(",")[0]: r.split(",")[1] for r in rows[1:]}
        assert table["median_ttd_ns[pad]"] == "-"

    def test_config_file_matches_preset_run(self, tmp_path):
        self._run(tmp_path, "--systems", "hicv1", base="preset")
        cfg = {
            "background": {
                "mean_gap_ns": 19_000.0,
                "duration_ns": 2_000_000_000,
                "seed": 0,
                "size_bytes": 500,
            },
            "attack": {
                "period_ns": 400_000,
                "duration_ns": 2_000_000_000,
                "size_bytes": 1500,
            },
            "coalescence": "hicv1",
            "detection_window_ns": 2_000_000_000,
        }
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        argv = [
            "experiment",
            "--config",
            str(cfg_path),
            "--trials",
            "1",
            "--seed",
            "9",
            "--out",
            str(tmp_path / "fromfile"),
        ]
        assert main(argv) == 0
        a = json.loads((tmp_path / "preset.json").read_text(encoding="utf-8"))
        b = json.loads((tmp_path / "fromfile.json").read_text(encoding="utf-8"))
        assert (
            a["systems"]["hicv1"]["trials"] == b["systems"]["config"]["trials"]
        )

    def _write_config(self, tmp_path, **changes):
        cfg = {
            "background": {"mean_gap_ns": 19_000.0, "duration_ns": 0, "seed": 0, "size_bytes": 500},
            "coalescence": "hicv1",
            "detectors": [],
            "detection_window_ns": 1_000_000_000,
            **changes,
        }
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        return path

    def test_config_file_trials_and_seed_without_flags(self, tmp_path):
        path = self._write_config(tmp_path, trials=2, seed_base=5)
        out = tmp_path / "r"
        assert main(["experiment", "--config", str(path), "--out", str(out)]) == 0
        doc = json.loads(out.with_suffix(".json").read_text(encoding="utf-8"))["systems"]["config"]
        assert doc["config"]["trials"] == 2 and doc["config"]["seed_base"] == 5
        assert [t["seed"] for t in doc["trials"]] == trial_seeds(5, 2)

    def test_flags_override_config_file_trials_and_seed(self, tmp_path):
        path = self._write_config(tmp_path, trials=2, seed_base=5)
        out = tmp_path / "r"
        argv = ["experiment", "--config", str(path), "--trials", "1", "--seed", "0", "--out", str(out)]
        assert main(argv) == 0
        doc = json.loads(out.with_suffix(".json").read_text(encoding="utf-8"))["systems"]["config"]
        assert [t["seed"] for t in doc["trials"]] == trial_seeds(0, 1)

    @pytest.mark.parametrize(
        "changes",
        [
            {"trails": 2},
            {"trials": "2"},
            {"attack": 400_000},
            {"coalescence": {"type": "Nic"}},
            {"seed_base": -1},
        ],
        ids=[
            "unknown-key",
            "string-trials",
            "non-object-section",
            "unknown-type",
            "negative-seed-base",
        ],
    )
    def test_bad_config_file_is_config_error(self, tmp_path, capsys, changes):
        path = self._write_config(tmp_path, **changes)
        assert main(["experiment", "--config", str(path), "--out", str(tmp_path / "r")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err

    def test_non_utf8_config_file_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "exp.json"
        path.write_bytes(b"\xff\xfe{\x00}\x00")
        assert main(["experiment", "--config", str(path), "--out", str(tmp_path / "r")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err

    @pytest.mark.parametrize(
        "extra", [["--seed", "-1"], ["--systems", ""], ["--systems", ","]],
        ids=["negative-seed", "no-systems", "comma-only-systems"],
    )
    def test_bad_preset_run_is_config_error_and_writes_nothing(self, tmp_path, capsys, extra):
        out = tmp_path / "r"
        argv = ["experiment", "--preset", "high-rate", "--window-s", "2", "--out", str(out), *extra]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_needs_preset_or_config(self, tmp_path):
        assert main(["experiment", "--out", str(tmp_path / "r")]) == 1

    def test_unwritable_out_is_io_error(self, tmp_path):
        argv = [
            "experiment",
            "--preset",
            "high-rate",
            "--window-s",
            "2",
            "--trials",
            "1",
            "--out",
            str(tmp_path / "missing" / "dir" / "r"),
        ]
        assert main(argv) == 3


class TestStats:
    def test_prints_four_fields(self, tmp_path, capsys):
        trace = _gen(tmp_path)
        m = _measure(tmp_path, trace, "--system", "hicv1")
        capsys.readouterr()  # drop the gen/measure progress lines
        assert main(["stats", "--measurements", str(m)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"mean_gap_us", "var_gap_us2", "mean_count", "rate_per_s"}
        assert doc["rate_per_s"] > 0

    def test_short_series_is_insufficient(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("m_ns,count\n100,1\n", encoding="utf-8")
        assert main(["stats", "--measurements", str(p)]) == 2


class TestTimeFlags:
    """Flags given in seconds or microseconds become int64 nanoseconds or a config error."""

    COMMANDS = {
        "--duration-s": ["gen", "--preset", "high-rate"],
        "--attack-period-us": ["gen", "--mean-gap-us", "20"],
        "--window-s": ["experiment", "--preset", "high-rate"],
        "--pack-us": ["measure", "--abs-us", "300"],
        "--abs-us": ["measure", "--pack-us", "30"],
        "--tic-us": ["measure"],
    }

    @pytest.mark.parametrize("value", ["nan", "inf", "1e300"])
    @pytest.mark.parametrize("flag", sorted(COMMANDS))
    def test_non_finite_time_is_config_error(self, tmp_path, capsys, flag, value):
        command = self.COMMANDS[flag]
        argv = command + [flag, value, "--out", str(tmp_path / "out")]
        if command[0] == "measure":
            argv += ["--trace", str(_gen(tmp_path))]
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and flag in err and "Traceback" not in err


class TestUsageErrors:
    def test_missing_subcommand(self):
        assert main([]) == 1

    def test_unknown_flag(self):
        assert main(["gen", "--bogus"]) == 1
