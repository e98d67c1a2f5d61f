"""End-to-end tests of the command line front end and its exit codes."""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from icmeas import cli, harness
from icmeas.cli import main
from icmeas.harness import trial_seeds
from icmeas.meassim import load_measurements
from icmeas.pad import PadConfig
from icmeas.pdmm import DetectionReport, PdmmConfig
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
        # the same holds without a preset, where no --attack-period-us is needed
        custom = ["gen", "--mean-gap-us", "50", "--duration-s", "0.1", "--out"]
        assert main(custom + [str(tmp_path / "c.csv")]) == 0
        jitter = ["--no-attack", "--attack-jitter-us", "3"]
        assert main(custom + [str(tmp_path / "cj.csv"), *jitter]) == 0
        assert load_trace(tmp_path / "cj.csv") == load_trace(tmp_path / "c.csv")

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

    def test_attack_jitter_moves_only_the_attack(self, tmp_path):
        argv = ["gen", "--preset", "high-rate", "--duration-s", "0.1", "--seed", "1", "--out"]
        assert main(argv + [str(tmp_path / "a.csv")]) == 0
        assert main(argv + [str(tmp_path / "j.csv"), "--attack-jitter-us", "3"]) == 0
        plain, jittered = load_trace(tmp_path / "a.csv"), load_trace(tmp_path / "j.csv")
        for col in ("t_ns", "size_bytes"):
            background = [getattr(t, col)[t.label == 0] for t in (plain, jittered)]
            assert np.array_equal(*background)
        attack = [t.t_ns[t.label == 1] for t in (plain, jittered)]
        assert len(attack[0]) == len(attack[1]) == 250
        moved = np.abs(attack[1] - attack[0])
        period_ns = harness.TRAFFIC_PRESETS["high-rate"][1].period_ns
        assert moved.min() >= 1 and moved.max() <= period_ns // 2 - 1

    @pytest.mark.parametrize(
        "traffic",
        [["--preset", "high-rate"], ["--mean-gap-us", "50", "--attack-period-us", "500"]],
        ids=["preset", "custom"],
    )
    def test_attack_jitter_draws_from_the_seed(self, tmp_path, traffic):
        # --seed seeds the attack jitter as well as the background
        argv = ["gen", *traffic, "--attack-jitter-us", "3", "--duration-s", "0.1", "--out"]
        attack = []
        for seed in ("1", "2", "2"):
            out = tmp_path / f"s{seed}.csv"
            assert main(argv + [str(out), "--seed", seed]) == 0
            trace = load_trace(out)
            attack.append(trace.t_ns[trace.label == 1])
        assert len(attack[0]) == len(attack[1]) > 0
        assert not np.array_equal(attack[0], attack[1])
        assert np.array_equal(attack[1], attack[2])

    def test_requires_preset_or_mean_gap(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert main(["gen", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "config error: one of the arguments --preset --mean-gap-us is required\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "mean_gap_us, message",
        [
            ("1e304", "mean_gap_ns must be below 2**63"),
            ("1e-303", "duration_ns / mean_gap_ns must be below 2**63"),
        ],
        ids=["gap-past-int64", "packets-past-int64"],
    )
    def test_mean_gap_past_int64_is_config_error(self, tmp_path, capsys, mean_gap_us, message):
        # unchecked, the first gap sums overflow to inf (numpy warnings, a header-only
        # trace), or the first chunk is sized from an inf packet count (OverflowError)
        out = tmp_path / "t.csv"
        argv = ["gen", "--mean-gap-us", mean_gap_us, "--duration-s", "1", "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--preset", "high-rate", "--seed", "-1"], "seed must be non-negative"),
            (["--mean-gap-us", "50", "--seed", "-1"], "seed must be non-negative"),
            (["--mean-gap-us", "50", "--attack-period-us", "0"], "period_ns must be positive"),
            # an attack flag without the period that sends the attack
            (
                ["--mean-gap-us", "50", "--attack-size-bytes", "900", "--attack-jitter-us", "3"],
                "--attack-size-bytes, --attack-jitter-us cannot be used without --attack-period-us",
            ),
            (
                ["--mean-gap-us", "50", "--attack-jitter-us", "3"],
                "--attack-jitter-us cannot be used without --attack-period-us",
            ),
        ],
        ids=[
            "preset-negative-seed",
            "negative-seed",
            "zero-attack-period",
            "attack-flags-without-period",
            "jitter-without-period",
        ],
    )
    def test_bad_values_are_config_errors(self, tmp_path, capsys, extra, message):
        out = tmp_path / "t.csv"
        assert main(["gen", "--duration-s", "0.1", "--out", str(out), *extra]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--mean-gap-us", "5"], "argument --mean-gap-us: not allowed with argument --preset"),
            (["--attack-period-us", "400"], "--attack-period-us cannot be combined with --preset"),
            (["--size-bytes", "500"], "--size-bytes cannot be combined with --preset"),
            (["--attack-size-bytes", "1500"], "--attack-size-bytes cannot be combined with --preset"),
            # argparse refuses --mean-gap-us as it parses, before any custom flag is checked
            (
                ["--attack-period-us", "400", "--mean-gap-us", "5"],
                "argument --mean-gap-us: not allowed with argument --preset",
            ),
            (
                ["--attack-period-us", "400", "--size-bytes", "500"],
                "--size-bytes, --attack-period-us cannot be combined with --preset",
            ),
        ],
        ids=["mean-gap", "attack-period", "size", "attack-size", "two", "two-custom"],
    )
    def test_preset_rejects_custom_trace_flags(self, tmp_path, capsys, extra, message):
        out = tmp_path / "t.csv"
        argv = ["gen", "--preset", "high-rate", "--duration-s", "0.1", "--out", str(out), *extra]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    def test_custom_trace_defaults(self, tmp_path):
        # sizes left out are 500 bytes for the background and 1500 for the attack
        out = tmp_path / "t.csv"
        argv = ["gen", "--mean-gap-us", "50", "--attack-period-us", "500", "--duration-s", "0.1"]
        assert main(argv + ["--out", str(out)]) == 0
        trace = load_trace(out)
        assert set(trace.size_bytes[trace.label == 0].tolist()) == {500}
        assert set(trace.size_bytes[trace.label == 1].tolist()) == {1500}


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

    def test_needs_some_scheme(self, tmp_path, capsys):
        trace = _gen(tmp_path)
        out = tmp_path / "m.csv"
        capsys.readouterr()
        assert main(["measure", "--trace", str(trace), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == (
            "config error: one of the arguments --system --pack-us --tic-us --pic-count is required\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra, message",
        [
            (
                ["--system", "hicv1", "--pic-count", "5"],
                "argument --pic-count: not allowed with argument --system",
            ),
            (
                ["--pack-us", "30", "--abs-us", "300", "--tic-us", "100"],
                "argument --tic-us: not allowed with argument --pack-us",
            ),
            # argparse stops at the second choice it parses
            (
                ["--tic-us", "100", "--pic-count", "5", "--system", "hicv2"],
                "argument --pic-count: not allowed with argument --tic-us",
            ),
            (
                ["--pack-us", "30", "--tic-us", "100"],
                "argument --tic-us: not allowed with argument --pack-us",
            ),
            (["--pack-us", "30"], "--pack-us and --abs-us go together: --abs-us is missing"),
            (
                ["--abs-us", "300"],
                "one of the arguments --system --pack-us --tic-us --pic-count is required",
            ),
            (
                ["--system", "hicv1", "--abs-us", "300"],
                "--pack-us and --abs-us go together: --pack-us is missing",
            ),
        ],
        ids=[
            "system-pic",
            "hic-tic",
            "three",
            "lone-pack-tic",
            "lone-pack",
            "lone-abs",
            "abs-beside-system",
        ],
    )
    def test_one_coalescence_choice(self, tmp_path, capsys, extra, message):
        trace = _gen(tmp_path)
        out = tmp_path / "m.csv"
        capsys.readouterr()
        assert main(["measure", "--trace", str(trace), "--out", str(out), *extra]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists() and not (tmp_path / "m.csv.json").exists()

    @pytest.mark.parametrize(
        "text",
        [
            b"t_ns,size,label\n100,500,0\n",
            b"t_ns,size_bytes,label\n100,500,-1\n",
            b"t_ns,size_bytes,label\n-5,500,0\n",
            b"t_ns,size_bytes,label\n200,500,0\n100,500,0\n",
            b"\x7fELF\x02\x01\x01\x00\xff\xfe\n\x00\x00",
            b"t_ns,size_bytes,label\n# note\n100,500,0\n",
            b"t_ns,size_bytes,label\n100,500,0 # note\n",
        ],
        ids=[
            "bad-header",
            "bad-label",
            "negative-time",
            "unsorted",
            "not-utf8",
            "comment-line",
            "trailing-comment",
        ],
    )
    def test_malformed_trace_is_invalid_input(self, tmp_path, capsys, text):
        trace = tmp_path / "t.csv"
        trace.write_bytes(text)
        argv = ["measure", "--trace", str(trace), "--system", "hicv1", "--out", str(tmp_path / "m.csv")]
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert err.startswith("invalid input file:") and "Traceback" not in err

    @pytest.mark.parametrize(
        "row, rate_gbps",
        [
            ("100,9000000000000000000,0", "1"),
            ("9223372036854775000,1500,0", "1"),
            ("0,1000000000000000000,0", "1e-299"),  # the double product of the delay is inf
        ],
        ids=["delay-past-int64", "time-plus-delay-past-int64", "delay-past-the-double-range"],
    )
    def test_int64_overflow_is_invalid_input_and_writes_nothing(self, tmp_path, capsys, row, rate_gbps):
        trace = tmp_path / "t.csv"
        trace.write_text(f"t_ns,size_bytes,label\n{row}\n")
        out = str(tmp_path / "m.csv")
        argv = ["measure", "--trace", str(trace), "--system", "hicv1", "--rate-gbps", rate_gbps, "--out", out]
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"invalid input file: {trace}:") and "int64" in err and "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]

    def test_pic_round_trip_with_tied_arrivals(self, tmp_path, capsys):
        # two packets at 100 ns: one interrupt per packet would repeat m_ns
        trace = tmp_path / "t.csv"
        trace.write_text("t_ns,size_bytes,label\n100,500,0\n100,500,0\n200,500,0\n")
        out = tmp_path / "m.csv"
        argv = ["measure", "--trace", str(trace), "--pic-count", "1", "--out", str(out)]
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert err.startswith("invalid input file:") and "strictly increasing" in err
        # the error names the file, the tie (4 us of transfer delay later) and the count
        assert str(trace) in err and "t_ns=4100" in err and "--pic-count of 1" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]
        # a count that groups the tie writes a file that stats reads back
        _measure(tmp_path, trace, "--pic-count", "2")
        assert main(["stats", "--measurements", str(out)]) == 0
        assert load_measurements(out).count.tolist() == [2, 1]

    def test_nan_rate_is_config_error(self, tmp_path, capsys):
        # a NaN rate used to exit 0 and write m_ns near -9.22e18
        argv = ["measure", "--trace", str(_gen(tmp_path)), "--system", "hicv1"]
        assert main(argv + ["--rate-gbps", "nan", "--out", str(tmp_path / "m.csv")]) == 1
        assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp_path / "m.csv").exists()
        # so small a rate that a byte's delay is infinite
        assert main(argv + ["--rate-gbps", "1e-310", "--out", str(tmp_path / "m.csv")]) == 1
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

    def test_pipe_is_io_error_and_writes_nothing(self, tmp_path, capsys):
        # The reader checks the header through one open and parses the body
        # through a second; a pipe would hand the second only what the first
        # left unread, so it is refused.  The body is far larger than one
        # read buffer, so the writer is still writing when the reader stops.
        fifo = tmp_path / "trace.fifo"
        os.mkfifo(fifo)
        body = "".join(f"{i * 10},1500,0\n" for i in range(100_000))

        def feed():
            try:
                with open(fifo, "w", encoding="utf-8") as w:
                    w.write("t_ns,size_bytes,label\n" + body)
            except BrokenPipeError:
                pass  # the reader closed its end

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        out = tmp_path / "m.csv"
        argv = ["measure", "--trace", str(fifo), "--system", "hicv1", "--out", str(out)]
        try:
            assert main(argv) == 3
        finally:
            # release a writer still waiting for a reader to open the pipe
            os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
            writer.join(timeout=30)
        assert not writer.is_alive()
        err = capsys.readouterr().err
        assert err.startswith("i/o error:") and "not seekable" in err
        assert not out.exists()


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

    def _detect_with_config(self, tmp_path, doc, detector="pdmm", *flags):
        m = tmp_path / "m.csv"
        m.write_text("m_ns,count\n100,1\n200,1\n", encoding="utf-8")
        cfg = tmp_path / "det.json"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        argv = ["detect", "--detector", detector, "--measurements", str(m), "--config", str(cfg)]
        return main([*argv, *flags])

    @pytest.mark.parametrize(
        "detector, section, flag",
        [
            ("pdmm", {"threshold": 0.01}, {}),
            ("pdmm", {"high_cutoff_ns": 3_000_000}, {"threshold": 0.02}),
            ("pad", {"window": 4096}, {}),
            ("pad", {"segments": 4}, {"peak_factor": 6.0}),
        ],
    )
    def test_partial_config_section_starts_from_the_preset(
        self, tmp_path, monkeypatch, detector, section, flag
    ):
        used = []
        monkeypatch.setattr(
            cli, "run_detector", lambda name, ms, cfg: used.append(cfg) or DetectionReport(None, 0)
        )
        flags = [a for k, v in flag.items() for a in ("--" + k.replace("_", "-"), str(v))]
        assert self._detect_with_config(tmp_path, {detector: section}, detector, *flags) == 0
        preset = {"pdmm": PdmmConfig(), "pad": PadConfig()}[detector]
        assert used == [dataclasses.replace(preset, **section, **flag)]

    def test_config_section_with_misspelled_key(self, tmp_path, capsys):
        assert self._detect_with_config(tmp_path, {"pdmm": {"treshold": 0.01}}) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "treshold" in err

    def test_config_section_must_be_an_object(self, tmp_path):
        assert self._detect_with_config(tmp_path, {"pad": [1, 2]}, detector="pad") == 1
        assert self._detect_with_config(tmp_path, {"pad": 3}, detector="pad") == 1
        assert self._detect_with_config(tmp_path, [1, 2], detector="pad") == 1
        assert self._detect_with_config(tmp_path, None, detector="pad") == 1

    @pytest.mark.parametrize("detector", ["pdmm", "pad"])
    def test_null_config_section_takes_the_defaults(self, tmp_path, monkeypatch, detector):
        # as in experiment --config, whose echo writes null for a detector it did not run
        used = []
        monkeypatch.setattr(
            cli, "run_detector", lambda name, ms, cfg: used.append(cfg) or DetectionReport(None, 0)
        )
        assert self._detect_with_config(tmp_path, {"pdmm": None, "pad": None}, detector) == 0
        assert used == [{"pdmm": PdmmConfig(), "pad": PadConfig()}[detector]]

    def test_config_section_with_wrong_typed_value(self, tmp_path):
        assert self._detect_with_config(tmp_path, {"pad": {"window": "8192"}}, "pad") == 1

    def test_pdmm_histogram_too_large_is_config_error(self, tmp_path, capsys):
        # a span near 2**62 cannot be keyed four blocks at a time in int64
        m = _measure(tmp_path, _gen(tmp_path), "--system", "hicv1")
        cfg = tmp_path / "det.json"
        section = {"low_cutoff_ns": 0, "high_cutoff_ns": 4611686018427387800, "bin_width_ns": 1}
        cfg.write_text(json.dumps({"pdmm": section}), encoding="utf-8")
        out = tmp_path / "r.json"
        argv = ["detect", "--detector", "pdmm", "--measurements", str(m), "--config", str(cfg)]
        capsys.readouterr()
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "histogram span 4611686018427387800 ns is too large" in err
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("duration_s", ["0.5", "2"])
    def test_pad_band_without_a_bin_is_config_error(self, tmp_path, capsys, duration_s):
        # 0.5 s is shorter than one 8192-sample window, so the detector never
        # scans; the band is rejected with the config either way
        trace = _gen(tmp_path, "--duration-s", duration_s)
        m = _measure(tmp_path, trace, "--system", "hicv2")
        cfg = tmp_path / "det.json"
        cfg.write_text(json.dumps({"pad": {"min_freq_hz": 200.0, "max_freq_hz": 205.0}}))
        argv = ["detect", "--detector", "pad", "--measurements", str(m), "--config", str(cfg)]
        argv += ["--out", str(tmp_path / "r.json")]
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "no frequency bins" in err
        assert not (tmp_path / "r.json").exists()

    def test_pad_window_beyond_memory_is_insufficient_data(self, tmp_path, capsys):
        # the band check must not materialize the 2**59 bins of one segment
        capsys.readouterr()
        assert self._detect_with_config(tmp_path, {"pad": {"window": 2**62}}, "pad") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["blocks"] == 0 and report["detected"] is False

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
        "body", ["# note\n100,1\n", "100,1 # note\n"], ids=["comment-line", "trailing-comment"]
    )
    @pytest.mark.parametrize(
        "command", [["detect", "--detector", "pdmm"], ["stats"]], ids=["detect", "stats"]
    )
    def test_hash_in_measurement_file_is_invalid_input(self, tmp_path, capsys, command, body):
        m = tmp_path / "m.csv"
        m.write_text("m_ns,count\n" + body, encoding="utf-8")
        assert main(command + ["--measurements", str(m)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("invalid input file:") and str(m) in err

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

    @pytest.mark.parametrize(
        "detector, flag, owner",
        [("pad", "--threshold", "pdmm"), ("pdmm", "--peak-factor", "pad")],
        ids=["threshold-with-pad", "peak-factor-with-pdmm"],
    )
    def test_other_detectors_flag_is_config_error(self, tmp_path, capsys, detector, flag, owner):
        m = tmp_path / "m.csv"
        m.write_text("m_ns,count\n100,1\n200,1\n", encoding="utf-8")
        out = tmp_path / "r.json"
        argv = ["detect", "--detector", detector, "--measurements", str(m), flag, "2"]
        assert main(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == f"config error: {flag} is a flag of --detector {owner}\n"
        assert not out.exists()


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

    @pytest.mark.parametrize(
        "changes, key",
        [
            (
                {"attack": {"period_ns": 1180591620717411303424, "duration_ns": 0}},
                "config.attack.period_ns",
            ),
            ({"coalescence": {"type": "TicConfig", "timer_ns": 2**63}}, "config.coalescence.timer_ns"),
            ({"seed_base": 2**63}, "config.seed_base"),
        ],
        ids=["attack-period", "tic-timer", "seed-base"],
    )
    def test_int_outside_int64_is_config_error_and_writes_nothing(self, tmp_path, capsys, changes, key):
        path = self._write_config(tmp_path, **changes)
        assert main(["experiment", "--config", str(path), "--out", str(tmp_path / "r")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err and "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["exp.json"]

    def test_non_utf8_config_file_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "exp.json"
        path.write_bytes(b"\xff\xfe{\x00}\x00")
        assert main(["experiment", "--config", str(path), "--out", str(tmp_path / "r")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err

    @pytest.mark.parametrize(
        "extra",
        [
            ["--seed", "-1"],
            ["--systems", ""],
            ["--systems", ","],
            ["--systems", "hicv1,hicv1"],
            ["--detectors", "pdmm,pdmm"],
        ],
        ids=["negative-seed", "no-systems", "comma-only-systems", "repeated-system", "repeated-detector"],
    )
    def test_bad_preset_run_is_config_error_and_writes_nothing(self, tmp_path, capsys, extra):
        out = tmp_path / "r"
        argv = ["experiment", "--preset", "high-rate", "--window-s", "2", "--out", str(out), *extra]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_unknown_system_fails_before_any_trial(self, tmp_path, capsys, monkeypatch):
        def no_trace(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(harness, "_trial_arrivals", no_trace)
        out = tmp_path / "r"
        argv = ["experiment", "--preset", "high-rate", "--systems", "hicv1,bogus", "--trials", "5"]
        assert main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "config error: unknown coalescence preset: 'bogus'\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "flag", [["--systems", "hicv2"], ["--detectors", "pad"], ["--no-attack"], ["--window-s", "2"]],
        ids=["systems", "detectors", "no-attack", "window-s"],
    )
    def test_preset_run_flags_with_config_are_config_errors(self, tmp_path, capsys, flag):
        path = self._write_config(tmp_path)
        argv = ["experiment", "--config", str(path), "--out", str(tmp_path / "r"), *flag]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and flag[0] in err and "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["exp.json"]

    # SHA-256 of the .json and .csv result files; changing how trials are
    # scheduled across systems must not move them.  The tic-config run's
    # attack is jittered, and each trial draws its jitter from the trial seed
    PINNED = {
        "preset": (
            "7e64c110e2d58a8afd3c5d98f770025761eda628a5846451403ae4c1b8e39ae7",
            "c249bdec6f04490f9dbda9493d2a6e2cf467bfe68ea851afdf2f3c7727c6d2e5",
        ),
        "tic-config": (
            "632af5a66a3207439e1733b1c83d7b2d8313ce7ad7580b8a9287fdefa44c4295",
            "c15342226fde5431f5e36d05391bd9f82f5ad6f50d7114543d621f1c4ebba424",
        ),
    }

    @pytest.mark.parametrize("run", sorted(PINNED))
    def test_result_files_match_pinned_digests(self, tmp_path, run):
        out = tmp_path / "r"
        if run == "preset":
            argv = ["--preset", "high-rate", "--window-s", "4", "--trials", "2", "--seed", "123"]
        else:
            cfg = {
                "background": {"mean_gap_ns": 19_000.0, "duration_ns": 0, "seed": 0, "size_bytes": 500},
                "attack": {
                    "period_ns": 400_000,
                    "duration_ns": 0,
                    "size_bytes": 1500,
                    "jitter_stddev_ns": 20_000.0,
                    "seed": 3,
                },
                "coalescence": {"type": "TicConfig", "timer_ns": 100_000},
                "detection_window_ns": 5_000_000_000,
                "trials": 2,
                "seed_base": 11,
            }
            (tmp_path / "exp.json").write_text(json.dumps(cfg), encoding="utf-8")
            argv = ["--config", str(tmp_path / "exp.json")]
        assert main(["experiment", *argv, "--out", str(out)]) == 0
        digests = tuple(
            hashlib.sha256(out.with_suffix(ext).read_bytes()).hexdigest() for ext in (".json", ".csv")
        )
        assert digests == self.PINNED[run]

    def test_needs_preset_or_config(self, tmp_path, capsys):
        assert main(["experiment", "--out", str(tmp_path / "r")]) == 1
        err = capsys.readouterr().err
        assert err == "config error: one of the arguments --preset --config is required\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "order, message",
        [
            ("preset-first", "argument --config: not allowed with argument --preset"),
            ("config-first", "argument --preset: not allowed with argument --config"),
        ],
        ids=["preset-first", "config-first"],
    )
    def test_preset_with_config_is_config_error_and_writes_nothing(
        self, tmp_path, capsys, order, message
    ):
        # the config would run on its own; the preset beside it is not dropped
        flags = [["--preset", "high-rate"], ["--config", str(self._write_config(tmp_path))]]
        if order == "config-first":
            flags.reverse()
        assert main(["experiment", *flags[0], *flags[1], "--out", str(tmp_path / "r")]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["exp.json"]

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

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("100,1\n200,0\n", "measurement counts must be >= 1"),
            ("200,1\n100,1\n", "m_ns must be nondecreasing"),
            ("100,1\n100,1\n", "measurement timestamps must be strictly increasing"),
            ("-5,1\n10,1\n", "m_ns must be non-negative"),
        ],
        ids=["zero-count", "decreasing", "repeated", "negative-time"],
    )
    def test_broken_invariant_names_the_file(self, tmp_path, capsys, rows, message):
        p = tmp_path / "m.csv"
        p.write_text("m_ns,count\n" + rows, encoding="utf-8")
        out = tmp_path / "r.json"
        for command in (
            ["stats"],
            ["detect", "--detector", "pdmm", "--out", str(out)],
            ["detect", "--detector", "pad", "--out", str(out)],
        ):
            assert main(command + ["--measurements", str(p)]) == 4
            assert capsys.readouterr() == ("", f"invalid input file: {p}: {message}\n")
        assert not out.exists()

    def test_sidecar_that_cannot_be_read_is_io_error(self, tmp_path, capsys):
        p = tmp_path / "m.csv"
        p.write_text("m_ns,count\n100,1\n200,1\n", encoding="utf-8")
        (tmp_path / "m.csv.json").mkdir()
        assert main(["stats", "--measurements", str(p)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("i/o error:") and f"{p}.json" in err

    def test_sidecar_that_is_not_an_object_is_invalid_input(self, tmp_path, capsys):
        p = tmp_path / "m.csv"
        p.write_text("m_ns,count\n100,1\n200,1\n", encoding="utf-8")
        (tmp_path / "m.csv.json").write_text("[]", encoding="utf-8")
        assert main(["stats", "--measurements", str(p)]) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"invalid input file: {p}.json:") and "Traceback" not in err


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


class TestIntFlags:
    """Integer flags must fit int64, as a config file's integers must."""

    COMMANDS = {
        ("gen", "--size-bytes"): ["gen", "--mean-gap-us", "50"],
        ("gen", "--attack-size-bytes"): ["gen", "--mean-gap-us", "50", "--attack-period-us", "400"],
        ("gen", "--seed"): ["gen", "--preset", "high-rate"],
        ("measure", "--pic-count"): ["measure"],
        ("experiment", "--trials"): ["experiment", "--preset", "high-rate"],
        ("experiment", "--seed"): ["experiment", "--preset", "high-rate"],
    }

    @pytest.mark.parametrize("value", [str(2**63), "100000000000000000000000", str(-(2**63) - 1)])
    @pytest.mark.parametrize("command, flag", sorted(COMMANDS))
    def test_int_outside_int64_is_config_error_and_writes_nothing(
        self, tmp_path, capsys, command, flag, value
    ):
        argv = self.COMMANDS[command, flag] + [flag, value, "--out", str(tmp_path / "out")]
        if command == "measure":
            argv += ["--trace", str(_gen(tmp_path))]
        before = sorted(p.name for p in tmp_path.iterdir())
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"config error: argument {flag}: must fit int64, not {value}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    def test_non_integer_is_config_error(self, capsys):
        assert main(["gen", "--preset", "high-rate", "--seed", "1.5", "--out", "x"]) == 1
        assert capsys.readouterr().err == "config error: argument --seed: invalid int value: '1.5'\n"


# Runs in a fresh interpreter: import icmeas, then each command through cli.main,
# recording its exit code and whether scipy.special has been imported by then.
_COLD_START = """
import json, sys
loaded = lambda: "scipy.special" in sys.modules
steps = []
import icmeas
from icmeas.cli import main
steps.append(["import icmeas", 0, loaded()])
trace, m, out = sys.argv[2:5]
for argv in (
    ["gen", "--preset", "high-rate", "--duration-s", "1", "--out", trace],
    ["measure", "--trace", trace, "--system", "hicv1", "--out", m],
    ["stats", "--measurements", m],
    ["detect", "--detector", "pad", "--measurements", m, "--out", out],
    ["detect", "--detector", "pdmm", "--measurements", m, "--out", out],
):
    code = main(argv)
    steps.append([" ".join(argv[:3]), code, loaded()])
with open(sys.argv[1], "w") as f:
    json.dump(steps, f)
"""


def test_only_pdmm_loads_scipy_special(tmp_path):
    src = str(Path(harness.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    files = [str(tmp_path / n) for n in ("steps.json", "trace.csv", "m.csv", "r.json")]
    run = subprocess.run(
        [sys.executable, "-c", _COLD_START, *files],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    steps = json.loads((tmp_path / "steps.json").read_text(encoding="utf-8"))
    assert [(code, loaded) for _, code, loaded in steps] == [(0, False)] * 5 + [(0, True)], steps


class TestUsageErrors:
    def test_missing_subcommand(self):
        assert main([]) == 1

    def test_unknown_flag(self):
        assert main(["gen", "--bogus"]) == 1

    def test_parser_is_built_once_and_parses_each_argv_afresh(self, capsys):
        assert cli._build_parser() is cli._build_parser()
        args = cli._build_parser().parse_args(["gen", "--preset", "high-rate", "--out", "a.csv"])
        assert (args.preset, args.mean_gap_us, args.seed) == ("high-rate", None, 0)
        # a failed parse leaves no state behind for the next one
        assert main(["gen", "--preset", "high-rate", "--out", "a.csv", "--bogus"]) == 1
        assert capsys.readouterr().err == "config error: unrecognized arguments: --bogus\n"
        args = cli._build_parser().parse_args(["gen", "--mean-gap-us", "5", "--out", "b.csv"])
        assert (args.preset, args.mean_gap_us, args.seed, args.out) == (None, 5.0, 0, "b.csv")
        args = cli._build_parser().parse_args(["stats", "--measurements", "m.csv"])
        assert vars(args) == {"command": "stats", "measurements": "m.csv"}
