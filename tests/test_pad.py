"""Spectral detector: rasterization, transform correctness, peak test."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icmeas import pad
from icmeas.errors import ConfigError
from icmeas.harness import COALESCENCE_PRESETS, build_trace, preset_traffic
from icmeas.meassim import MeasurementSeries, TransferConfig, measure
from icmeas.pad import PadConfig, detect_psd, periodogram, rasterize
from oracles import pad_scan_reference

US = 1000
SECOND = 1_000_000_000


def _series(m_us, counts):
    return MeasurementSeries(
        np.array(m_us, np.int64) * US, np.array(counts, np.int64), {}
    )


class TestConfig:
    def test_defaults_valid(self):
        cfg = PadConfig()
        assert cfg.segment_len == 1024

    @pytest.mark.parametrize(
        "kw",
        [
            {"sample_interval_ns": 0},
            {"window": 63},
            {"window": 100},  # not a power of two
            {"segments": 0},
            {"segments": 3},  # does not divide 8192
            {"peak_factor": 1.0},
            {"min_freq_hz": -1.0},
            {"min_freq_hz": 300.0, "max_freq_hz": 200.0},
            {"max_freq_hz": 9000.0},  # beyond Nyquist at 100 us sampling
            # between the 195.3 and 205.1 Hz bins of a 1024-sample segment
            {"min_freq_hz": 200.0, "max_freq_hz": 205.0},
            # one sample per segment: every periodogram would need at least 2
            {"window": 64, "segments": 64, "min_freq_hz": 0.0, "max_freq_hz": 10.0},
        ],
    )
    def test_invalid(self, kw):
        with pytest.raises(ConfigError):
            PadConfig(**kw)

    def test_one_ns_sample_interval_is_accepted(self):
        # the least positive interval: 64-sample segments then hold ~15.6 MHz bins
        cfg = PadConfig(
            sample_interval_ns=1, window=64, segments=1, min_freq_hz=1e8, max_freq_hz=5e8
        )
        assert cfg.bin_hz == pytest.approx(15.625e6)
        assert cfg.band == range(7, 33)

    def test_band_search_steps_down_onto_the_bin_at_min_freq(self):
        # min_freq_hz over the 26.04 Hz bin width is 11.000000000000002, yet bin
        # 11 sits on min_freq_hz: a ceil of that ratio would start the band at 12
        kw = dict(
            sample_interval_ns=300_000, window=1024, segments=8, min_freq_hz=286.45833333333337
        )
        freqs = np.fft.rfftfreq(1024 // 8, d=300_000 / 1e9)
        assert np.flatnonzero(freqs >= kw["min_freq_hz"])[0] == 11
        assert PadConfig(**kw, max_freq_hz=1000.0).band.start == 11
        # bin 11 is the only one in this band
        assert PadConfig(**kw, max_freq_hz=300.0).band == range(11, 12)

    @pytest.mark.parametrize("sample_interval_ns", [1_000, 100_000, 123_457])
    @pytest.mark.parametrize("window,segments", [(64, 1), (1024, 4), (8192, 8)])
    def test_band_check_matches_rfftfreq(self, sample_interval_ns, window, segments):
        # edges on a bin, one ulp either side of it, and halfway between bins
        seg = window // segments
        freqs = np.fft.rfftfreq(seg, d=sample_interval_ns / 1e9)
        picked = freqs[[0, 1, 2, seg // 4, -2, -1]]
        edges = {
            float(e) for f in picked for e in (np.nextafter(f, -np.inf), f, np.nextafter(f, np.inf))
        }
        edges |= {float(f + freqs[1] / 2) for f in picked[:-1]}
        nyquist = 0.5e9 / sample_interval_ns
        edges = sorted(e for e in edges if 0.0 <= e <= nyquist)
        decisions = set()
        for lo in edges:
            for hi in (e for e in edges if e > lo):
                expected = np.flatnonzero((freqs >= lo) & (freqs <= hi))
                try:
                    cfg = PadConfig(
                        sample_interval_ns, window, segments, min_freq_hz=lo, max_freq_hz=hi
                    )
                except ConfigError:
                    assert len(expected) == 0, (lo, hi)
                    decisions.add(False)
                    continue
                assert list(cfg.band) == expected.tolist(), (lo, hi)
                assert [k * cfg.bin_hz for k in cfg.band] == freqs[expected].tolist(), (lo, hi)
                decisions.add(True)
        assert decisions == {True, False}


class TestRasterize:
    def test_hand_example(self):
        out = rasterize(_series([50, 90], [3, 1]), 100 * US)
        np.testing.assert_array_equal(out, [4.0])

    def test_empty_requested_length(self):
        out = rasterize(_series([], []), 100 * US, n_samples=5)
        np.testing.assert_array_equal(out, np.zeros(5))

    def test_empty_default_length(self):
        assert len(rasterize(_series([], []), 100 * US)) == 0

    def test_bin_boundary(self):
        out = rasterize(_series([99, 100], [2, 5]), 100 * US)
        np.testing.assert_array_equal(out, [2.0, 5.0])

    def test_conservation(self):
        rng = np.random.default_rng(5)
        m = np.sort(rng.integers(0, 10_000_000, 300))
        c = rng.integers(1, 9, 300)
        ms = MeasurementSeries(m.astype(np.int64), c.astype(np.int64), {})
        assert rasterize(ms, 70 * US).sum() == c.sum()

    def test_truncation_drops_late_counts(self):
        out = rasterize(_series([50, 250], [3, 4]), 100 * US, n_samples=2)
        np.testing.assert_array_equal(out, [3.0, 0.0])

    @pytest.mark.parametrize("n_samples", [None, 2])
    def test_float_interval_bins_as_int(self, n_samples):
        ms = _series([99, 100, 250], [2, 5, 4])
        out = rasterize(ms, 100.0 * US, n_samples)
        np.testing.assert_array_equal(out, [2.0, 5.0, 4.0][:n_samples])

    @staticmethod
    def _mask_cut(ms, sample_interval_ns, n_samples):
        idx = ms.m_ns // sample_interval_ns
        keep = idx < n_samples
        return np.bincount(idx[keep], weights=ms.count[keep], minlength=n_samples)

    @pytest.mark.parametrize("seed", range(5))
    def test_window_cut_equals_the_mask_cut(self, seed):
        # tied stamps, and grid ends before, on, between and past the stamps
        rng = np.random.default_rng(seed)
        m = np.sort(rng.integers(0, 50, 400)) * 1_000
        ms = MeasurementSeries(m, rng.integers(1, 9, 400), {})
        for si in (1_000, 3_000, 7_777):
            for n_samples in range(0, 52_000 // si + 2):
                got = rasterize(ms, si, n_samples)
                assert got.tolist() == self._mask_cut(ms, si, n_samples).tolist()

    def test_window_edge_on_a_stamp_drops_it(self):
        ms = _series([100, 200, 200, 300], [1, 2, 3, 4])
        out = rasterize(ms, 100 * US, np.int64(2))  # the grid ends at 200 us
        np.testing.assert_array_equal(out, [0.0, 1.0])

    def test_zero_samples_keep_nothing(self):
        assert len(rasterize(_series([0, 5], [1, 2]), 100 * US, 0)) == 0

    def test_window_past_int64_keeps_every_measurement(self):
        # 4 * 2**62 ns passes int64: every stamp lies inside the grid
        big = 2**62
        ms = MeasurementSeries(np.array([0, big - 1, big, 2**63 - 1]), np.array([1, 2, 3, 4]), {})
        out = rasterize(ms, big, 4)
        np.testing.assert_array_equal(out, [3.0, 7.0, 0.0, 0.0])
        assert out.tolist() == self._mask_cut(ms, big, 4).tolist()

    def test_one_ns_interval_is_accepted(self):
        ms = MeasurementSeries(np.array([0, 2, 2]), np.array([1, 2, 3]), {})
        np.testing.assert_array_equal(rasterize(ms, 1), [1.0, 0.0, 5.0])

    def test_validation(self):
        with pytest.raises(ConfigError):
            rasterize(_series([1], [1]), 0)
        with pytest.raises(ConfigError):
            rasterize(_series([1], [1]), 100, n_samples=-1)


class TestPeriodogram:
    def test_parseval(self):
        rng = np.random.default_rng(8)
        for n in (64, 255, 1024):
            x = rng.normal(10.0, 3.0, n)
            spec = periodogram(x)
            energy = np.sum((x - x.mean()) ** 2)
            assert abs(spec.sum() - energy) / energy < 1e-6

    def test_sinusoid_concentrates(self):
        n = 1024
        t = np.arange(n)
        x = np.sin(2 * np.pi * 32 * t / n)
        spec = periodogram(x)
        assert np.argmax(spec) == 32
        assert spec[32] / spec.sum() > 0.999999

    def test_too_short(self):
        with pytest.raises(ConfigError):
            periodogram(np.array([1.0]))

    def test_two_samples(self):
        # deviations -1 and 1: all their energy, 2, sits in the Nyquist bin
        np.testing.assert_array_equal(periodogram(np.array([1.0, 3.0])), [0.0, 2.0])


class TestDetectPsd:
    CFG = PadConfig(window=4096, segments=4, peak_factor=8.0)

    def test_sinusoid_detected_first_window(self):
        # 2500 Hz lands on an exact segment bin (resolution 9.765625 Hz)
        dt = self.CFG.sample_interval_ns / 1e9
        t = np.arange(3 * 4096) * dt
        series = 100.0 + 50.0 * np.sin(2 * np.pi * 2500.0 * t)
        rep = detect_psd(series, self.CFG)
        assert rep.detected
        assert rep.blocks_processed == 1
        assert rep.detection_time_ns == 4096 * self.CFG.sample_interval_ns
        assert rep.trajectory[0][2] == pytest.approx(2500.0)

    def test_white_counts_not_detected(self):
        # i.i.d. count noise stays under a factor-10 threshold in at least
        # 95% of seeded trials
        cfg = PadConfig(window=4096, segments=4, peak_factor=10.0)
        hits = 0
        for seed in range(40):
            rng = np.random.default_rng(900 + seed)
            series = rng.poisson(5.0, 3 * 4096).astype(float)
            if detect_psd(series, cfg).detected:
                hits += 1
        assert hits <= 2

    def test_constant_series_no_detection(self):
        rep = detect_psd(np.full(2 * 4096, 7.0), self.CFG)
        assert not rep.detected
        assert all(entry[1] == 0.0 for entry in rep.trajectory)

    def test_short_series_insufficient(self):
        rep = detect_psd(np.zeros(4095), self.CFG)
        assert not rep.detected
        assert rep.blocks_processed == 0

    def test_window_hop_count(self):
        rep = detect_psd(np.full(4096 * 2, 3.0), self.CFG)
        assert rep.blocks_processed == 3  # starts at 0, 2048, 4096

    def test_detection_time_on_later_window(self):
        # quiet first half, strong line in the second half
        dt = self.CFG.sample_interval_ns / 1e9
        n = 6 * 4096
        t = np.arange(n) * dt
        line = 50.0 * np.sin(2 * np.pi * 2500.0 * t)
        rng = np.random.default_rng(17)
        series = rng.poisson(100.0, n).astype(float)
        series[3 * 4096 :] += line[3 * 4096 :]
        rep = detect_psd(series, self.CFG)
        assert rep.detected
        assert rep.detection_time_ns > 3 * 4096 * self.CFG.sample_interval_ns
        assert rep.trajectory[-1][2] == pytest.approx(2500.0)

    def test_determinism(self):
        rng = np.random.default_rng(21)
        series = rng.poisson(20.0, 3 * 4096).astype(float)
        assert detect_psd(series, self.CFG) == detect_psd(series, self.CFG)


def _report_tuple(rep):
    return rep.detected, rep.detection_time_ns, rep.blocks_processed, rep.trajectory


class TestScanMatchesLoopOracle:
    """detect_psd's one-pass scan equals the per-window, per-segment loop exactly."""

    # a peak factor no window reaches: the scan runs to the end of the series
    NO_STOP = PadConfig(peak_factor=1e300)

    @pytest.mark.parametrize("system", sorted(COALESCENCE_PRESETS))
    @pytest.mark.parametrize("attack", [True, False], ids=["attack", "no-attack"])
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_preset_trials(self, seed, attack, system):
        window_ns = 20 * SECOND
        trace = build_trace(*preset_traffic("high-rate", window_ns, seed=seed, attack=attack))
        ms = measure(trace, TransferConfig(), COALESCENCE_PRESETS[system])
        si = PadConfig().sample_interval_ns
        series = rasterize(ms, si, window_ns // si)
        for cfg in (PadConfig(), self.NO_STOP):
            assert _report_tuple(detect_psd(series, cfg)) == pad_scan_reference(series, cfg)
        assert len(pad_scan_reference(series, self.NO_STOP)[3]) == 47

    @pytest.mark.parametrize("window,segments", [(64, 1), (64, 4), (256, 8), (1024, 2)])
    def test_random_series(self, window, segments):
        cfg = PadConfig(window=window, segments=segments, peak_factor=4.0, max_freq_hz=5000.0)
        rng = np.random.default_rng(window + segments)
        for _ in range(20):
            n = int(rng.integers(window - 1, 4 * window))
            series = rng.poisson(rng.uniform(0.5, 50.0), n).astype(float)
            k = int(rng.integers(0, n))
            series[k:] += rng.uniform(0, 20) * np.sin(np.arange(n - k) * rng.uniform(0.1, 3.0))
            assert _report_tuple(detect_psd(series, cfg)) == pad_scan_reference(series, cfg)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_drawn_configs(self, data):
        window = data.draw(st.sampled_from([64, 128, 256, 512, 1024]), "window")
        segments = data.draw(st.sampled_from([1, 2, 4, 8]), "segments")
        seg, hop = window // segments, window // 2
        interval = PadConfig.sample_interval_ns
        freqs = np.fft.rfftfreq(seg, d=interval / 1e9)
        # band edges on a bin or halfway to the next bin outward; bin lo stays inside
        lo = data.draw(st.integers(0, seg // 2 - 1), "lo bin")
        hi = data.draw(st.integers(lo + 1, seg // 2), "hi bin")
        below, above = data.draw(st.tuples(st.booleans(), st.booleans()), "between bins")
        cfg = PadConfig(
            window=window,
            segments=segments,
            peak_factor=data.draw(st.sampled_from([1.5, 4.0, 10.0, 100.0]), "peak_factor"),
            min_freq_hz=max(float(freqs[lo] - below * freqs[1] / 2), 0.0),
            max_freq_hz=min(float(freqs[hi] + above * freqs[1] / 2), 0.5e9 / interval),
        )
        n = data.draw(
            st.one_of(
                st.sampled_from([window - 1, window, window + hop - 1, window + hop]),
                st.integers(window - 1, 6 * window),
            ),
            "length",
        )
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), "seed"))
        series = rng.poisson(rng.uniform(0.5, 50.0), n).astype(float)
        onset = data.draw(st.integers(0, n), "sinusoid onset")
        cycles = data.draw(st.floats(0.01, 0.5), "cycles per sample")
        series[onset:] += 20.0 * np.sin(2 * np.pi * cycles * np.arange(n - onset))
        # a constant stretch of whole hops: windows wholly inside it have a zero floor
        start = hop * data.draw(st.integers(0, n // hop), "constant start hop")
        series[start : start + hop * data.draw(st.integers(0, 6), "constant hops")] = 7.0
        assert _report_tuple(detect_psd(series, cfg)) == pad_scan_reference(series, cfg)

    @pytest.mark.parametrize("segments", [1, 2, 8])
    @pytest.mark.parametrize("onset", [None, 2, 17], ids=["no-stop", "early", "late"])
    def test_each_segment_transformed_once(self, monkeypatch, segments, onset):
        # a sinusoid from window `onset` on stops the scan there or one
        # window earlier; the segments of every window are transformed in
        # one call either way
        cfg = PadConfig(window=256, segments=segments, peak_factor=20.0, max_freq_hz=5000.0)
        hop = cfg.window // 2
        step = min(cfg.segment_len, hop)  # segment k starts at k * step
        n_windows = 27
        rng = np.random.default_rng(segments)
        series = rng.poisson(20.0, cfg.window + (n_windows - 1) * hop + 37).astype(float)
        if onset is not None:
            k = np.arange(len(series) - onset * hop)
            series[onset * hop :] += 20.0 * np.sin(2 * np.pi * 0.1 * k)
        transformed = []
        monkeypatch.setattr(pad, "periodogram", lambda x: transformed.append(len(x)) or periodogram(x))
        rep = detect_psd(series, cfg)
        assert _report_tuple(rep) == pad_scan_reference(series, cfg)
        assert rep.detected == (onset is not None)
        assert transformed == [(n_windows - 1) * hop // step + segments]
        if onset is None:
            assert rep.blocks_processed == n_windows
        else:
            assert onset - 1 <= rep.blocks_processed - 1 <= onset
