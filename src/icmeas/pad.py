"""Spectral baseline detector over uniformly resampled measurement counts.

Coalesced measurements are rasterized into a packet-count time series at a
fixed sample interval; a periodic traffic component shows up as a narrow
line in the count spectrum.  Detection slides a window over the series,
averages mean-removed periodograms over non-overlapping segments, and flags
a window whose in-band spectral peak exceeds a multiple of the in-band
median floor.
"""

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, require_finite
from .pdmm import DetectionReport


@dataclass(frozen=True)
class PadConfig:
    """Rasterization, windowing, and peak-test parameters.

    The search band [min_freq_hz, max_freq_hz] bounds where peaks are
    sought; `band` holds the indices of its segment-spectrum bins, and a
    band without bins is rejected.  peak_factor is the detection
    multiplier over the in-band median floor.  Each analysis window is
    split into `segments` equal parts whose periodograms are averaged (more
    segments: steadier floor, wider bins).
    The defaults are calibrated on the built-in traffic presets by seeded
    false-positive and detection-time ensembles.
    """

    sample_interval_ns: int = 100_000
    window: int = 8192
    segments: int = 8
    peak_factor: float = 8.0
    min_freq_hz: float = 200.0
    max_freq_hz: float = 3000.0

    def __post_init__(self):
        require_finite(
            peak_factor=self.peak_factor, min_freq_hz=self.min_freq_hz, max_freq_hz=self.max_freq_hz
        )
        if self.sample_interval_ns <= 0:
            raise ConfigError("sample_interval_ns must be positive")
        if self.window < 64 or self.window & (self.window - 1) != 0:
            raise ConfigError("window must be a power of two, at least 64")
        if self.segments < 1 or self.window % self.segments != 0:
            raise ConfigError("segments must divide the window evenly")
        if self.window // self.segments < 2:
            raise ConfigError("segments must hold at least 2 samples each")
        if self.peak_factor <= 1.0:
            raise ConfigError("peak_factor must exceed 1")
        if self.min_freq_hz < 0 or self.max_freq_hz <= self.min_freq_hz:
            raise ConfigError("need 0 <= min_freq_hz < max_freq_hz")
        nyquist = 0.5e9 / self.sample_interval_ns
        if self.max_freq_hz > nyquist:
            raise ConfigError(f"max_freq_hz exceeds the Nyquist frequency {nyquist:.1f}")
        if not self.band:
            raise ConfigError("search band contains no frequency bins")

    @property
    def segment_len(self) -> int:
        return self.window // self.segments

    @property
    def bin_hz(self) -> float:
        """Bin spacing of a segment spectrum: bin k sits at k * bin_hz, as rfftfreq forms it."""
        return 1.0 / (self.segment_len * (self.sample_interval_ns / 1e9))

    @property
    def band(self) -> range:
        """Indices of the segment spectrum's bins in [min_freq_hz, max_freq_hz], by bisection."""
        hz, bins = self.bin_hz, range(self.segment_len // 2 + 1)
        start = bisect_left(bins, True, key=lambda k: k * hz >= self.min_freq_hz)
        stop = bisect_left(bins, True, start, key=lambda k: k * hz > self.max_freq_hz)
        return range(start, stop)


def rasterize(ms, sample_interval_ns: int, n_samples: int | None = None) -> np.ndarray:
    """Bin measurement packet counts onto a uniform time grid.

    series[j] sums the counts of all measurements with timestamp in
    [j*interval, (j+1)*interval).  Without n_samples the grid extends just
    past the last measurement; with it, later measurements are dropped.
    """
    if sample_interval_ns <= 0:
        raise ConfigError("sample_interval_ns must be positive")
    if n_samples is not None and n_samples < 0:
        raise ConfigError("n_samples must be non-negative")
    if len(ms) == 0:
        return np.zeros(0 if n_samples is None else n_samples)
    m, weights = ms.m_ns, ms.count
    end = None if n_samples is None else int(n_samples) * sample_interval_ns  # never wraps
    if end is not None and end <= np.iinfo(np.int64).max:  # a grid end past int64 drops nothing
        # m_ns is nondecreasing, so the measurements before the grid's end are a prefix
        k = int(m.searchsorted(end))
        m, weights = m[:k], weights[:k]
    idx = (m // sample_interval_ns).astype(np.int64, copy=False)
    if n_samples is None:
        # time-ordered, so the last index is the largest
        n_samples = int(idx[-1]) + 1
    return np.bincount(idx, weights=weights, minlength=n_samples)


def periodogram(series) -> np.ndarray:
    """Mean-removed power per non-negative frequency bin, along the last axis.

    Normalized so the bins sum to the series' total squared deviation from
    its mean (interior bins carry both spectral halves).  A 2-D input gives
    one periodogram per row.
    """
    x = np.asarray(series, dtype=float)
    n = x.shape[-1]
    if n < 2:
        raise ConfigError("series must hold at least 2 samples")
    spec = np.abs(np.fft.rfft(x - x.mean(axis=-1, keepdims=True))) ** 2 / n
    spec[..., 1:] *= 2.0
    if n % 2 == 0:
        spec[..., -1] /= 2.0
    return spec


def detect_psd(series, cfg: PadConfig) -> DetectionReport:
    """Slide windows over the series and flag in-band spectral peaks.

    Hop is half a window.  Per window, segment periodograms are averaged and
    the in-band maximum is compared against peak_factor times the in-band
    median; detection reports the end timestamp of the first flagged
    window.  A series shorter than one window yields an insufficient-data
    report.  Segment k starts at k * min(segment_len, hop), so a window's
    segments are consecutive; every segment is transformed once, in one
    call, and every window is scored before the scan is cut at the first
    flagged one.  Every segment spectrum is sliced to the bins of cfg.band.
    """
    x = np.asarray(series, dtype=float)
    if len(x) < cfg.window:
        return DetectionReport(None, 0)
    seg, hop = cfg.segment_len, cfg.window // 2
    step = min(seg, hop)
    stride = hop // step  # segments between consecutive window starts
    n = (len(x) - cfg.window) // hop + 1
    last = (n - 1) * stride + 1
    band = cfg.band
    segs = np.lib.stride_tricks.sliding_window_view(x, seg)[::step][: last - 1 + cfg.segments]
    specs = periodogram(segs)[:, band.start : band.stop]
    # each window's segment spectra added in order, then divided: the same
    # floats as their mean(axis=0)
    psd = sum(specs[j : j + last : stride] for j in range(cfg.segments)) / cfg.segments
    floor = np.median(psd, axis=1)
    k = np.argmax(psd, axis=1)
    live = floor > 0.0
    ratio = np.divide(psd[np.arange(n), k], floor, out=np.zeros(n), where=live)
    peak_freq = np.where(live, (band.start + k) * cfg.bin_hz, 0.0)
    hits = np.flatnonzero(ratio > cfg.peak_factor)
    windows = int(hits[0]) + 1 if len(hits) else n
    trajectory = tuple(zip(range(windows), ratio[:windows].tolist(), peak_freq[:windows].tolist()))
    end_ns = ((windows - 1) * hop + cfg.window) * cfg.sample_interval_ns
    return DetectionReport(int(end_ns) if len(hits) else None, windows, trajectory)
