"""Periodic-traffic detection from coalesced measurements via histogramming.

The detector accumulates timestamp differences of many orders (gaps between
measurements one apart, two apart, ... up to max_order) into a fixed-range
histogram, block by block.  Background traffic flattens toward a uniform
density over the range; a periodic component concentrates mass at multiples
of its period.  A Pearson chi-square uniformity test over equal-width
sub-bins turns that concentration into a detection verdict.
"""

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .errors import ConfigError, InsufficientDataError


@dataclass(frozen=True)
class PdmmConfig:
    """Histogram range, blocking, and test parameters.

    Differences d with low_cutoff_ns <= d < high_cutoff_ns are counted at
    resolution bin_width_ns; the test aggregates the raw bins into sub_bins
    equal-width cells.  threshold is the false-alarm control: a block
    detects when the chi-square CDF value exceeds 1 - threshold.
    window_blocks, when set, keeps only that many trailing blocks in the
    histogram instead of accumulating forever.
    """

    low_cutoff_ns: int
    high_cutoff_ns: int = 5_000_000
    max_order: int = 10
    block_len: int = 2000
    sub_bins: int = 50
    threshold: float = 0.05
    bin_width_ns: int = 1000
    window_blocks: int | None = None

    def __post_init__(self):
        if self.low_cutoff_ns < 0:
            raise ConfigError("low_cutoff_ns must be non-negative")
        if self.high_cutoff_ns <= self.low_cutoff_ns:
            raise ConfigError("high_cutoff_ns must exceed low_cutoff_ns")
        if self.max_order < 1:
            raise ConfigError("max_order must be >= 1")
        if self.block_len < 2:
            raise ConfigError("block_len must be >= 2")
        if self.sub_bins < 2:
            raise ConfigError("sub_bins must be >= 2")
        if not 0.0 < self.threshold < 1.0:
            raise ConfigError("threshold must be in (0, 1)")
        if self.bin_width_ns < 1:
            raise ConfigError("bin_width_ns must be >= 1")
        span = self.high_cutoff_ns - self.low_cutoff_ns
        if span % (self.sub_bins * self.bin_width_ns) != 0:
            raise ConfigError("histogram span must divide evenly into sub-bins")
        if self.window_blocks is not None and self.window_blocks < 1:
            raise ConfigError("window_blocks must be >= 1 when set")
        # a chunk keys its differences below _CHUNK_BLOCKS * span and counts
        # them in a (_CHUNK_BLOCKS, n_bins) float64 array
        if _CHUNK_BLOCKS * span > np.iinfo(np.int64).max:
            raise ConfigError(
                f"n_bins = {self.n_bins} is too large: the keys of a "
                f"{_CHUNK_BLOCKS}-block chunk would overflow int64"
            )
        if _CHUNK_BLOCKS * self.n_bins * 8 > np.iinfo(np.intp).max:
            raise ConfigError(
                f"n_bins = {self.n_bins} is too large: the float64 counts of a "
                f"{_CHUNK_BLOCKS}-block chunk would exceed the addressable size"
            )

    @property
    def n_bins(self) -> int:
        return (self.high_cutoff_ns - self.low_cutoff_ns) // self.bin_width_ns


@dataclass(frozen=True)
class DetectionReport:
    """Outcome of a streaming detection run.

    trajectory holds one (index, statistic, score) triple per tested block
    or window; detection_time_ns is the timestamp closing the detecting
    block, absent when nothing detected.
    """

    detected: bool
    detection_time_ns: int | None
    blocks_processed: int
    trajectory: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if self.detected != (self.detection_time_ns is not None):
            raise ConfigError("detection_time_ns must be present iff detected")

    def to_dict(self) -> dict:
        return {
            "detected": self.detected,
            "detection_time_ns": self.detection_time_ns,
            "blocks": self.blocks_processed,
            "trajectory": [list(entry) for entry in self.trajectory],
        }


# detect_stream counts this many blocks per kernel call; an early stop pays
# for at most _CHUNK_BLOCKS - 1 blocks it never tests
_CHUNK_BLOCKS = 4
# int64 differences the kernel holds at once (1 MB): orders are processed in
# groups of rows sized to this, which keeps the buffer in cache
_BUFFER_ELEMS = 1 << 17


def _order_ranges(m, shifted, first: int, end: int, top: int, span: int):
    """(start, stop, masked) ranges of the orders 1..top worth counting.

    Row `order` holds d = m[i] - (m[i - order] + low) for first <= i < end.
    When m[:end] is nondecreasing, d grows with the order at every i, so
    the row minima and maxima grow with the order too, and bisections over
    them find the bounds.  Rows below lo (max < 0) or from hi on
    (min >= span) hold no difference in range and are left out; rows in
    [a, b) (min >= 0, max < span) hold only differences in range and need
    no mask.  Rows past `first` hold the -1 sentinel and are always masked,
    and so is every row of an m that is not nondecreasing.
    """
    k = min(top, first)
    if k < 1 or np.any(m[1:end] < m[: end - 1]):
        return [(1, top + 1, True)]
    row = np.empty(end - first, np.int64)

    @cache
    def row_extrema(order):
        np.subtract(m[first:end], shifted[first - order : end - order], out=row)
        return int(row.min()), int(row.max())

    orders = range(k + 1)
    lo = bisect_left(orders, True, 1, key=lambda o: row_extrema(o)[1] >= 0)
    hi = bisect_left(orders, True, lo, key=lambda o: row_extrema(o)[0] >= span)
    a = bisect_left(orders, True, lo, hi, key=lambda o: row_extrema(o)[0] >= 0)
    b = bisect_left(orders, True, lo, hi, key=lambda o: row_extrema(o)[1] >= span)
    if a >= b:
        a = b = hi
    return [(lo, a, True), (a, b, False), (b, hi, True), (k + 1, top + 1, True)]


def _count_blocks(m, first: int, block_len: int, n_blocks: int, cfg: PdmmConfig):
    """Raw-bin counts (float64, (n_blocks, n_bins)) of consecutive blocks of m.

    Block k holds m[first + k*block_len : first + (k+1)*block_len]; m[:first]
    is history.  For each order, the difference ending at every block entry
    is keyed k * n_bins + raw_bin, so one bincount per group of orders counts
    all blocks.  low_cutoff_ns is folded into a shifted copy of m, so one
    unsigned compare of m[i] - (m[j] + low) against the span keeps exactly
    the differences in [low, high).  Entries whose earlier endpoint would lie
    before m[0] are set to -1, which that compare rejects.  _order_ranges
    leaves out the orders with no difference in range and marks those with
    every difference in range, which skip the compare.
    """
    n_bins = cfg.n_bins
    span = cfg.high_cutoff_ns - cfg.low_cutoff_ns
    length = n_blocks * block_len
    end = first + length
    counts = np.zeros(n_blocks * n_bins)
    top = min(cfg.max_order, end - 1)
    shifted = m[:end] + cfg.low_cutoff_ns
    # span = n_bins * bin_width_ns, so block k's keys floor-divide to k * n_bins + raw_bin
    offset = np.repeat(np.arange(0, n_blocks * span, span, dtype=np.int64), block_len)
    keyed = m[first:end] + offset  # an unmasked row's keys come out of one subtraction
    diffs = np.empty((min(top, max(1, _BUFFER_ELEMS // length)), length), dtype=np.int64)
    for start, stop, masked in _order_ranges(m, shifted, first, end, top, span):
        for group in range(start, stop, len(diffs)):
            rows = diffs[: min(len(diffs), stop - group)]
            for row, order in zip(rows, range(group, group + len(rows))):
                if masked:
                    skip = max(order - first, 0)
                    row[:skip] = -1
                    i = first + skip
                    np.subtract(m[i:end], shifted[i - order : end - order], out=row[skip:])
                else:
                    np.subtract(keyed, shifted[first - order : end - order], out=row)
            if masked:
                in_range = rows.view(np.uint64) < span
                rows += offset
                keys = rows[in_range]
            else:
                keys = rows.ravel()
            keys //= cfg.bin_width_ns
            counts += np.bincount(keys, minlength=n_blocks * n_bins)
    return counts.reshape(n_blocks, n_bins)


def pearson_chi_square(counts, sub_bins: int):
    """Uniformity statistic over equal-width sub-bins and its CDF value.

    Aggregates the raw-bin counts into sub_bins cells, computes
    sum((observed - expected)^2 / expected) against the uniform expectation,
    and returns (chi_square, p) where p is the chi-square CDF with
    sub_bins - 1 degrees of freedom, evaluated via the regularized lower
    incomplete gamma function.
    """
    from scipy.special import gammainc

    if sub_bins < 2:
        raise ConfigError("sub_bins must be >= 2")
    counts = np.asarray(counts, dtype=np.float64)
    if len(counts) % sub_bins != 0:
        raise ConfigError("raw bin count must be a multiple of sub_bins")
    total = float(counts.sum())
    if total < 5.0 * sub_bins:
        raise InsufficientDataError(
            f"need at least {5 * sub_bins} counted differences, have {total:.0f}"
        )
    observed = counts.reshape(sub_bins, -1).sum(axis=1)
    expected = total / sub_bins
    chi_square = float(((observed - expected) ** 2 / expected).sum())
    p = float(gammainc((sub_bins - 1) / 2.0, chi_square / 2.0))
    return chi_square, p


def detect_stream(ms, cfg: PdmmConfig) -> DetectionReport:
    """Run the block-wise uniformity test over a measurement series.

    The first block only populates the histogram; every later block is
    accumulated and then tested, halting at the first block whose CDF value
    exceeds 1 - threshold.  Blocks whose histogram is still below the
    chi-square applicability floor are skipped without a verdict.  Fewer
    than two full blocks yields an insufficient-data report.  Blocks are
    counted _CHUNK_BLOCKS at a time, each chunk when its first block is
    reached, so an early stop leaves the later chunks uncounted.
    """
    m = np.asarray(ms.m_ns, dtype=np.int64)
    n_blocks = len(m) // cfg.block_len
    if n_blocks < 2:
        return DetectionReport(False, None, n_blocks)
    counts = np.zeros(cfg.n_bins)
    window = deque() if cfg.window_blocks is not None else None
    trajectory = []
    for b in range(n_blocks):
        lo = b * cfg.block_len
        hi = lo + cfg.block_len
        if b % _CHUNK_BLOCKS == 0:
            hist_start = max(0, lo - cfg.max_order)
            chunk_blocks = min(_CHUNK_BLOCKS, n_blocks - b)
            chunk = _count_blocks(m[hist_start:], lo - hist_start, cfg.block_len, chunk_blocks, cfg)
        inc = chunk[b % _CHUNK_BLOCKS]
        counts += inc
        if window is not None:
            window.append(inc)
            if len(window) > cfg.window_blocks:
                counts -= window.popleft()
        if b == 0:
            continue
        try:
            chi_square, p = pearson_chi_square(counts, cfg.sub_bins)
        except InsufficientDataError:
            continue
        trajectory.append((b, chi_square, p))
        if p > 1.0 - cfg.threshold:
            return DetectionReport(True, int(m[hi - 1]), b + 1, tuple(trajectory))
    return DetectionReport(False, None, n_blocks, tuple(trajectory))


def deviation_histogram(sub_bins: int, total: float, deviation: float) -> np.ndarray:
    """Synthetic sub_bins counts with the first raised above uniformity.

    One cell holds (1/sub_bins + deviation) of the total and every other
    cell (1/sub_bins - deviation/(sub_bins-1)), preserving the total; the
    fractional deviation must leave all cells non-negative.
    """
    if sub_bins < 2:
        raise ConfigError("sub_bins must be >= 2")
    if total <= 0:
        raise ConfigError("total must be positive")
    base = 1.0 / sub_bins
    if deviation < 0 or base - deviation / (sub_bins - 1) < 0 or base + deviation > 1:
        raise ConfigError("deviation must keep all sub-bins non-negative")
    counts = np.full(sub_bins, (base - deviation / (sub_bins - 1)) * total)
    counts[0] = (base + deviation) * total
    return counts


def closed_form_chi_square(deviation: float, sub_bins: int, total: float) -> float:
    """Chi-square of the one-raised-sub-bin histogram, in closed form."""
    return deviation**2 * total * (sub_bins + sub_bins / (sub_bins - 1))


def min_detectable_deviation(sub_bins: int, total: float, threshold: float) -> float:
    """Smallest uniformity deviation the test flags at the given threshold.

    Inverts the closed form against the chi-square quantile at
    1 - threshold with sub_bins - 1 degrees of freedom.
    """
    from scipy.special import gammaincinv

    if sub_bins < 2:
        raise ConfigError("sub_bins must be >= 2")
    if total <= 0:
        raise ConfigError("total must be positive")
    if not 0.0 < threshold < 1.0:
        raise ConfigError("threshold must be in (0, 1)")
    quantile = 2.0 * gammaincinv((sub_bins - 1) / 2.0, 1.0 - threshold)
    return float(np.sqrt(quantile / closed_form_chi_square(1.0, sub_bins, total)))
