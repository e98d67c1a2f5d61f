"""Periodic-traffic detection from coalesced measurements via histogramming.

The detector accumulates timestamp differences of many orders (gaps between
measurements one apart, two apart, ... up to max_order) into a fixed-range
histogram, block by block.  Background traffic flattens toward a uniform
density over the range; a periodic component concentrates mass at multiples
of its period.  A Pearson chi-square uniformity test over equal-width
sub-bins turns that concentration into a detection verdict.
"""

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .errors import ConfigError, InsufficientDataError


@dataclass(frozen=True)
class PdmmConfig:
    """Histogram range, blocking, and test parameters.

    Differences d with low_cutoff_ns <= d < high_cutoff_ns are counted in
    sub_bins equal-width cells, exactly the cells pearson_chi_square reads.
    bin_width_ns only has to divide the cell width and changes no result;
    it stays a field because result files echo it.
    threshold bounds each block's test, not a trial's false-alarm rate: a
    block detects when the chi-square CDF value exceeds 1 - threshold, and
    a 20 s window at the defaults looks about 107 times.  window_blocks,
    when set, keeps only that many trailing blocks in the histogram instead
    of accumulating forever.  The defaults are calibrated on the built-in
    traffic presets (seeded false-positive/detection ensembles).
    """

    low_cutoff_ns: int = 1_000_000
    high_cutoff_ns: int = 5_000_000
    max_order: int = 80
    block_len: int = 2000
    sub_bins: int = 200
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
        # a chunk's keys lie below _CHUNK_BLOCKS * 3 * span, and its float64
        # counts take _CHUNK_BLOCKS * 3 * sub_bins * 8 bytes
        if _CHUNK_BLOCKS * 3 * span > np.iinfo(np.int64).max:
            raise ConfigError(
                f"histogram span {span} ns is too large: the keys of a "
                f"{_CHUNK_BLOCKS}-block chunk would overflow int64"
            )
        if _CHUNK_BLOCKS * 3 * self.sub_bins * 8 > np.iinfo(np.intp).max:
            raise ConfigError(
                f"sub_bins = {self.sub_bins} is too large: the float64 counts of a "
                f"{_CHUNK_BLOCKS}-block chunk would exceed the addressable size"
            )


@dataclass(frozen=True)
class DetectionReport:
    """Outcome of a streaming detection run.

    trajectory holds one (index, statistic, score) triple per tested block
    or window; detection_time_ns is the timestamp closing the detecting
    block, absent when nothing detected.  detected is true exactly when
    detection_time_ns is set.
    """

    detection_time_ns: int | None
    blocks_processed: int
    trajectory: tuple = field(default_factory=tuple)

    @property
    def detected(self) -> bool:
        return self.detection_time_ns is not None

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


def _order_ranges(m, first: int, end: int, top: int, low: int, high: int):
    """(lo, hi, masked): the orders lo..hi-1 worth counting, and whether to clip them.

    Row `order` holds the raw differences m[i] - m[i - order] for
    max(first, order) <= i < end.  m is nondecreasing (a MeasurementSeries'
    rule), so a difference grows with the order at every i; the rows lose
    entries from the front as the order grows, but the row minima and
    maxima still grow with it, and bisections over them find the bounds.
    Rows below lo (max < low) or from hi on (min >= high) hold no difference
    in range and are left out.  The chunk is masked exactly when some row
    reaches past the slack cells of _count_blocks, that is when row lo's
    minimum is below low - span or row hi - 1's maximum reaches high + span;
    then every row of the chunk is clipped, otherwise none is.
    """
    span = high - low
    row = np.empty(end - first, np.int64)

    @cache
    def row_extrema(order):
        i = max(first, order)
        d = row[: end - i]
        np.subtract(m[i:end], m[i - order : end - order], out=d)
        return int(d.min()), int(d.max())

    orders = range(top + 1)
    lo = bisect_left(orders, True, 1, key=lambda o: row_extrema(o)[1] >= low)
    hi = bisect_left(orders, True, lo, key=lambda o: row_extrema(o)[0] >= high)
    masked = lo < hi and (row_extrema(lo)[0] < low - span or row_extrema(hi - 1)[1] >= high + span)
    return lo, hi, masked


def _count_blocks(m, first: int, block_len: int, n_blocks: int, cfg: PdmmConfig):
    """Cell counts (float64, (n_blocks, sub_bins)) of consecutive blocks of m.

    Block k holds m[first + k*block_len : first + (k+1)*block_len]; m[:first]
    is history.  Each block has sub_bins cells below the range, the sub_bins
    cells of [low, high) and sub_bins above it: together they key the
    differences d = m[i] - m[j] - low in [-span, 2 * span), span = high -
    low, as k * 3 * span + span + d, which floor-divides by the cell width
    to k * 3 * sub_bins + sub_bins + cell.  So one bincount per group of
    orders counts all blocks, and only the middle cells are returned;
    PdmmConfig checks that a chunk's keys and counts fit.
    The key offset less low_cutoff_ns is folded into one keyed copy of m,
    so every row's keys come out of one subtraction.  When _order_ranges
    masks the chunk, each key is clipped into its own block's cells, so a
    key past the layout lands in a dropped slack cell; a true key past
    int64 wraps below its block, so the clip sends it there too.  Without
    the mask every key lies in its block's cells.  An entry whose earlier
    endpoint would lie before m[0] gets key 0, block 0's lowest slack cell.
    m is non-negative and nondecreasing (a MeasurementSeries' rule), so
    every m[i] - m[j] with j <= i lies in [0, 2**63 - 1]; where the keyed
    copy wraps past int64, the subtraction still gives the exact key
    modulo 2**64.
    """
    span = cfg.high_cutoff_ns - cfg.low_cutoff_ns
    width = span // cfg.sub_bins
    block_cells = 3 * cfg.sub_bins
    n_cells = n_blocks * block_cells
    length = n_blocks * block_len
    end = first + length
    counts = np.zeros(n_cells)
    top = min(cfg.max_order, end - 1)
    lo, hi, masked = _order_ranges(m, first, end, top, cfg.low_cutoff_ns, cfg.high_cutoff_ns)
    floor = np.repeat(3 * span * np.arange(n_blocks, dtype=np.int64), block_len)  # each block's first key
    keyed = m[first:end] + (floor + (span - cfg.low_cutoff_ns))
    ceiling = floor + (3 * span - 1) if masked else None  # each block's last key, for the clip
    diffs = np.empty((min(top, max(1, _BUFFER_ELEMS // length)), length), dtype=np.int64)
    for group in range(lo, hi, len(diffs)):
        rows = diffs[: min(len(diffs), hi - group)]
        for row, order in zip(rows, range(group, group + len(rows))):
            skip = max(order - first, 0)
            row[:skip] = 0
            tail = row[skip:]
            np.subtract(keyed[skip:], m[first + skip - order : end - order], out=tail)
            if masked:
                np.clip(tail, floor[skip:], ceiling[skip:], out=tail)
        keys = rows.ravel()
        unsigned = keys.view(np.uint64)  # every key is >= 0: a cheaper division
        unsigned //= width
        counts += np.bincount(keys, minlength=n_cells)
    return counts.reshape(n_blocks, block_cells)[:, cfg.sub_bins : 2 * cfg.sub_bins]


def pearson_chi_square(cells):
    """Uniformity statistic over equal-width cells and its CDF value.

    Computes sum((observed - expected)^2 / expected) against the uniform
    expectation and returns (chi_square, p), where p is the chi-square CDF
    with len(cells) - 1 degrees of freedom, evaluated via the regularized
    lower incomplete gamma function.
    """
    from scipy.special import gammainc

    observed = np.asarray(cells, dtype=np.float64)
    n = len(observed)
    if n < 2:
        raise ConfigError(f"need at least 2 cells, have {n}")
    total = float(observed.sum())
    if total < 5.0 * n:
        raise InsufficientDataError(f"need at least {5 * n} counted differences, have {total:.0f}")
    expected = total / n
    chi_square = float(((observed - expected) ** 2 / expected).sum())
    p = float(gammainc((n - 1) / 2.0, chi_square / 2.0))
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
    m = ms.m_ns
    n_blocks = len(m) // cfg.block_len
    if n_blocks < 2:
        return DetectionReport(None, n_blocks)
    counts = np.zeros(cfg.sub_bins)
    rows = []  # the cell counts of every block counted so far
    trajectory = []
    for b in range(n_blocks):
        lo = b * cfg.block_len
        if b % _CHUNK_BLOCKS == 0:
            start = max(0, lo - cfg.max_order)
            chunk_blocks = min(_CHUNK_BLOCKS, n_blocks - b)
            rows.extend(_count_blocks(m[start:], lo - start, cfg.block_len, chunk_blocks, cfg))
        counts += rows[b]
        if cfg.window_blocks is not None and b >= cfg.window_blocks:
            counts -= rows[b - cfg.window_blocks]  # the block leaving the window
        if b == 0:
            continue
        try:
            chi_square, p = pearson_chi_square(counts)
        except InsufficientDataError:
            continue
        trajectory.append((b, chi_square, p))
        if p > 1.0 - cfg.threshold:
            return DetectionReport(int(m[lo + cfg.block_len - 1]), b + 1, tuple(trajectory))
    return DetectionReport(None, n_blocks, tuple(trajectory))


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
    if deviation < 0 or base - deviation / (sub_bins - 1) < 0:
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
