"""Independent reference implementations used to cross-check the simulator.

These deliberately take different routes than the library: the dual-timer
reference walks the decomposed join conditions (gap to previous, offset from
group start) instead of tracking a running expiry, and the fixed-timer
reference uses binary search over the array instead of a sequential scan.
The pdmm counting reference loops over pairs of timestamps one at a time
instead of over orders and blocks in bulk, and the pad reference transforms
and sums a window's segments one at a time instead of as one batch.  The
Poisson generator reference cuts the trace at the duration with boolean
masks instead of prefix searches.  The merge reference sorts the
concatenation of both traces instead of inserting one into the other, and
the transfer reference delays every packet by its own size, whatever the
sizes in the trace.
"""

import math

import numpy as np

from icmeas.trafficgen import PacketTrace, _draw_sizes


def hic_reference(t_ns, packet_timer_ns, absolute_timer_ns):
    t = np.asarray(t_ns, dtype=np.int64)
    m_out, c_out = [], []
    i = 0
    n = len(t)
    while i < n:
        j = i
        while (
            j + 1 < n
            and t[j + 1] - t[j] < packet_timer_ns
            and t[j + 1] - t[i] < absolute_timer_ns
        ):
            j += 1
        m = min(int(t[i]) + absolute_timer_ns, int(t[j]) + packet_timer_ns)
        m_out.append(m)
        c_out.append(j - i + 1)
        i = j + 1
    return m_out, c_out


def tic_reference(t_ns, timer_ns):
    t = np.asarray(t_ns, dtype=np.int64)
    m_out, c_out = [], []
    i = 0
    n = len(t)
    while i < n:
        m = int(t[i]) + timer_ns
        j = int(np.searchsorted(t, m, side="left"))
        m_out.append(m)
        c_out.append(j - i)
        i = j
    return m_out, c_out


def pic_reference(t_ns, count):
    t = np.asarray(t_ns, dtype=np.int64)
    m_out, c_out = [], []
    for i in range(0, len(t), count):
        chunk = t[i : i + count]
        if len(chunk) == count:
            m_out.append(int(chunk[-1]))
            c_out.append(count)
        else:
            m_out.append(int(t[-1]))
            c_out.append(len(chunk))
    return m_out, c_out


def erlang_convolution_reference(lambda_ns, order, x_max_ns, n_coarse=2048):
    """Numerically convolve exponential densities, no closed Erlang form used.

    Returns (x_grid, density) on [0, x_max_ns]: the density of a sum of
    `order` i.i.d. exponentials, built by iterated trapezoid convolution on
    two grid resolutions combined by Richardson extrapolation.  The caller
    shifts the grid to compare against shifted densities.
    """

    def chain(du, n):
        x = du * np.arange(n)
        f = np.exp(-x / lambda_ns) / lambda_ns
        g = f.copy()
        for _ in range(order - 1):
            full = np.convolve(g, f)[:n] * du
            full -= 0.5 * du * (g[0] * f + g * f[0])
            g = full
        return g

    du = x_max_ns / (n_coarse - 1)
    coarse = chain(du, n_coarse)
    fine = chain(du / 2, 2 * n_coarse - 1)[::2]
    x = du * np.arange(n_coarse)
    return x, (4.0 * fine - coarse) / 3.0


def pdmm_counts_reference(m_ns, lo, hi, max_order, low_ns, high_ns, bin_width_ns):
    """Raw-bin counts of the differences ending in m[lo:hi], by a plain double loop.

    Every pair (j, i) with lo <= i < hi, max(0, i - max_order) <= j < i and
    low_ns <= m[i] - m[j] < high_ns adds one to bin
    (m[i] - m[j] - low_ns) // bin_width_ns.  Python integers, so no wrap.
    """
    m = [int(x) for x in m_ns]
    counts = [0] * ((high_ns - low_ns) // bin_width_ns)
    for i in range(lo, hi):
        for j in range(max(0, i - max_order), i):
            d = m[i] - m[j]
            if low_ns <= d < high_ns:
                counts[(d - low_ns) // bin_width_ns] += 1
    return counts


def pad_scan_reference(series, cfg):
    """The pad window scan with one 1-D periodogram per segment, summed in a loop.

    Returns (detected, detection_time_ns, windows, trajectory) with the same
    hop, band, floor and peak rules as pad.detect_psd.
    """
    x = np.asarray(series, dtype=float)
    if len(x) < cfg.window:
        return False, None, 0, ()
    seg = cfg.segment_len
    freqs = np.fft.rfftfreq(seg, d=cfg.sample_interval_ns / 1e9)
    band = (freqs >= cfg.min_freq_hz) & (freqs <= cfg.max_freq_hz)
    trajectory = []
    for w, start in enumerate(range(0, len(x) - cfg.window + 1, cfg.window // 2)):
        psd = np.zeros(seg // 2 + 1)
        for s in range(cfg.segments):
            part = x[start + s * seg : start + (s + 1) * seg]
            spec = np.abs(np.fft.rfft(part - part.mean())) ** 2 / seg
            spec[1:] *= 2.0
            if seg % 2 == 0:
                spec[-1] /= 2.0
            psd += spec
        psd /= cfg.segments
        in_band = psd[band]
        floor = float(np.median(in_band))
        if floor > 0.0:
            k = int(np.argmax(in_band))
            ratio, peak = float(in_band[k]) / floor, float(freqs[band][k])
        else:
            ratio, peak = 0.0, 0.0
        trajectory.append((w, ratio, peak))
        if ratio > cfg.peak_factor:
            end_ns = int((start + cfg.window) * cfg.sample_interval_ns)
            return True, end_ns, w + 1, tuple(trajectory)
    return False, None, len(trajectory), tuple(trajectory)


def gen_poisson_reference(cfg):
    """Poisson background trace from the same draws as gen_poisson, cut by masks.

    Draws the gap chunks in the same order, cumsums their concatenation,
    then keeps the times below duration_ns before and after rounding with
    boolean masks over the whole array.
    """
    if cfg.duration_ns == 0:
        return PacketTrace.empty()
    rng = np.random.default_rng(cfg.seed)
    chunks = []
    acc = 0.0
    while acc < cfg.duration_ns:
        expect = (cfg.duration_ns - acc) / cfg.mean_gap_ns
        n = int(expect * 1.05) + int(4.0 * math.sqrt(expect)) + 16
        gaps = rng.exponential(cfg.mean_gap_ns, n)
        chunks.append(gaps)
        acc += float(gaps.sum())
    t = np.cumsum(np.concatenate(chunks))
    t_ns = np.rint(t[t < cfg.duration_ns]).astype(np.int64)
    t_ns = t_ns[t_ns < cfg.duration_ns]
    sizes = _draw_sizes(rng, len(t_ns), cfg)
    return PacketTrace(t_ns, sizes, np.zeros(len(t_ns), np.uint8))


def merge_reference(a, b):
    """Merge two traces by a stable time sort of their concatenation: on a tie, a's rows first."""
    t = np.concatenate([a.t_ns, b.t_ns])
    size = np.concatenate([a.size_bytes, b.size_bytes])
    label = np.concatenate([a.label, b.label])
    order = np.argsort(t, kind="stable")  # equal times keep input order
    return PacketTrace(t[order], size[order], label[order])


def transfer_reference(trace, rate_bps):
    """The delay as one rint of size * 8e9 / rate per packet, then a stable re-sort when needed."""
    t = trace.t_ns + np.rint(trace.size_bytes * (8e9 / rate_bps)).astype(np.int64)
    if np.all(np.diff(t) >= 0):
        return PacketTrace(t, trace.size_bytes, trace.label)
    order = np.argsort(t, kind="stable")
    return PacketTrace(t[order], trace.size_bytes[order], trace.label[order])
