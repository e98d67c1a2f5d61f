"""Closed-form gap distributions and rate estimators for coalesced measurements.

A Poisson packet stream pushed through hybrid coalescence yields measurement
inter-arrival gaps with known shapes: a packet-timer-shifted exponential for
single-packet groups, shifted Erlang densities for multi-packet groups, and a
mixture that flattens toward 1/lambda as orders accumulate.  The two rate
estimators recover the underlying mean packet gap from measurement streams
alone.  All times are nanoseconds; densities are per nanosecond.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincc, gammaln

from .errors import ConfigError, InsufficientDataError

METHOD_SINGLE_PAIR = "single_pair_shift_corrected"
METHOD_ERLANG_RATIO = "erlang_ratio"


@dataclass(frozen=True)
class GapDistParams:
    """Scale and shift/truncation bound of the gap distributions.

    lambda_ns is the exponential scale (mean packet gap); bound_ns is the
    shift of the supported region or, for the truncated variant, its upper
    limit.  bound_ratio = bound_ns / lambda_ns is the shape-controlling ratio.
    """

    lambda_ns: float
    bound_ns: float = 0.0

    def __post_init__(self):
        if self.lambda_ns <= 0:
            raise ConfigError("lambda_ns must be positive")
        if self.bound_ns < 0:
            raise ConfigError("bound_ns must be non-negative")

    @property
    def bound_ratio(self) -> float:
        return self.bound_ns / self.lambda_ns


@dataclass(frozen=True)
class LambdaEstimate:
    """Recovered mean packet gap plus the method and sample size behind it."""

    value_ns: float
    method: str
    sample_count: int

    def __post_init__(self):
        if self.value_ns <= 0:
            raise ConfigError("value_ns must be positive")
        if self.sample_count < 1:
            raise ConfigError("sample_count must be >= 1")


def pdf_shifted_exp(y_ns, p: GapDistParams):
    """Exponential density shifted to start at bound_ns; zero below it."""
    y = np.asarray(y_ns, dtype=float)
    x = y - p.bound_ns
    out = np.where(x >= 0, np.exp(-np.maximum(x, 0.0) / p.lambda_ns) / p.lambda_ns, 0.0)
    return out if out.ndim else float(out)


def mean_shifted_exp(p: GapDistParams) -> float:
    return p.lambda_ns + p.bound_ns


def pdf_trunc_exp(y_ns, p: GapDistParams):
    """Exponential density renormalized onto [0, bound_ns]."""
    if p.bound_ns <= 0:
        raise ConfigError("truncated density needs bound_ns > 0")
    y = np.asarray(y_ns, dtype=float)
    norm = p.lambda_ns * (1.0 - math.exp(-p.bound_ratio))
    inside = (y >= 0) & (y <= p.bound_ns)
    out = np.where(inside, np.exp(-np.abs(y) / p.lambda_ns) / norm, 0.0)
    return out if out.ndim else float(out)


def mean_trunc_exp(p: GapDistParams) -> float:
    if p.bound_ns <= 0:
        raise ConfigError("truncated density needs bound_ns > 0")
    k = p.bound_ratio
    return p.lambda_ns * (1.0 - (k + 1.0) * math.exp(-k)) / (1.0 - math.exp(-k))


def pdf_shifted_erlang(y_ns, order: int, p: GapDistParams):
    """Density of the gap closed by a measurement holding `order` packets.

    Erlang of the given order in the exponential scale, shifted by bound_ns.
    Order 1 is pdf_shifted_exp; higher orders are evaluated in log space, so
    no power or factorial overflows.
    """
    if order < 1:
        raise ConfigError("order must be >= 1")
    if order == 1:
        return pdf_shifted_exp(y_ns, p)
    y = np.asarray(y_ns, dtype=float)
    x = y - p.bound_ns
    lam = p.lambda_ns
    # x == 0 contributes zero for order >= 2, so log(x) is safe on x > 0
    out = np.zeros_like(y)
    pos = x > 0
    lx = np.log(x[pos])
    out[pos] = np.exp((order - 1) * lx - x[pos] / lam - order * math.log(lam) - gammaln(order))
    return out if out.ndim else float(out)


def mixture_density(y_ns, n_orders: int, p: GapDistParams):
    """Partial sum of shifted Erlang densities over orders 1..n_orders.

    Equals gammaincc(n_orders, (y-bound)/lambda) / lambda, the regularized
    upper incomplete gamma form of the truncated exponential series; converges
    pointwise to 1/lambda above the bound as n_orders grows.
    """
    if n_orders < 1:
        raise ConfigError("n_orders must be >= 1")
    y = np.asarray(y_ns, dtype=float)
    x = y - p.bound_ns
    out = np.where(x >= 0, gammaincc(n_orders, np.maximum(x, 0.0) / p.lambda_ns) / p.lambda_ns, 0.0)
    return out if out.ndim else float(out)


def estimate_lambda_single_pairs(ms, packet_timer_ns: float) -> LambdaEstimate:
    """Mean gap between adjacent single-packet measurements, shift-corrected.

    Adjacent one-packet groups are both closed by the packet timer, so their
    measurement gap equals the true packet gap plus a shift that the timer
    subtraction removes.
    """
    if len(ms) < 2:
        raise InsufficientDataError("need at least 2 measurements")
    single = ms.count == 1
    mask = single[1:] & single[:-1]
    n = int(np.count_nonzero(mask))
    if n == 0:
        raise InsufficientDataError("no adjacent single-packet measurement pairs")
    gaps = np.diff(ms.m_ns)[mask]
    value = float(gaps.mean()) - packet_timer_ns
    if value <= 0:
        raise InsufficientDataError("qualifying gaps do not exceed the packet timer")
    return LambdaEstimate(value, METHOD_SINGLE_PAIR, n)


def estimate_lambda_ratio(ms) -> LambdaEstimate:
    """Mean first-order measurement gap divided by mean packets per group.

    Works on any coalesced stream: the expected measurement gap is the mean
    packet gap times the expected group size, so the ratio cancels the
    grouping without distribution corrections.
    """
    if len(ms) < 2:
        raise InsufficientDataError("need at least 2 measurements")
    mean_gap = float(np.diff(ms.m_ns).mean())
    mean_count = float(ms.count.mean())
    value = mean_gap / mean_count
    if value <= 0:
        raise InsufficientDataError("measurement timestamps are not increasing")
    return LambdaEstimate(value, METHOD_ERLANG_RATIO, len(ms))
