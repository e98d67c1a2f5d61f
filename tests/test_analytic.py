"""Gap-distribution densities and rate estimators.

Expected values come from three independent routes: adaptive quadrature for
normalizations and means, iterated numerical convolution for the Erlang
shapes, and seeded end-to-end simulation for the estimators.
"""

import math

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

from icmeas.analytic import (
    METHOD_ERLANG_RATIO,
    METHOD_SINGLE_PAIR,
    GapDistParams,
    LambdaEstimate,
    estimate_lambda_ratio,
    estimate_lambda_single_pairs,
    mean_shifted_exp,
    mean_trunc_exp,
    mixture_density,
    pdf_shifted_erlang,
    pdf_shifted_exp,
    pdf_trunc_exp,
)
from icmeas.errors import ConfigError, InsufficientDataError
from icmeas.meassim import HicConfig, MeasurementSeries, TransferConfig, measure
from icmeas.trafficgen import PoissonConfig, gen_poisson

from oracles import erlang_convolution_reference

US = 1000


def _series(m_us, counts):
    return MeasurementSeries(
        np.array(m_us, np.int64) * US, np.array(counts, np.int64), {}
    )


class TestParams:
    def test_validation(self):
        with pytest.raises(ConfigError):
            GapDistParams(lambda_ns=0)
        with pytest.raises(ConfigError):
            GapDistParams(lambda_ns=-1.0)
        with pytest.raises(ConfigError):
            GapDistParams(lambda_ns=10.0, bound_ns=-1.0)

    def test_bound_ratio(self):
        p = GapDistParams(lambda_ns=10.0 * US, bound_ns=30.0 * US)
        assert p.bound_ratio == 3.0

    def test_estimate_validation(self):
        with pytest.raises(ConfigError):
            LambdaEstimate(0.0, METHOD_SINGLE_PAIR, 1)
        with pytest.raises(ConfigError):
            LambdaEstimate(1.0, METHOD_ERLANG_RATIO, 0)


class TestShiftedExp:
    P = GapDistParams(lambda_ns=10.0 * US, bound_ns=30.0 * US)

    def test_at_bound(self):
        assert pdf_shifted_exp(30.0 * US, self.P) == pytest.approx(1.0 / (10.0 * US))

    def test_below_bound_zero(self):
        assert pdf_shifted_exp(29.999 * US, self.P) == 0.0
        assert pdf_shifted_exp(0.0, self.P) == 0.0

    def test_mean(self):
        assert mean_shifted_exp(self.P) == 40.0 * US

    def test_normalization(self):
        total, err = quad(lambda y: pdf_shifted_exp(y, self.P), 30.0 * US, np.inf)
        assert abs(total - 1.0) < 1e-6
        assert err < 1e-9

    def test_vector_input(self):
        y = np.array([0.0, 30.0 * US, 40.0 * US])
        out = pdf_shifted_exp(y, self.P)
        assert out.shape == (3,)
        assert out[0] == 0.0
        assert out[2] == pytest.approx(math.exp(-1.0) / (10.0 * US))


class TestTruncExp:
    P = GapDistParams(lambda_ns=10.0 * US, bound_ns=30.0 * US)

    def test_degenerate_bound_rejected(self):
        p = GapDistParams(lambda_ns=10.0 * US, bound_ns=0.0)
        with pytest.raises(ConfigError):
            pdf_trunc_exp(5.0, p)
        with pytest.raises(ConfigError):
            mean_trunc_exp(p)

    def test_normalization(self):
        total, _ = quad(lambda y: pdf_trunc_exp(y, self.P), 0.0, 30.0 * US)
        assert abs(total - 1.0) < 1e-9

    def test_outside_support_zero(self):
        assert pdf_trunc_exp(-1.0, self.P) == 0.0
        assert pdf_trunc_exp(30.001 * US, self.P) == 0.0

    def test_mean_against_quadrature(self):
        oracle, _ = quad(lambda y: y * pdf_trunc_exp(y, self.P), 0.0, 30.0 * US)
        assert mean_trunc_exp(self.P) == pytest.approx(oracle, rel=1e-9)

    def test_mean_value(self):
        # frozen from the quadrature oracle above: 8.4281 us at scale 10 us,
        # bound 30 us
        assert mean_trunc_exp(self.P) / US == pytest.approx(8.428, abs=1e-3)

    def test_large_ratio_limit(self):
        p = GapDistParams(lambda_ns=10.0 * US, bound_ns=600.0 * US)
        assert mean_trunc_exp(p) == pytest.approx(10.0 * US, rel=1e-12)


class TestShiftedErlang:
    P = GapDistParams(lambda_ns=10.0 * US, bound_ns=30.0 * US)

    def test_order_validation(self):
        with pytest.raises(ConfigError):
            pdf_shifted_erlang(40.0 * US, 0, self.P)
        with pytest.raises(ConfigError, match="^n_orders must be >= 1$"):
            mixture_density(40.0 * US, 0, self.P)

    def test_order_one_reduces_to_shifted_exp(self):
        y = np.linspace(0.0, 100.0 * US, 257)
        np.testing.assert_allclose(
            pdf_shifted_erlang(y, 1, self.P), pdf_shifted_exp(y, self.P), rtol=1e-15
        )

    def test_order_two_zero_at_bound(self):
        assert pdf_shifted_erlang(30.0 * US, 2, self.P) == 0.0

    def test_normalization_order_four(self):
        # finite upper limit: the order-4 tail beyond 100 scales is ~1e-37
        total, _ = quad(
            lambda y: pdf_shifted_erlang(y, 4, self.P), 30.0 * US, 1030.0 * US, limit=200
        )
        assert abs(total - 1.0) < 1e-6

    @pytest.mark.parametrize("order", [2, 3, 4, 5])
    def test_matches_convolution_oracle(self, order):
        lam = self.P.lambda_ns
        x, ref = erlang_convolution_reference(lam, order, 12.0 * lam)
        got = pdf_shifted_erlang(self.P.bound_ns + x, order, self.P)
        scale = 1.0 / lam
        assert np.max(np.abs(got - ref)) / scale < 1e-6

    def test_log_space_continuity(self):
        # orders just across the direct/log-space split agree with the plain
        # gamma density route
        y = np.linspace(31.0 * US, 900.0 * US, 101)
        for order in (20, 21, 25, 150):
            ref = stats.gamma.pdf(y, a=order, loc=self.P.bound_ns, scale=self.P.lambda_ns)
            np.testing.assert_allclose(
                pdf_shifted_erlang(y, order, self.P), ref, rtol=1e-10, atol=1e-300
            )


class TestMixture:
    P = GapDistParams(lambda_ns=10.0 * US, bound_ns=30.0 * US)

    def test_below_bound_zero(self):
        assert mixture_density(10.0 * US, 50, self.P) == 0.0

    def test_single_order_is_shifted_exp(self):
        y = np.linspace(30.0 * US, 200.0 * US, 65)
        np.testing.assert_allclose(
            mixture_density(y, 1, self.P), pdf_shifted_exp(y, self.P), rtol=1e-12
        )

    def test_equals_explicit_order_sum(self):
        y = np.linspace(30.0 * US, 400.0 * US, 49)
        for n in (1, 2, 5, 17, 60):
            explicit = sum(pdf_shifted_erlang(y, i, self.P) for i in range(1, n + 1))
            np.testing.assert_allclose(mixture_density(y, n, self.P), explicit, rtol=1e-10)

    def test_monotone_in_orders_and_bounded(self):
        y = np.linspace(30.0 * US, 500.0 * US, 33)
        prev = np.zeros_like(y)
        cap = 1.0 / self.P.lambda_ns
        for n in range(1, 41):
            cur = mixture_density(y, n, self.P)
            assert np.all(cur >= prev - 1e-18)
            assert np.all(cur <= cap * (1 + 1e-12))
            prev = cur

    def test_converges_to_inverse_scale(self):
        cap = 1.0 / self.P.lambda_ns
        for y_us in (40.0, 100.0, 300.0):
            got = mixture_density(y_us * US, 50, self.P)
            assert abs(got - cap) / cap < 1e-4


def _poisson_measured(mean_gap_ns, n_packets, seed, hic):
    duration = int(mean_gap_ns * n_packets)
    trace = gen_poisson(
        PoissonConfig(mean_gap_ns=mean_gap_ns, duration_ns=duration, seed=seed, size_bytes=500)
    )
    return measure(trace, TransferConfig(), hic)


class TestSinglePairEstimator:
    def test_hand_example(self):
        ms = _series([100, 140, 180, 220], [1, 1, 1, 1])
        est = estimate_lambda_single_pairs(ms, 30 * US)
        assert est.value_ns == pytest.approx(10.0 * US)
        assert est.sample_count == 3
        assert est.method == METHOD_SINGLE_PAIR

    def test_no_qualifying_pairs(self):
        ms = _series([100, 200, 300], [1, 2, 1])
        with pytest.raises(InsufficientDataError):
            estimate_lambda_single_pairs(ms, 30 * US)

    def test_too_short(self):
        ms = _series([100], [1])
        with pytest.raises(InsufficientDataError):
            estimate_lambda_single_pairs(ms, 30 * US)

    def test_degenerate_shift(self):
        ms = _series([100, 130, 160], [1, 1, 1])
        with pytest.raises(InsufficientDataError):
            estimate_lambda_single_pairs(ms, 30 * US)

    def test_recovers_poisson_rate(self):
        lam = 50.0 * US
        ms = _poisson_measured(lam, 1_000_000, seed=410, hic=HicConfig(30 * US, 300 * US))
        est = estimate_lambda_single_pairs(ms, 30 * US)
        assert abs(est.value_ns - lam) / lam < 0.02
        assert est.sample_count > 10_000


class TestRatioEstimator:
    def test_constant_gap_singles(self):
        ms = _series([0, 70, 140, 210], [1, 1, 1, 1])
        assert estimate_lambda_ratio(ms).value_ns == pytest.approx(70.0 * US)

    def test_hand_example(self):
        ms = _series([0, 100, 200], [4, 4, 4])
        est = estimate_lambda_ratio(ms)
        assert est.value_ns == pytest.approx(25.0 * US)
        assert est.method == METHOD_ERLANG_RATIO
        assert est.sample_count == 3

    def test_shift_invariance_exact(self):
        ms = _series([0, 130, 247, 391], [2, 1, 3, 2])
        shifted = MeasurementSeries(ms.m_ns + 987_654_321, ms.count, {})
        assert estimate_lambda_ratio(ms).value_ns == estimate_lambda_ratio(shifted).value_ns

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            estimate_lambda_ratio(_series([5], [3]))

    def test_decreasing_series_is_refused(self):
        with pytest.raises(
            InsufficientDataError, match="^measurement timestamps are not increasing$"
        ):
            estimate_lambda_ratio(_series([300, 200, 100], [2, 2, 2]))

    def test_recovers_poisson_rate(self):
        lam = 12.5 * US
        ms = _poisson_measured(lam, 1_000_000, seed=411, hic=HicConfig(30 * US, 300 * US))
        est = estimate_lambda_ratio(ms)
        assert abs(est.value_ns - lam) / lam < 0.02


class TestTwoPacketGapMean:
    def test_decomposes_into_shifted_plus_truncated(self):
        # a two-packet group closes a gap that is one timer-exceeding gap
        # (shifted exponential) plus one coalesced gap (truncated
        # exponential); the exact decomposition holds within three standard
        # errors, while the simpler shifted-plus-plain-scale sum is only a
        # few percent off in this regime
        lam = 10.0 * US
        pack = 30 * US
        ms = _poisson_measured(lam, 400_000, seed=500, hic=HicConfig(pack, 3000 * US))
        gaps = np.diff(ms.m_ns)[ms.count[1:] == 2]
        assert len(gaps) > 500
        p = GapDistParams(lambda_ns=lam, bound_ns=pack)
        exact = mean_shifted_exp(p) + mean_trunc_exp(p)
        se = gaps.std(ddof=1) / math.sqrt(len(gaps))
        assert abs(gaps.mean() - exact) < 3 * se
        approx = 2 * lam + pack
        assert abs(gaps.mean() - approx) / approx < 0.06
