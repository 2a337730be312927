"""Consumption curve evaluation, regime classification, risk-tolerance band.

Frozen high-precision values (40-digit arithmetic) for beta = 25/9,
lambda = 1, T = 1:
    c(0)        = 2.501294573933245
    int_0^T c   = 1.860969350357791
"""
import math
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from merton_arena import (
    ConsumptionPolicy,
    OutOfDomain,
    Regime,
    classify_regime,
    consumption_rate,
    cumulative_consumption,
    delta_band,
)
from merton_arena.policy import _cumulative, _rate, _regimes

C0_REF = 2.501294573933245
INT_REF = 1.860969350357791


def random_policies(rng, count):
    for _ in range(count):
        yield ConsumptionPolicy(
            beta=float(rng.uniform(-4.0, 4.0)),
            lam=float(rng.uniform(0.1, 4.0)),
            horizon=float(rng.uniform(0.25, 2.0)),
        )


class TestConsumptionRate:
    def test_zero_beta_start(self):
        pol = ConsumptionPolicy(0.0, 1.0, 1.0)
        assert pol.rate(0.0) == 0.5

    def test_terminal_value_is_lambda(self):
        rng = np.random.default_rng(0)
        for pol in random_policies(rng, 50):
            assert pol.rate(pol.horizon) == pytest.approx(pol.lam, abs=1e-14)

    def test_frozen_high_precision_value(self):
        pol = ConsumptionPolicy(25.0 / 9.0, 1.0, 1.0)
        assert pol.rate(0.0) == pytest.approx(C0_REF, rel=1e-14)

    def test_positive_everywhere(self):
        rng = np.random.default_rng(1)
        for pol in random_policies(rng, 100):
            t = np.linspace(0.0, pol.horizon, 101)
            assert np.all(pol.rate(t) > 0.0)

    def test_out_of_domain(self):
        pol = ConsumptionPolicy(1.0, 1.0, 1.0)
        for curve in (pol.rate, pol.cumulative):
            for t in (-0.01, 1.01, math.nan, np.array([0.5, math.nan])):
                with pytest.raises(OutOfDomain):
                    curve(t)

    def test_module_function_alias(self):
        pol = ConsumptionPolicy(0.0, 2.0, 1.0)
        assert consumption_rate(pol, 1.0) == 2.0


class TestCumulativeConsumption:
    def test_zero_beta(self):
        pol = ConsumptionPolicy(0.0, 1.0, 1.0)
        assert pol.cumulative(0.0) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_zero_at_horizon(self):
        rng = np.random.default_rng(2)
        for pol in random_policies(rng, 50):
            assert pol.cumulative(pol.horizon) == 0.0

    def test_frozen_high_precision_value(self):
        pol = ConsumptionPolicy(25.0 / 9.0, 1.0, 1.0)
        assert pol.cumulative(0.0) == pytest.approx(INT_REF, rel=1e-14)

    def test_module_function_alias(self):
        pol = ConsumptionPolicy(0.0, 1.0, 2.0)
        assert cumulative_consumption(pol, 0.0) == pytest.approx(math.log(3.0), abs=1e-14)

    @pytest.mark.parametrize("beta, lam, horizon", [
        (800.0, 1.0, 1.0),       # expm1(beta T) overflows
        (2.0, 1e300, 100.0),     # expm1 is finite where lambda/beta times it is not
        (1e-3, 1e-5, 8e5),
        (5.0, 3.0, 142.0),       # beta T = 710: just past the exp range
        (1e-14, 1e300, 1.0),     # |beta tau| < 1e-12 throughout, lambda/beta beyond the range
        (1e-13, 1e300, 1.0),
    ])
    def test_beyond_exp_range(self, beta, lam, horizon):
        # log(1 + (lambda/beta)(e^(beta tau) - 1)) in 60-digit arithmetic; the
        # float form's intermediates overflow (RuntimeWarnings are errors here)
        pol = ConsumptionPolicy(beta, lam, horizon)
        t = np.linspace(0.0, horizon, 41)

        def exact(tau):
            with localcontext() as ctx:
                ctx.prec = 60
                b, x = Decimal(beta), Decimal(beta) * Decimal(tau)
                return float((1 + Decimal(lam) / b * (x.exp() - 1)).ln())

        got = pol.cumulative(t)
        ref = np.array([exact(tau) for tau in horizon - t])
        assert got[-1] == 0.0
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)
        assert pol.cumulative(0.0) == got[0]


class TestCurveIdentities:
    def test_growth_identity(self):
        # c(t) exp(int_t^T c) = lambda e^(beta (T-t)) across the domain
        rng = np.random.default_rng(3)
        for pol in random_policies(rng, 200):
            t = np.linspace(0.0, pol.horizon, 37)
            lhs = pol.rate(t) * np.exp(pol.cumulative(t))
            rhs = pol.lam * np.exp(pol.beta * (pol.horizon - t))
            assert np.max(np.abs(lhs / rhs - 1.0)) <= 1e-10

    def test_fundamental_theorem(self):
        # d/dt [-cumulative](t) = c(t), checked by central differences
        rng = np.random.default_rng(4)
        h = 1e-5
        for pol in random_policies(rng, 100):
            t = np.linspace(0.0, pol.horizon - h, 23)
            deriv = (pol.cumulative(t) - pol.cumulative(t + h)) / h
            assert np.max(np.abs(deriv - pol.rate(t + h / 2.0))) <= 1e-6

    def test_branch_continuity(self):
        t = np.linspace(0.0, 1.0, 201)
        near = ConsumptionPolicy(1e-13, 1.3, 1.0)
        exact = ConsumptionPolicy(0.0, 1.3, 1.0)
        assert np.max(np.abs(near.rate(t) - exact.rate(t))) <= 1e-9
        assert np.max(np.abs(near.cumulative(t) - exact.cumulative(t))) <= 1e-9

    def test_monotonicity_matches_sign(self):
        rng = np.random.default_rng(5)
        for pol in random_policies(rng, 1000):
            t = np.sort(rng.uniform(0.0, pol.horizon, size=(100, 2)), axis=1)
            t1, t2 = t[:, 0], t[:, 1]
            change = pol.rate(t2) - pol.rate(t1)
            sign = np.sign(pol.lam - pol.beta)
            keep = t2 > t1
            assert np.all(np.sign(change[keep]) == sign)


_EXP_LIMIT = float(np.log(np.finfo(float).max)) - 1e-9

# Each kernel as (general, flipped, exponent, at_zero), the forms of policy._branches.
MASKED_FORMS = {
    "rate": (lambda x, b, lam: 1.0 / (-np.expm1(-x) / b + np.exp(-x) / lam),
             lambda x, b, lam: np.exp(x - np.log(np.expm1(x) / b + 1.0 / lam)),
             lambda x, b, lam: np.maximum(np.log(1.0 / np.abs(b) + 1.0 / lam), 0.0) - x,
             lambda lam, tau: 1.0 / (tau + 1.0 / lam)),
    "cumulative": (lambda x, b, lam: np.log1p(lam / b * np.expm1(x)),
                   lambda x, b, lam: x + np.log(lam / b) + np.log1p((b / lam - 1) * np.exp(-x)),
                   lambda x, b, lam: x + np.log(np.maximum(lam / b, 1.0)),
                   lambda lam, tau: np.log1p(lam * tau)),
}


def masked_kernel(curve, beta, lam, tau):
    """A kernel with the beta = 0 masks on every entry and no step in place: the bits to keep."""
    general, flipped, exponent, at_zero = MASKED_FORMS[curve]
    small = np.abs(beta * tau) < 1e-12
    b = np.where(small, 1.0, beta)
    x, b, lam_x = np.broadcast_arrays(np.where(small, 0.0, b * tau), b, lam)
    flip = ~small & (exponent(x, b, lam_x) > _EXP_LIMIT)
    out = np.empty(x.shape)
    out[~flip] = general(x[~flip], b[~flip], lam_x[~flip])
    out[flip] = flipped(x[flip], b[flip], lam_x[flip])
    return np.where(small, at_zero(lam, tau), out)


class TestBroadcastKernels:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(
               st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0, 1e-14, -1e-14, 5e-13])),
               st.floats(-300.0, 300.0)),
               min_size=1, max_size=6),
           st.floats(0.01, 10.0), st.integers(1, 40))
    def test_columns_equal_per_policy_calls(self, agents, horizon, count):
        # (n,) beta and lambda columns against a (times, 1) tau, as the oracle calls _rate
        beta = np.array([b for b, _ in agents])
        lam = 10.0 ** np.array([e for _, e in agents])
        t = np.linspace(0.0, horizon, count)
        for kernel, curve in ((_rate, "rate"), (_cumulative, "cumulative")):
            with np.errstate(all="ignore"):
                got = kernel(beta, lam, (horizon - t)[:, None])
                want = np.column_stack([getattr(ConsumptionPolicy(float(b), float(l), horizon),
                                                curve)(t) for b, l in zip(beta, lam)])
            assert got.shape == (count, len(agents))
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @staticmethod
    def assert_block_equals_alone(beta, lam, horizon, t):
        """A (times, n) block equals the masked form, the per-policy curves and each entry alone.

        Each form overwrites only its own entries, and a column reads beta
        as 1 only when all its entries take the beta = 0 limit, so a block,
        a column and an entry alone meet.
        """
        tau = (horizon - t)[:, None]
        columns = list(zip(beta.tolist(), lam.tolist()))
        policies = [ConsumptionPolicy(b, l, horizon) for b, l in columns]
        for kernel, curve in ((_rate, "rate"), (_cumulative, "cumulative")):
            with np.errstate(all="ignore"):
                got = kernel(beta, lam, tau)
                masked = masked_kernel(curve, beta, lam, tau)
                per_policy = np.column_stack([getattr(pol, curve)(t) for pol in policies])
                alone = np.array([[kernel(b, l, ta) for b, l in columns] for ta in tau[:, 0]])
            assert got.shape == (len(t), len(beta))
            for want in (masked, per_policy, alone):
                assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.floats(-1e3, 1e3).filter(lambda b: abs(b) > 1e-6),
                              st.floats(-300.0, 300.0)),
                    min_size=1, max_size=6),
           st.floats(0.01, 10.0), st.integers(1, 40))
    def test_blocks_with_positive_time_to_go(self, agents, horizon, count):
        # t < T throughout, as in every oracle chunk but the last: no entry is
        # the beta = 0 limit, so at_zero overwrites nothing
        beta = np.array([b for b, _ in agents])
        lam = 10.0 ** np.array([e for _, e in agents])
        t = np.linspace(0.0, horizon, count + 1)[:-1]
        assert np.all(np.abs(beta * (horizon - t)[:, None]) >= 1e-12)
        self.assert_block_equals_alone(beta, lam, horizon, t)

    @pytest.mark.parametrize("last", [False, True])
    def test_blocks_with_flipped_entries(self, last):
        # beta tau = -800 passes the rate's exponent limit and +800 the
        # integral's; with t = T at_zero overwrites that row as well
        beta = np.array([-800.0, 800.0, -400.0, 3.0, 1e-3, -2.0])
        lam = np.array([1e-5, 1.0, 1e300, 2.0, 1.0, 1e-300])
        t = np.linspace(0.0, 2.0, 41 if last else 40)
        self.assert_block_equals_alone(beta, lam, 2.0, t)


    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(
               st.one_of(st.sampled_from([0.0, -0.0, 1e-14, -1e-14, 5e-13, 1e-300, -1e-300,
                                          5e-324]),
                         st.floats(-1e3, 1e3)),
               st.floats(-3.0, 3.0)),
               min_size=1, max_size=6),
           st.floats(0.01, 10.0), st.integers(1, 40))
    def test_t_equals_T_row_changes_no_other_row(self, agents, horizon, count):
        # A grid that reaches t = T gives the other rows bitwise as a grid
        # that stops before it, and the beta = 0 limit on the last row.  No
        # errstate here: the suite turns any RuntimeWarning into an error.
        beta = np.array([b for b, _ in agents])
        lam = 10.0 ** np.array([e for _, e in agents])
        t = np.linspace(0.0, horizon, count + 1)
        tau = (horizon - t)[:, None]
        assert tau[-1, 0] == 0.0
        for kernel, curve in ((_rate, "rate"), (_cumulative, "cumulative")):
            with_t = kernel(beta, lam, tau)
            before = kernel(beta, lam, tau[:-1])
            at_zero = MASKED_FORMS[curve][3](lam, 0.0)
            assert np.array_equal(with_t[:-1].view(np.int64), before.view(np.int64))
            assert np.array_equal(with_t[-1].view(np.int64), at_zero.view(np.int64))

    def test_t_equals_T_row_costs_no_full_size_temporaries(self):
        # A (20001, 32) block whose last row is t = T, as the oracle's
        # half-step grid: 2.38 times its output, as a block without that
        # row; 4.26 when a t = T entry rebuilt beta and gathered the block.
        rng = np.random.default_rng(3)
        beta = rng.uniform(-5.0, 5.0, 32)
        lam = 10.0 ** rng.uniform(-3.0, 3.0, 32)
        tau = (1.0 - np.linspace(0.0, 1.0, 20001))[:, None]
        for kernel in (_rate, _cumulative):
            tracemalloc.start()
            try:
                out = kernel(beta, lam, tau)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 2.5 * out.nbytes, (kernel.__name__, peak / out.nbytes)

    def test_log_investor_curve_costs_the_limit_alone(self):
        # beta = 0 puts every entry at the limit, which alone is evaluated:
        # 3.13 times the output, 8.26 (rate) and 7.26 (cumulative) when the
        # general form ran on the whole block first
        policy = ConsumptionPolicy(0.0, 1.3, 1.0)
        t = np.linspace(0.0, 1.0, 20001)
        for curve in (policy.rate, policy.cumulative):
            tracemalloc.start()
            try:
                out = curve(t)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 3.5 * out.nbytes, (curve.__name__, peak / out.nbytes)

    def test_block_at_the_limit_keeps_its_shape(self):
        # beta columns against a scalar lambda: the block's shape, written in
        # place as the fixed-point check writes the integrals
        tau = np.array([0.5, 0.2, 0.0])[:, None]
        for kernel in (_rate, _cumulative):
            out = kernel(np.zeros(4), 2.0, tau)
            assert out.shape == (3, 4)
            out *= 2.0
            assert np.array_equal(out, 2.0 * np.column_stack([kernel(0.0, 2.0, tau[:, 0])] * 4))


class TestClassifyRegime:
    def test_decreasing(self):
        assert classify_regime(25.0 / 9.0, 1.0) is Regime.DECREASING

    def test_increasing(self):
        assert classify_regime(0.0, 1.0) is Regime.INCREASING

    def test_constant(self):
        assert classify_regime(1.0, 1.0) is Regime.CONSTANT

    def test_tolerance_boundary(self):
        lam = 1.0
        assert classify_regime(lam + 5e-13, lam) is Regime.CONSTANT
        assert classify_regime(lam + 5e-12, lam) is Regime.DECREASING
        assert classify_regime(lam - 5e-12, lam) is Regime.INCREASING

    def test_lambda_must_be_positive(self):
        with pytest.raises(ValueError):
            classify_regime(0.0, 0.0)

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
    def test_beta_must_be_finite(self, beta):
        with pytest.raises(ValueError, match="beta must be finite"):
            classify_regime(beta, 1.0)
        assert _regimes(math.nan, 1.0) == Regime.CONSTANT.value  # the grids' columns are not checked


class TestDeltaBand:
    def test_merton_band(self):
        band = delta_band(5.0, 1.0, 0.0, 0.52)
        assert band is not None
        lo, hi = band
        assert lo == pytest.approx(0.08768943743823394, abs=1e-12)
        assert hi == pytest.approx(0.9123105625617661, abs=1e-12)
        # endpoints solve beta(delta) = 12.5 delta (1 - delta) = 1
        for d in band:
            assert 12.5 * d * (1.0 - d) == pytest.approx(1.0, abs=1e-12)

    def test_high_volatility_empty(self):
        assert delta_band(1.0, 1.0, 0.3, 0.52) is None
        # 8 sigma^2 lands a hair above mu^2 = 16 here; >= must return None
        assert delta_band(4.0, math.sqrt(2.0), 0.3, 0.52) is None

    def test_critical_competition_empty(self):
        assert delta_band(5.0, 1.0, 0.52, 0.52) is None

    def test_ordering_both_sides_of_critical(self):
        lo, hi = delta_band(5.0, 1.0, 0.3, 0.52)
        assert lo < hi < 1.0
        lo, hi = delta_band(5.0, 1.0, 0.9, 0.52)
        assert 1.0 < lo < hi

    def test_band_matches_regime_classification(self):
        # single-stock equilibrium: decreasing exactly inside the band
        mu, sigma, tc = 5.0, 1.0, 0.52
        for theta in (0.0, 0.2, 0.75, 1.0):
            band = delta_band(mu, sigma, theta, tc)
            x = theta / tc
            for delta in np.linspace(0.02, 6.0, 121):
                deff = (1.0 - x) * delta + x
                beta = mu**2 / (2.0 * sigma**2) * deff * (1.0 - deff)
                regime = classify_regime(beta, 1.0)
                inside = band is not None and band[0] < delta < band[1]
                near_edge = band is not None and min(
                    abs(delta - band[0]), abs(delta - band[1])) < 1e-9
                if near_edge:
                    continue
                assert (regime is Regime.DECREASING) == inside


class TestRegimeReport:
    # the regime and the delta band, read from classify_regime and delta_band
    def test_fields(self):
        assert classify_regime(2.0, 1.0) is Regime.DECREASING
        assert delta_band(mu=5.0, sigma=1.0, theta=0.0, theta_crit=0.52) is not None

    def test_high_volatility_flag(self):
        # 8 sigma^2 = 8 > mu^2 = 1: beta < 1 for every delta
        assert classify_regime(0.2, 1.0) is Regime.INCREASING
        assert delta_band(mu=1.0, sigma=1.0, theta=0.0, theta_crit=0.52) is None


class TestPolicyValidation:
    def test_lambda_positive(self):
        with pytest.raises(ValueError):
            ConsumptionPolicy(0.0, 0.0, 1.0)

    def test_horizon_positive(self):
        with pytest.raises(ValueError):
            ConsumptionPolicy(0.0, 1.0, -1.0)
