"""Moment estimation and the five weight solvers against frozen oracles."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainopt import optimizer
from chainopt.errors import (
    DegenerateWindow,
    DimensionMismatch,
    InfeasibleConstraints,
    InfeasibleIvCap,
    InvalidConfig,
    InvalidIntensity,
    NoExcessReturn,
    SingularCovariance,
    WindowTooLarge,
)
from chainopt.optimizer import (
    CASH_ID,
    KINDS,
    MomentEstimate,
    PortfolioConstraints,
    WeightVector,
    estimate_moments,
    minimum_attainable_iv,
    shrink_covariance,
    solve,
    solve_box_constrained,
    solve_markowitz,
    solve_robust,
    solve_with_riskfree,
)

# Three-asset Markowitz problem. Oracle: independent 5x5 KKT solve of
# [2S 1 mu; 1' 0 0; mu' 0 0], cross-checked by a 1-D grid over the
# mean-constraint line refined to 1e-6 (max disagreement 5.6e-9).
MU3 = np.array([0.05, 0.08, 0.12])
COV3 = np.array([[0.04, 0.01, 0.00], [0.01, 0.09, 0.02], [0.00, 0.02, 0.16]])
TARGET3 = 0.09
MARKOWITZ3_W = (0.2455795677799606, 0.32023575638506885, 0.4341846758349705)
MARKOWITZ3_VAR = 0.04893909626719057

# Two-asset robust problem at kappa = 0.5. Oracle: dense grid over the
# budget line at step 1e-4, refined twice (x = 0.595263300399732);
# stationarity closed form agrees to 7 digits.
MU2 = np.array([0.06, 0.10])
COV2 = np.array([[0.04, 0.012], [0.012, 0.09]])
ROBUST2_W = (0.5952633010041358, 0.4047366989958642)
ROBUST2_OBJ = -0.016948595124925386
MINVAR2_W = (0.7358490566037735, 0.26415094339622647)

# Two-asset risk-free blend. Oracle: hand linear algebra --
# S^-1 (mu - rf 1) = (0.0018, 0.0027)/0.0039, scale 0.04/0.0553846.
RISKFREE_MU = np.array([0.04, 0.07])
RISKFREE_COV = np.array([[0.05, 0.01], [0.01, 0.08]])
RISKFREE_W = (1.0 / 3.0, 0.5, 1.0 / 6.0)

# Six-asset box problem in three identical pairs; the unique optimum is
# pair-symmetric, so it reduces to one free variable. No cap: interior
# stationarity w_i = (mu_i - nu)/(2 sigma_i^2) with nu = -1/700 gives
# exact rationals. With the IV cap 0.36 binding, eliminating the two
# equalities leaves a scalar quadratic minimized at c = 14/65.
MU6 = np.array([0.010, 0.010, 0.006, 0.006, 0.002, 0.002])
COV6 = np.diag([0.04, 0.04, 0.02, 0.02, 0.01, 0.01])
IV6 = np.array([0.60, 0.60, 0.40, 0.40, 0.20, 0.20])
BOX6_W = (1 / 7, 1 / 7, 13 / 70, 13 / 70, 6 / 35, 6 / 35)
CAPPED6_W = (3 / 26, 3 / 26, 11 / 65, 11 / 65, 14 / 65, 14 / 65)
IV_CAP = 0.36


# Five-minute option returns: the covariance norm is about 5.8e-5, so the
# 1/L gradient step is about 1e4 and every PGD step lands far outside the
# polytope. Unconstrained, the optimum (0.4, 0.4, 0.18, 0.01, 0.01) has
# portfolio IV 0.457, so a cap of 0.40 binds; the greedy floor is 0.2815.
MU5 = np.array([4e-4, 3e-4, 2e-4, 1e-4, -1e-4])
COV5 = 1e-5 * np.array(
    [
        [5.0, 1.0, 0.5, 0.0, 0.0],
        [1.0, 4.0, 0.5, 0.5, 0.0],
        [0.5, 0.5, 3.0, 0.5, 0.5],
        [0.0, 0.5, 0.5, 2.0, 0.5],
        [0.0, 0.0, 0.5, 0.5, 1.0],
    ]
)
IV5 = np.array([0.50, 0.45, 0.40, 0.30, 0.20])


def moments(mean, cov, window=30) -> MomentEstimate:
    return MomentEstimate(mean=np.asarray(mean, float), covariance=np.asarray(cov, float), window=window)


def polytope_vertices(n, lower, upper, ivs=None, cap=None) -> list[np.ndarray]:
    """Vertices of {lower <= w <= upper, sum(w) = 1, ivs.w <= cap} in R^n:
    every choice of n-1 active inequalities that, with the budget, pins a
    unique point inside the set."""
    rows = [(np.eye(n)[i], bound) for i in range(n) for bound in (lower, upper)]
    if cap is not None:
        rows.append((np.asarray(ivs, float), cap))
    found = []
    for active in itertools.combinations(rows, n - 1):
        matrix = np.vstack([np.ones(n)] + [row for row, _ in active])
        if abs(np.linalg.det(matrix)) < 1e-12:
            continue
        point = np.linalg.solve(matrix, np.array([1.0] + [rhs for _, rhs in active]))
        inside = np.all(point >= lower - 1e-12) and np.all(point <= upper + 1e-12)
        if inside and (cap is None or float(np.dot(ivs, point)) <= cap + 1e-12):
            found.append(point)
    return found


def assert_feasible(weights, lower, upper, ivs=None, cap=None) -> None:
    weights = np.asarray(weights)
    assert np.all(np.isfinite(weights))
    assert np.all(weights >= lower - 1e-12) and np.all(weights <= upper + 1e-12)
    assert abs(weights.sum() - 1.0) <= 1e-8
    if cap is not None:
        assert float(ivs @ weights) <= cap + 1e-12


# ---------------------------------------------------------------------------
# moments


class TestEstimateMoments:
    def test_hand_three_by_two(self):
        returns = np.array([[0.01, 0.02], [0.03, -0.01], [0.02, 0.04]])
        est = estimate_moments(returns, window=3)
        assert est.mean == pytest.approx([0.02, 0.05 / 3.0], abs=1e-15)
        expected_cov = np.array([[1.0e-4, -1.5e-4], [-1.5e-4, 1.9e-3 / 3.0]])
        np.testing.assert_allclose(est.covariance, expected_cov, atol=1e-18)
        assert est.window == 3

    def test_trailing_window_ignores_older_rows(self):
        returns = np.array([[9.0], [-9.0], [0.01], [0.03], [0.02]])
        est = estimate_moments(returns, window=3)
        assert est.mean[0] == pytest.approx(0.02, abs=1e-15)
        assert est.covariance[0, 0] == pytest.approx(1.0e-4, abs=1e-18)

    def test_constant_column_has_zero_variance(self):
        returns = np.column_stack([np.full(5, 0.01), np.linspace(0.0, 0.04, 5)])
        est = estimate_moments(returns, window=5)
        assert est.covariance[0, 0] == 0.0

    def test_duplicated_columns_give_rank_one(self):
        column = np.array([0.01, -0.02, 0.03, 0.005])
        est = estimate_moments(np.column_stack([column, column]), window=4)
        assert np.linalg.matrix_rank(est.covariance) == 1

    def test_window_larger_than_history(self):
        with pytest.raises(WindowTooLarge):
            estimate_moments(np.zeros((3, 2)), window=4)

    def test_window_below_two(self):
        with pytest.raises(DegenerateWindow):
            estimate_moments(np.zeros((3, 2)), window=1)

    def test_absent_entries_rejected(self):
        returns = np.array([[0.01, 0.02], [np.nan, 0.01], [0.02, 0.03]])
        with pytest.raises(InvalidConfig):
            estimate_moments(returns, window=3)

    def test_single_asset_accepted(self):
        est = estimate_moments(np.array([0.01, 0.03, 0.02]), window=3)
        assert est.covariance.shape == (1, 1)


class TestMomentEstimateInvariants:
    def test_asymmetric_covariance_rejected(self):
        with pytest.raises(InvalidConfig):
            moments([0.01, 0.02], [[0.04, 0.02], [0.01, 0.09]])

    def test_indefinite_covariance_rejected(self):
        with pytest.raises(InvalidConfig):
            moments([0.01, 0.02], [[0.01, 0.05], [0.05, 0.01]])

    def test_window_invariant(self):
        with pytest.raises(DegenerateWindow):
            moments([0.01], [[0.04]], window=1)


# ---------------------------------------------------------------------------
# shrinkage


class TestShrinkCovariance:
    SIGMA = np.array([[0.08, 0.02], [0.02, 0.04]])

    def test_zero_intensity_is_identity(self):
        np.testing.assert_array_equal(shrink_covariance(self.SIGMA, 0.0), self.SIGMA)

    def test_full_intensity_is_scaled_identity(self):
        shrunk = shrink_covariance(self.SIGMA, 1.0)
        np.testing.assert_allclose(shrunk, 0.06 * np.eye(2), atol=1e-18)

    def test_half_intensity_hand_values(self):
        shrunk = shrink_covariance(self.SIGMA, 0.5)
        np.testing.assert_allclose(
            shrunk, np.array([[0.07, 0.01], [0.01, 0.05]]), atol=1e-18
        )

    @pytest.mark.parametrize("intensity", [-0.1, 1.0001, 2.0])
    def test_out_of_range_intensity(self, intensity):
        with pytest.raises(InvalidIntensity):
            shrink_covariance(self.SIGMA, intensity)

    def test_eigenvalue_floor(self):
        rank_deficient = np.array([[0.05, 0.05], [0.05, 0.05]])
        for delta in (0.2, 0.5, 0.9):
            shrunk = shrink_covariance(rank_deficient, delta)
            floor = delta * np.trace(rank_deficient) / 2.0
            assert np.linalg.eigvalsh(shrunk).min() >= floor - 1e-10

    def test_output_symmetric(self):
        shrunk = shrink_covariance(COV3, 0.3)
        np.testing.assert_array_equal(shrunk, shrunk.T)


# ---------------------------------------------------------------------------
# Markowitz


class TestSolveMarkowitz:
    def test_symmetric_two_asset(self):
        est = moments([0.03, 0.03], [[0.05, 0.0], [0.0, 0.05]])
        result = solve_markowitz(est, target_return=0.03)
        assert result.weights == pytest.approx((0.5, 0.5), abs=1e-12)

    def test_equal_means_off_target_rejected(self):
        est = moments([0.03, 0.03], [[0.05, 0.0], [0.0, 0.05]])
        with pytest.raises(SingularCovariance):
            solve_markowitz(est, target_return=0.05)

    def test_three_asset_matches_kkt_oracle(self):
        result = solve_markowitz(moments(MU3, COV3), TARGET3)
        assert result.weights == pytest.approx(MARKOWITZ3_W, abs=1e-6)
        assert result.objective_value == pytest.approx(MARKOWITZ3_VAR, abs=1e-9)

    def test_constraints_hold(self):
        result = solve_markowitz(moments(MU3, COV3), TARGET3)
        w = result.as_array()
        assert abs(w.sum() - 1.0) <= 1e-12
        assert float(MU3 @ w) == pytest.approx(TARGET3, abs=1e-10)

    def test_shorts_allowed_for_aggressive_targets(self):
        result = solve_markowitz(moments(MU3, COV3), target_return=0.20)
        w = result.as_array()
        assert w.min() < 0.0
        assert float(MU3 @ w) == pytest.approx(0.20, abs=1e-10)

    def test_duplicated_assets_rejected(self):
        est = moments([0.05, 0.08], [[0.04, 0.04], [0.04, 0.04]])
        with pytest.raises(SingularCovariance):
            solve_markowitz(est, target_return=0.06)

    def test_frontier_variance_monotone_in_target(self):
        # Monotonicity holds on the efficient branch, above the global
        # minimum-variance return (0.0666 for this problem); below it
        # the frontier parabola is still falling.
        est = moments(MU3, COV3)
        variances = [
            solve_markowitz(est, target).objective_value
            for target in np.linspace(0.07, 0.16, 10)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(variances, variances[1:]))

    def test_scaling_mu_and_target_leaves_weights_unchanged(self):
        base = solve_markowitz(moments(MU3, COV3), TARGET3)
        scaled = solve_markowitz(moments(3.0 * MU3, COV3), 3.0 * TARGET3)
        assert scaled.weights == pytest.approx(base.weights, abs=1e-10)

    def test_universe_labels_passed_through(self):
        result = solve_markowitz(moments(MU3, COV3), TARGET3, universe=["X", "Y", "Z"])
        assert result.universe == ("X", "Y", "Z")


# ---------------------------------------------------------------------------
# risk-free blend


class TestSolveWithRiskfree:
    def test_target_equal_to_riskfree_is_all_cash(self):
        est = moments(RISKFREE_MU, RISKFREE_COV)
        result = solve_with_riskfree(est, riskfree=0.01, target_return=0.01)
        assert result.universe[-1] == CASH_ID
        assert result.weights[:-1] == pytest.approx((0.0, 0.0), abs=1e-15)
        assert result.weights[-1] == pytest.approx(1.0, abs=1e-15)

    def test_single_asset_linear_blend(self):
        est = moments([0.02], [[0.09]])
        result = solve_with_riskfree(est, riskfree=0.01, target_return=0.015)
        assert result.weights == pytest.approx((0.5, 0.5), abs=1e-9)

    def test_two_asset_hand_case(self):
        est = moments(RISKFREE_MU, RISKFREE_COV)
        result = solve_with_riskfree(est, riskfree=0.01, target_return=0.05)
        assert result.weights == pytest.approx(RISKFREE_W, abs=1e-7)
        blended = float(RISKFREE_MU @ result.as_array()[:-1]) + 0.01 * result.weights[-1]
        assert blended == pytest.approx(0.05, abs=1e-10)

    def test_no_excess_return(self):
        est = moments([0.01, 0.01], [[0.04, 0.0], [0.0, 0.09]])
        with pytest.raises(NoExcessReturn):
            solve_with_riskfree(est, riskfree=0.01, target_return=0.02)


# ---------------------------------------------------------------------------
# robust


class TestSolveRobust:
    def test_zero_radius_reduces_to_markowitz(self):
        est = moments(MU2, COV2)
        robust = solve_robust(est, uncertainty=0.0, target_return=0.08)
        plain = solve_markowitz(est, target_return=0.08)
        assert robust.weights == pytest.approx(plain.weights, abs=1e-6)

    def test_small_radius_falls_back_to_markowitz(self):
        # Excess-return spread s is about 0.123 here; kappa below it
        # leaves the robust objective unbounded along the frontier.
        est = moments(MU2, COV2)
        robust = solve_robust(est, uncertainty=0.05, target_return=0.08)
        plain = solve_markowitz(est, target_return=0.08)
        assert robust.weights == pytest.approx(plain.weights, abs=1e-9)

    def test_half_radius_matches_grid_oracle(self):
        result = solve_robust(moments(MU2, COV2), uncertainty=0.5)
        assert result.weights == pytest.approx(ROBUST2_W, abs=1e-3)
        assert result.weights == pytest.approx(ROBUST2_W, abs=1e-6)
        assert result.objective_value == pytest.approx(ROBUST2_OBJ, abs=1e-9)

    def test_large_radius_approaches_minimum_variance(self):
        result = solve_robust(moments(MU2, COV2), uncertainty=200.0)
        assert result.weights == pytest.approx(MINVAR2_W, abs=1e-3)

    def test_budget_holds(self):
        result = solve_robust(moments(MU2, COV2), uncertainty=0.5)
        assert abs(sum(result.weights) - 1.0) <= 1e-12

    def test_negative_radius_rejected(self):
        with pytest.raises(InvalidConfig):
            solve_robust(moments(MU2, COV2), uncertainty=-0.1)


# ---------------------------------------------------------------------------
# box-constrained


class TestSolveBoxConstrained:
    def test_high_risk_aversion_identity_covariance_is_equal_weight(self):
        est = moments(np.linspace(0.01, 0.06, 6), np.eye(6))
        result = solve_box_constrained(
            est, PortfolioConstraints(), risk_aversion=1e6
        )
        assert result.weights == pytest.approx((1 / 6,) * 6, abs=1e-6)
        assert all(0.01 - 1e-12 <= w <= 0.40 + 1e-12 for w in result.weights)

    def test_two_assets_with_default_box_infeasible(self):
        est = moments([0.01, 0.02], [[0.04, 0.0], [0.0, 0.09]])
        with pytest.raises(InfeasibleConstraints):
            solve_box_constrained(est, PortfolioConstraints())

    def test_interior_hand_problem(self):
        result = solve_box_constrained(moments(MU6, COV6), PortfolioConstraints())
        assert result.weights == pytest.approx(BOX6_W, abs=1e-3)
        assert abs(sum(result.weights) - 1.0) <= 1e-8

    def test_binding_iv_cap_matches_grid_oracle(self):
        # With pair symmetry and both equalities eliminated, the capped
        # problem reduces to one variable c (pair-3 weight): a = c - 0.1,
        # b = 0.6 - 2c, c in [0.11, 0.295]. Scan at 0.005 and zoom.
        def objective(c):
            a, b = c - 0.1, 0.6 - 2.0 * c
            linear = 2.0 * (0.010 * a + 0.006 * b + 0.002 * c)
            quadratic = 2.0 * (0.04 * a * a + 0.02 * b * b + 0.01 * c * c)
            return linear - quadratic

        low, high, step = 0.11, 0.295, 0.005
        best = None
        for _ in range(3):
            grid = np.arange(low, high + step / 2.0, step)
            values = [objective(c) for c in grid]
            best = float(grid[int(np.argmax(values))])
            low, high, step = best - 2.0 * step, best + 2.0 * step, step / 50.0
        assert best == pytest.approx(14.0 / 65.0, abs=1e-5)
        oracle = (best - 0.1, best - 0.1, 0.6 - 2 * best, 0.6 - 2 * best, best, best)

        result = solve_box_constrained(
            moments(MU6, COV6),
            PortfolioConstraints(iv_cap=IV_CAP),
            ivs=IV6,
        )
        assert result.weights == pytest.approx(oracle, abs=1e-3)
        assert result.weights == pytest.approx(CAPPED6_W, abs=1e-3)
        portfolio_iv = float(IV6 @ result.as_array())
        assert abs(portfolio_iv - IV_CAP) <= 1e-6

    def test_slack_iv_cap_does_not_move_the_optimum(self):
        capped = solve_box_constrained(
            moments(MU6, COV6), PortfolioConstraints(iv_cap=0.50), ivs=IV6
        )
        assert capped.weights == pytest.approx(BOX6_W, abs=1e-3)
        assert float(IV6 @ capped.as_array()) < 0.50

    def test_pair_symmetry_of_solution(self):
        result = solve_box_constrained(moments(MU6, COV6), PortfolioConstraints())
        w = result.weights
        assert w[0] == pytest.approx(w[1], abs=1e-6)
        assert w[2] == pytest.approx(w[3], abs=1e-6)
        assert w[4] == pytest.approx(w[5], abs=1e-6)

    def test_minimum_attainable_iv_hand_value(self):
        assert minimum_attainable_iv(PortfolioConstraints(), IV6) == pytest.approx(
            0.244, abs=1e-12
        )

    def test_infeasible_iv_cap(self):
        with pytest.raises(InfeasibleIvCap):
            solve_box_constrained(
                moments(MU6, COV6),
                PortfolioConstraints(iv_cap=0.20),
                ivs=IV6,
            )

    def test_ivs_and_cap_must_come_together(self):
        est = moments(MU6, COV6)
        with pytest.raises(InvalidConfig):
            solve_box_constrained(est, PortfolioConstraints(), ivs=IV6)
        with pytest.raises(InvalidConfig):
            solve_box_constrained(est, PortfolioConstraints(iv_cap=0.4))

    def test_negative_risk_aversion_rejected(self):
        with pytest.raises(InvalidConfig):
            solve_box_constrained(
                moments(MU6, COV6), PortfolioConstraints(), risk_aversion=-1.0
            )


class TestBindingCapOnFiveMinuteReturns:
    """A binding cap with a 1e4 gradient step once made every projection
    run out its iteration budget, so PGD never met its KKT residual."""

    def count_projections(self, monkeypatch) -> list[int]:
        calls = []
        real = optimizer._project

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(optimizer, "_project", counted)
        return calls

    def test_binding_cap_converges_in_few_projections(self, monkeypatch):
        calls = self.count_projections(monkeypatch)
        result = solve_box_constrained(
            moments(MU5, COV5), PortfolioConstraints(iv_cap=0.40), ivs=IV5
        )
        weights = result.as_array()
        assert_feasible(weights, 0.01, 0.40, IV5, 0.40)
        assert float(IV5 @ weights) == pytest.approx(0.40, abs=1e-9)
        # Start, then one residual and one step projection per PGD
        # iteration, then the final residual: at most 10 iterations.
        assert len(calls) <= 22
        # No feasible vertex beats the solution.
        def utility(w):
            return float(MU5 @ w - w @ COV5 @ w)

        best_vertex = max(
            utility(v) for v in polytope_vertices(5, 0.01, 0.40, IV5, 0.40)
        )
        assert utility(weights) >= best_vertex - 1e-12

    def test_floor_just_above_cap_returns_finite_weights(self, monkeypatch):
        constraints = PortfolioConstraints()
        floor = minimum_attainable_iv(constraints, IV5)
        cap = floor - 5e-13
        assert floor > cap and floor <= cap + 1e-12
        calls = self.count_projections(monkeypatch)
        result = solve_box_constrained(
            moments(MU5, COV5), PortfolioConstraints(iv_cap=cap), ivs=IV5
        )
        assert_feasible(result.weights, 0.01, 0.40)
        assert float(IV5 @ result.as_array()) == pytest.approx(floor, abs=1e-12)
        assert len(calls) <= 22


class TestNearTiedIvsAtBindingCap:
    """IVs a relative 1e-9 apart drive the cap's multiplier to about
    reach/gap. Shifting y by mu*ivs then cancelled y itself, so PGD
    stalled for seconds or more, or the weights missed the budget."""

    LIMIT = 50

    def solve_counted(self, monkeypatch, mean, cov, ivs, cap):
        calls = []
        real = optimizer._project

        def counted(*args):
            calls.append(1)
            assert len(calls) <= self.LIMIT, "PGD stalled at the binding cap"
            return real(*args)

        monkeypatch.setattr(optimizer, "_project", counted)
        constraints = PortfolioConstraints(0.0, 0.6, cap)
        return solve_box_constrained(moments(mean, cov), constraints, ivs=ivs).weights

    def test_cap_at_the_floor(self, monkeypatch):
        ivs = np.array([0.3, 0.3 * (1 + 1e-9), 0.3 * (1 + 2e-9), 0.45])
        cap = minimum_attainable_iv(PortfolioConstraints(0.0, 0.6), ivs)
        weights = self.solve_counted(
            monkeypatch,
            [0.01, -0.004, 0.006, 0.002],
            np.diag([4e-4, 1e-4, 9e-4, 2.5e-4]),
            ivs,
            cap,
        )
        assert_feasible(weights, 0.0, 0.6, ivs, cap)
        assert weights == pytest.approx([0.6, 0.4, 0.0, 0.0], abs=1e-12)

    @pytest.mark.parametrize("gap", [1e-9, 1e-6])
    @pytest.mark.parametrize("seed", range(30))
    def test_seeded_caps_near_the_floor(self, monkeypatch, gap, seed):
        rng = np.random.default_rng(seed)
        base = rng.uniform(0.2, 0.4)
        ivs = base * np.array([1.0, 1.0 + gap, 1.0 + 2.0 * gap, 1.5])
        rng.shuffle(ivs)
        floor = minimum_attainable_iv(PortfolioConstraints(0.0, 0.6), ivs)
        cap = floor + rng.choice([0.0, 10.0 ** rng.uniform(-12.0, -2.0)])
        weights = self.solve_counted(
            monkeypatch,
            rng.normal(0.0, 0.005, 4),
            np.diag(rng.uniform(1e-4, 1e-3, 4)),
            ivs,
            cap,
        )
        assert_feasible(weights, 0.0, 0.6, ivs, cap)


@st.composite
def projection_problems(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    lower = draw(st.floats(0.0, 0.95)) / n
    upper = min(1.0, draw(st.floats(1.05, float(n))) / n)
    coordinate = st.floats(-3.0, 3.0, allow_nan=False)
    y = np.array(draw(st.lists(coordinate, min_size=n, max_size=n)))
    # IVs on a 0.01 grid: ties are exact or at least 0.01 apart. IVs a
    # rounding error apart make the cap's normal parallel to the budget's
    # within float precision, where neither the projection nor a vertex
    # oracle with tolerances can tell a feasible point from an infeasible one.
    ivs = np.array(draw(st.lists(st.integers(5, 100), min_size=n, max_size=n))) / 100.0
    floor = minimum_attainable_iv(PortfolioConstraints(lower=lower, upper=upper), ivs)
    cap = floor + draw(st.floats(0.0, 1.0)) * (float(ivs.max()) - floor)
    return y, lower, upper, ivs, cap


class TestProjection:
    @settings(max_examples=300, deadline=None)
    @given(projection_problems())
    def test_capped_projection_satisfies_the_variational_inequality(self, problem):
        y, lower, upper, ivs, cap = problem
        w = optimizer._project(y, lower, upper, ivs, cap)
        assert_feasible(w, lower, upper, ivs, cap)
        vertices = polytope_vertices(len(y), lower, upper, ivs, cap)
        assert vertices
        for v in vertices:
            assert float((y - w) @ (v - w)) <= 1e-10

    @settings(max_examples=300, deadline=None)
    @given(projection_problems())
    def test_uncapped_projection_satisfies_the_variational_inequality(self, problem):
        y, lower, upper, _, _ = problem
        w = optimizer._project(y, lower, upper, None, None)
        assert_feasible(w, lower, upper)
        for v in polytope_vertices(len(y), lower, upper):
            assert float((y - w) @ (v - w)) <= 1e-10


# ---------------------------------------------------------------------------
# dispatch


class TestSolve:
    IDS = ("A", "B", "C")
    IVS = (0.3, 0.4, 0.5)
    BOX = PortfolioConstraints(lower=0.1, upper=0.6, iv_cap=0.45)

    def direct(self, kind):
        m = moments(MU3, COV3)
        if kind == "markowitz":
            return solve_markowitz(m, TARGET3, universe=self.IDS)
        if kind == "shrinkage":
            shrunk = moments(MU3, shrink_covariance(COV3, 0.3))
            return solve_markowitz(shrunk, TARGET3, universe=self.IDS)
        if kind == "robust":
            return solve_robust(m, uncertainty=0.5, target_return=TARGET3, universe=self.IDS)
        if kind == "riskfree":
            return solve_with_riskfree(m, 0.01, TARGET3, universe=self.IDS)
        return solve_box_constrained(
            m, self.BOX, ivs=self.IVS, risk_aversion=2.0, universe=self.IDS
        )

    @pytest.mark.parametrize("kind", ["markowitz", "riskfree", "shrinkage", "robust", "box"])
    def test_matches_the_direct_solver_call(self, kind):
        assert kind in KINDS
        dispatched = solve(
            kind,
            moments(MU3, COV3),
            TARGET3,
            self.IDS,
            riskfree=0.01,
            shrinkage_intensity=0.3,
            uncertainty=0.5,
            constraints=self.BOX,
            ivs=self.IVS,
            risk_aversion=2.0,
        )
        assert dispatched == self.direct(kind)

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidConfig, match="kelly"):
            solve("kelly", moments(MU3, COV3), TARGET3)


# ---------------------------------------------------------------------------
# type invariants


class TestTypes:
    def test_weight_vector_must_sum_to_one(self):
        with pytest.raises(InvalidConfig):
            WeightVector(weights=(0.6, 0.5), universe=("A", "B"), objective_value=0.0)

    def test_weight_vector_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            WeightVector(weights=(0.5, 0.5), universe=("A",), objective_value=0.0)

    @pytest.mark.parametrize(
        "lower,upper,cap",
        [(-0.1, 0.4, None), (0.4, 0.4, None), (0.5, 0.1, None), (0.01, 0.4, -0.2)],
    )
    def test_constraint_invariants(self, lower, upper, cap):
        with pytest.raises(InvalidConfig):
            PortfolioConstraints(lower=lower, upper=upper, iv_cap=cap)

    def test_constraint_feasibility_check(self):
        PortfolioConstraints().check_feasible(6)
        with pytest.raises(InfeasibleConstraints):
            PortfolioConstraints().check_feasible(2)
        with pytest.raises(InfeasibleConstraints):
            PortfolioConstraints(lower=0.3, upper=0.6).check_feasible(4)
