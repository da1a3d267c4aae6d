import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from betweenu import (
    BlackBoxOracle,
    DisappointmentAversion,
    ExpectedUtility,
    ImplicitKernel,
    Lottery,
    MultipleFixedPoints,
    Ordering,
    WeightedUtility,
    check_rationality,
    context_for,
    cyclic_oracle,
    degenerate,
    grid,
    implicit_utility_many,
    jump_oracle,
    lottery,
    oracle_from_value,
    quadratic_oracle,
    run_all_checks,
    solve_utility_many,
    utility_fixed_point_many,
)
from betweenu.cli import LAMBDA_GRID
from betweenu.fixtures import CYCLE
from betweenu.models import DEFAULT_EPS_PREF, classify
from betweenu.simplex import SUM_TOL, lottery_rows, mix_rows

from conftest import (
    KERNEL_PHI, KERNEL_T_GRID, NOT_LOTTERIES, family_models, make_kernel, solver_models,
    symmetric_matrices,
)


def da_value_oracle(u, beta, x) -> float:
    """Disappointment-averse value by closed-form case analysis.

    Independent of the package's solver: on each interval
    between consecutive outcome utilities the defining residual is
    linear in the candidate value, so solve it per interval and keep
    the root lying inside its own interval.
    """
    u = np.asarray(u, dtype=float)
    p = np.asarray(x.probs, dtype=float)
    base = float(p @ u)
    knots = np.unique(np.concatenate(([0.0], np.sort(u), [1.0])))
    for lo, hi in zip(knots[:-1], knots[1:]):
        below = u <= lo
        # residual(V) = base - V + beta * sum_{u_i < V} p_i (u_i - V)
        mass = float(p[below].sum())
        shortfall = float((p[below] * u[below]).sum())
        denom = 1.0 + beta * mass
        root = (base + beta * shortfall) / denom
        if lo - 1e-12 <= root <= hi + 1e-12:
            return root
    raise AssertionError("no consistent interval; oracle inputs out of range")


class TestExpectedUtility:
    def test_formula(self):
        m = ExpectedUtility((0.0, 0.4, 1.0))
        assert m.value(lottery((0.2, 0.5, 0.3))) == pytest.approx(0.5, abs=1e-15)

    def test_requires_attained_endpoints(self):
        with pytest.raises(ValueError):
            ExpectedUtility((0.1, 0.5, 1.0))
        with pytest.raises(ValueError):
            ExpectedUtility((0.0, 0.5, 0.9))
        with pytest.raises(ValueError):
            ExpectedUtility((0.0, 1.5))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(0.01, 10.0), min_size=3, max_size=3))
    def test_matches_dot_product(self, ws):
        total = math.fsum(ws)
        x = lottery(tuple(w / total for w in ws))
        m = ExpectedUtility((0.0, 0.4, 1.0))
        expected = sum(p * u for p, u in zip(x.probs, (0.0, 0.4, 1.0)))
        assert m.value(x) == pytest.approx(expected, abs=1e-14)


class TestWeightedUtility:
    def test_frozen_value(self):
        m = WeightedUtility((0.0, 0.4, 1.0), (1.0, 2.0, 0.5))
        # (0.5*2*0.4 + 0.3*0.5) / (0.2 + 1.0 + 0.15)
        assert m.value(lottery((0.2, 0.5, 0.3))) == pytest.approx(0.55 / 1.35, abs=1e-15)

    def test_direct_formula_on_grid(self):
        u, w = (0.0, 0.4, 1.0), (1.0, 2.0, 0.5)
        m = WeightedUtility(u, w)
        for x in grid(3, 5):
            num = sum(p * wi * ui for p, wi, ui in zip(x.probs, w, u))
            den = sum(p * wi for p, wi in zip(x.probs, w))
            assert m.value(x) == pytest.approx(num / den, abs=1e-14)

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            WeightedUtility((0.0, 1.0), (1.0, 0.0))
        with pytest.raises(ValueError):
            WeightedUtility((0.0, 1.0), (1.0, -2.0))


class TestDisappointmentAversion:
    def test_frozen_two_outcome(self):
        # base 0.5, one disappointing outcome: 0.5 - V - V/2 = 0
        m = DisappointmentAversion((0.0, 1.0), beta=1.0)
        assert m.value(lottery((0.5, 0.5))) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_frozen_three_outcome(self):
        # V in (0.4, 1): 0.5 - V + (0.2(0-V) + 0.5(0.4-V)) = 0.7 - 1.7V
        m = DisappointmentAversion((0.0, 0.4, 1.0), beta=1.0)
        assert m.value(lottery((0.2, 0.5, 0.3))) == pytest.approx(7.0 / 17.0, abs=1e-12)

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    def test_matches_interval_oracle(self, beta):
        u = (0.0, 0.4, 1.0)
        m = DisappointmentAversion(u, beta=beta)
        for x in grid(3, 6):
            assert m.value(x) == pytest.approx(da_value_oracle(u, beta, x), abs=1e-10)

    def test_beta_zero_is_expected_utility(self):
        da = DisappointmentAversion((0.0, 0.4, 1.0), beta=0.0)
        eu = ExpectedUtility((0.0, 0.4, 1.0))
        for x in grid(3, 6):
            assert da.value(x) == pytest.approx(eu.value(x), abs=1e-12)

    def test_rejects_beta_at_or_below_minus_one(self):
        with pytest.raises(ValueError):
            DisappointmentAversion((0.0, 1.0), beta=-1.0)


class TestImplicitKernel:
    def test_frozen_vertex_values(self):
        m = make_kernel()
        assert m.value(lottery((1.0, 0.0, 0.0))) == pytest.approx(0.0, abs=1e-12)
        assert m.value(lottery((0.0, 1.0, 0.0))) == pytest.approx(0.5, abs=1e-12)
        assert m.value(lottery((0.0, 0.0, 1.0))) == pytest.approx(1.0, abs=1e-12)

    def test_frozen_interior_values(self):
        m = make_kernel()
        # sum of the three curves crosses the diagonal at exactly 0.5
        assert m.value(lottery((1 / 3, 1 / 3, 1 / 3))) == pytest.approx(0.5, abs=1e-12)
        # piecewise-linear solve on [0.5, 1]: 0.27 t + 0.41 = t
        assert m.value(lottery((0.2, 0.5, 0.3))) == pytest.approx(41.0 / 73.0, abs=1e-12)

    def test_fixed_point_residual_on_grid(self):
        m = make_kernel()
        t_grid = np.asarray(KERNEL_T_GRID)
        phi = np.asarray(KERNEL_PHI)
        for x in grid(3, 6):
            v = m.value(x)
            residual = sum(
                p * float(np.interp(v, t_grid, phi[i])) for i, p in enumerate(x.probs)
            )
            assert abs(residual - v) <= 1e-10

    def test_lipschitz_from_table(self):
        assert make_kernel().lipschitz == pytest.approx(0.4, abs=1e-15)

    def test_rejects_expanding_table(self):
        with pytest.raises(ValueError):
            ImplicitKernel((0.0, 1.0), ((0.0, 1.0), (1.0, 0.0)))

    def test_rejects_bad_grid_and_range(self):
        with pytest.raises(ValueError):
            ImplicitKernel((0.0, 0.5), ((0.0, 0.1),))
        with pytest.raises(ValueError):
            ImplicitKernel((0.0, 1.0), ((0.0, 1.5),))
        with pytest.raises(ValueError, match="t_grid"):
            ImplicitKernel((0.0, float("nan"), 1.0), ((0.0, 0.5, 1.0),))

    def test_slope_near_one_solved_exactly(self):
        # slope 0.9999: iterating from 0.5 would take about 300,000 steps to
        # pin the fixed point 0.25; the per-cell root takes none.  Its error
        # is the rounding of h (an ulp of 1) over 1 - 0.9999, about 1e-12.
        m = ImplicitKernel((0.0, 1.0), ((0.0, 0.9999), (0.0001, 1.0)))
        assert m.value(lottery((0.75, 0.25))) == pytest.approx(0.25, abs=1e-12)


@st.composite
def lottery_batches(draw, n: int) -> np.ndarray:
    """One to eight lottery rows on ``n`` outcomes, zeros and vertices included."""
    weights = st.one_of(st.just(0.0), st.floats(0.0, 1.0))
    k = draw(st.integers(1, 8))
    row = st.lists(weights, min_size=n, max_size=n)
    rows = np.asarray(draw(st.lists(row, min_size=k, max_size=k)))
    rows[rows.sum(axis=1) == 0.0, draw(st.integers(0, n - 1))] = 1.0
    return rows / rows.sum(axis=1, keepdims=True)


@st.composite
def drifted_batches(draw, n: int) -> np.ndarray:
    """:func:`lottery_batches` rows whose sums miss 1 by up to 0.4 ``SUM_TOL``,
    as rows that pass :func:`~betweenu.simplex.lottery_rows` may."""
    rows = draw(lottery_batches(n))
    k = len(rows)
    drift = draw(st.lists(st.floats(-0.4 * SUM_TOL, 0.4 * SUM_TOL), min_size=k, max_size=k))
    rows[np.arange(k), rows.argmax(axis=1)] += drift
    return rows


@st.composite
def da_models(draw) -> DisappointmentAversion:
    """Utilities attaining 0 and 1, ties likely, beta in (-1, 5]."""
    n = draw(st.integers(2, 6))
    inner = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0))
    u = draw(st.permutations([0.0, 1.0] + draw(st.lists(inner, min_size=n - 2, max_size=n - 2))))
    beta = draw(st.floats(-1.0, 5.0, exclude_min=True))
    return DisappointmentAversion(u, beta)


@st.composite
def kernel_models(draw) -> ImplicitKernel:
    """Random strictly increasing level grids, every slope below 1."""
    n = draw(st.integers(2, 6))
    inner = draw(st.lists(st.floats(1e-3, 1.0 - 1e-3), max_size=6, unique=True))
    t_grid = np.asarray([0.0, *sorted(inner), 1.0])
    assume(np.diff(t_grid).min() >= 1e-3)
    phi = np.empty((n, len(t_grid)))
    phi[:, 0] = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    for j, dt in enumerate(np.diff(t_grid)):
        slopes = np.asarray(draw(st.lists(st.floats(-0.999, 0.999), min_size=n, max_size=n)))
        phi[:, j + 1] = np.clip(phi[:, j] + slopes * dt, 0.0, 1.0)
    return ImplicitKernel(t_grid, phi)


def da_residual(m: DisappointmentAversion, row: np.ndarray, v: float) -> float:
    return (row * m.u).sum() - v + m.beta * (row * np.minimum(m.u - v, 0.0)).sum()


def da_exact_cell(m: DisappointmentAversion, row: np.ndarray) -> tuple[float, float]:
    """The cell [c_j, c_j+1] of the last cut with g(c_j) >= 0, g in exact arithmetic.

    g is written as ``sum_i x_i (u_i - c) + beta * sum_i x_i min(u_i - c, 0)``,
    its form on lotteries: a row whose float probabilities miss a sum of 1
    by an ulp would otherwise shift g by about 1e-16, which decides the
    cell when beta is near -1 and g is nearly flat.
    """
    x, u, beta = [Fraction(p) for p in row], [Fraction(v) for v in m.u], Fraction(m.beta)

    def g(c):
        return sum(p * ((v - c) + beta * min(v - c, 0)) for p, v in zip(x, u))

    cuts = np.unique(m.u)
    j = max(j for j, c in enumerate(cuts) if g(Fraction(c)) >= 0)
    return cuts[j], cuts[min(j + 1, len(cuts) - 1)]


def kernel_residual(m: ImplicitKernel, row: np.ndarray, t: float) -> float:
    return sum(p * np.interp(t, m.t_grid, phi) for p, phi in zip(row, m.phi_values)) - t


def assert_rows_independent_of_batch(m, rows: np.ndarray) -> None:
    values = m.values(rows)
    assert np.array_equal(m.values(rows[::-1]), values[::-1])
    assert np.array_equal(m.values(rows[1::2]), values[1::2])
    for row, v in zip(rows, values):
        assert m.values(row[None, :])[0] == v


class TestExactSolverResiduals:
    """The per-cell DA and kernel solvers against their defining residuals."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_disappointment_aversion(self, data):
        m = data.draw(da_models())
        rows = data.draw(lottery_batches(m.n_outcomes))
        for row, v in zip(rows, m.values(rows)):
            assert abs(da_residual(m, row, v)) <= 1e-12
            lo, hi = da_exact_cell(m, row)
            assert lo <= v <= hi
        assert m.values(np.eye(m.n_outcomes)).tolist() == m.u.tolist()
        assert_rows_independent_of_batch(m, rows)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_implicit_kernel(self, data):
        m = data.draw(kernel_models())
        rows = data.draw(lottery_batches(m.n_outcomes))
        for row, t in zip(rows, m.values(rows)):
            assert abs(kernel_residual(m, row, t)) <= 1e-12
        assert_rows_independent_of_batch(m, rows)


class TestOrderingAndCompare:
    def test_converse(self):
        assert Ordering.STRICTLY_PREFERS.converse is Ordering.STRICTLY_DISPREFERRED
        assert Ordering.STRICTLY_DISPREFERRED.converse is Ordering.STRICTLY_PREFERS
        assert Ordering.INDIFFERENT.converse is Ordering.INDIFFERENT

    def test_compare_tracks_values(self, eu_model):
        x, y = lottery((0.0, 0.0, 1.0)), lottery((1.0, 0.0, 0.0))
        assert eu_model.compare(x, y) is Ordering.STRICTLY_PREFERS
        assert eu_model.compare(y, x) is Ordering.STRICTLY_DISPREFERRED
        assert eu_model.compare(x, x) is Ordering.INDIFFERENT

    def test_band_widens_indifference(self, eu_model):
        x, y = lottery((0.5, 0.0, 0.5)), lottery((0.5 + 1e-10, 0.0, 0.5 - 1e-10))
        gap = eu_model.value(x) - eu_model.value(y)
        assert classify(gap, eu_model.eps_pref) in (0, 1)
        assert classify(gap, 1e-6) == 0
        assert eu_model.compare(x, y) is Ordering.of_sign(classify(gap, eu_model.eps_pref))

    def test_classify_signs(self):
        gaps = [2e-9, -2e-9, 1e-9, -1e-9, 0.0, math.inf, -math.inf]
        assert classify(gaps, 1e-9).tolist() == [1, -1, 0, 0, 0, 1, -1]
        assert classify(gaps, 2e-9).tolist() == [0, 0, 0, 0, 0, 1, -1]
        assert [Ordering.of_sign(s) for s in (1, 0, -1)] == [
            Ordering.STRICTLY_PREFERS,
            Ordering.INDIFFERENT,
            Ordering.STRICTLY_DISPREFERRED,
        ]

    def test_dimension_checked(self, eu_model):
        with pytest.raises(ValueError):
            eu_model.compare(lottery((0.5, 0.5)), lottery((0.0, 0.0, 1.0)))

    def test_gaps_are_value_differences(self, family_model):
        rows = np.asarray([p.probs for p in sorted(grid(3, 4))])
        keys = family_model.keys(rows)
        assert np.array_equal(keys, family_model.values(rows))
        assert np.array_equal(family_model.gaps(keys, keys[:1]), keys - keys[0])


class TestBatchEqualsScalar:
    def test_bitwise_agreement(self, family_model):
        points = sorted(grid(3, 5))
        rows = np.asarray([p.probs for p in points])
        batch = family_model.values(rows)
        for point, from_batch in zip(points, batch):
            assert family_model.value(point) == from_batch

    def test_values_validates_shape(self, eu_model):
        with pytest.raises(ValueError):
            eu_model.values(np.zeros((2, 4)))

    @pytest.mark.parametrize("rows", NOT_LOTTERIES)
    def test_values_rejects_non_lottery_rows(self, eu_model, rows):
        with pytest.raises(ValueError, match=f"row {len(rows) - 1} is not a lottery"):
            eu_model.values(rows)


class TestNoPerLotteryState:
    @pytest.mark.parametrize(
        "name", ["expected_utility", "weighted_utility", "disappointment_aversion_1"]
    )
    def test_pickled_size_unchanged(self, name):
        model = family_models()[name]
        before = len(pickle.dumps(model))
        run_all_checks(model, sorted(grid(3, 4)), (0.25, 0.5, 0.75))
        points = sorted(grid(3, 44))[:1000]
        for x, y in zip(points, points[1:]):
            model.value(x)
            model.compare(x, y)
        assert len(pickle.dumps(model)) == before


class TestBlackBoxOracle:
    def test_wraps_value_function(self):
        m = oracle_from_value(lambda x: x.probs[1], 2)
        assert m.compare(lottery((0.0, 1.0)), lottery((1.0, 0.0))) is Ordering.STRICTLY_PREFERS

    def test_gaps_are_infinite_or_zero(self):
        # The compare-only twin keys by lottery, the value oracle by value;
        # both map each comparison to an infinite or zero gap.
        valued = oracle_from_value(lambda x: x.probs[1], 2, eps_pref=0.1)
        twin = BlackBoxOracle(valued.compare_fn, 2, eps_pref=0.1)
        rows = np.asarray([[0.0, 1.0], [1.0, 0.0], [0.05, 0.95]])
        assert all(isinstance(k, Lottery) for k in twin.keys(rows))
        assert valued.keys(rows).dtype == np.float64
        for m in (twin, valued):
            keys = m.keys(rows)
            gaps = m.gaps(keys, keys[:1])
            assert gaps.tolist() == [0.0, -math.inf, 0.0]
            assert m.gaps(keys[:1], keys[1:2]).tolist() == [math.inf]

    def test_rejects_bad_return_type(self):
        bad = BlackBoxOracle(lambda x, y: 1, 2)
        with pytest.raises(TypeError):
            bad.compare(lottery((0.5, 0.5)), lottery((1.0, 0.0)))

    def test_checks_dimensions(self):
        m = oracle_from_value(lambda x: x.probs[0], 2)
        with pytest.raises(ValueError):
            m.compare(lottery((0.5, 0.5)), lottery((0.2, 0.3, 0.5)))

    def test_batch_path_rejects_bad_return_type(self):
        # Orderings on vertex pairs let context_for succeed; any other pair
        # gets an int, which the solvers' gaps must reject like compare does.
        answer = cyclic_oracle().compare_fn
        vertices = {degenerate(i, 3).probs for i in range(3)}

        def compare_fn(x, y):
            return answer(x, y) if {x.probs, y.probs} <= vertices else 1

        ctx = context_for(BlackBoxOracle(compare_fn, 3))
        with pytest.raises(TypeError, match="expected an Ordering"):
            solve_utility_many(ctx, [lottery((0.2, 0.5, 0.3))])

    def test_keys_check_row_width(self):
        m = oracle_from_value(lambda x: x.probs[0], 2)
        with pytest.raises(ValueError, match="model expects 2"):
            m.keys(np.asarray([[0.2, 0.3, 0.5]]))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_trusted_keys_equal_validated_lotteries(self, data):
        """Keys skip validation because every row reaching them is a checked
        row or a mixture of checked rows; both kinds pass the check again,
        and their keys equal fully validated lotteries."""
        n = data.draw(st.integers(2, 6))
        xs = lottery_rows(data.draw(drifted_batches(n)), n)
        ys = lottery_rows(data.draw(drifted_batches(n)), n)
        k = len(xs)
        lams = data.draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k))
        mixed = lottery_rows(mix_rows(lams, xs, ys[np.arange(k) % len(ys)]), n)
        oracle = BlackBoxOracle(lambda x, y: Ordering.INDIFFERENT, n)
        for rows in (xs, mixed):
            keys = oracle.keys(rows)
            assert keys.tolist() == [Lottery(tuple(r)) for r in rows.tolist()]


def value_oracles() -> dict:
    """The oracles keyed by value: a WU value through oracle_from_value,
    and the quadratic and jump fixtures through their array forms."""
    return {
        "weighted_utility_oracle": solver_models()["weighted_utility_oracle"],
        "quadratic": quadratic_oracle(),
        "jump": jump_oracle(),
    }


def compare_only(oracle: BlackBoxOracle) -> BlackBoxOracle:
    """The oracle's twin that answers every comparison through ``compare_fn``."""
    return BlackBoxOracle(oracle.compare_fn, oracle.n_outcomes, oracle.eps_pref)


def solver_outcome(solve, *args):
    """A solver's result as bytes, or the fixed-point failure it raised."""
    try:
        return np.asarray(solve(*args)).tobytes()
    except MultipleFixedPoints as exc:
        return type(exc), str(exc), exc.row


class TestValueKeyedOracle:
    """An oracle_from_value oracle keys each lottery by its value, and its
    compare-only twin asks ``compare_fn`` about every pair; every verdict,
    report and solution is the same."""

    @pytest.mark.parametrize("seed", [0, 77])
    @pytest.mark.parametrize("resolution", [6, 9])
    @pytest.mark.parametrize("name", sorted(value_oracles()))
    def test_axiom_reports_match_compare_only_twin(self, name, resolution, seed):
        oracle = value_oracles()[name]
        samples = sorted(grid(oracle.n_outcomes, resolution))
        reports = [
            [r.to_dict() for r in run_all_checks(m, samples, LAMBDA_GRID, seed=seed)]
            for m in (oracle, compare_only(oracle))
        ]
        assert reports[0] == reports[1]

    # Resolution 6 puts jump's double crossing, at (1/3, 2/3), on the grid.
    @pytest.mark.parametrize(
        "name, resolution", [("weighted_utility_oracle", 4), ("quadratic", 4), ("jump", 6)]
    )
    def test_solvers_match_compare_only_twin_bitwise(self, name, resolution):
        oracle = value_oracles()[name]
        points = sorted(grid(oracle.n_outcomes, resolution))
        levels = np.linspace(0.0, 1.0, 11)
        xs, ts = [x for x in points for _ in levels], np.tile(levels, len(points))
        outcomes = []
        for model in (oracle, compare_only(oracle)):
            ctx = context_for(model)
            outcomes.append(
                [
                    solver_outcome(solve_utility_many, ctx, points),
                    solver_outcome(implicit_utility_many, ctx, xs, ts),
                    solver_outcome(utility_fixed_point_many, ctx, points),
                ]
            )
        assert outcomes[0] == outcomes[1]
        if name == "jump":
            raised, _, row = outcomes[0][2]
            assert (raised, row) == (MultipleFixedPoints, (1.0 / 3.0, 2.0 / 3.0))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_gaps_match_compare_fn(self, data):
        eps = data.draw(st.floats(1e-12, 1.0))
        # 0, eps and 2 * eps differ by exactly eps, the edge of the band.
        value = st.one_of(
            st.sampled_from([0.0, eps, -eps, 2.0 * eps, math.nan, math.inf, -math.inf]),
            st.floats(allow_nan=True, allow_infinity=True),
        )
        table = data.draw(st.lists(value, min_size=1, max_size=8))
        k = len(table)
        rows = np.asarray([[1.0 - i / k, i / k] for i in range(k)])
        by_probs = dict(zip(map(tuple, rows.tolist()), table))
        oracle = oracle_from_value(lambda x: by_probs[x.probs], 2, eps)
        twin = compare_only(oracle)
        first, second = (a.ravel() for a in np.indices((k, k)))
        keys, twin_keys = oracle.keys(rows), twin.keys(rows)
        # inf - inf and overflowing differences, as Python floats give them.
        with np.errstate(invalid="ignore", over="ignore"):
            pairs = oracle.gaps(keys[first], keys[second])
            against_one = oracle.gaps(keys, keys[:1])
        assert pairs.tolist() == twin.gaps(twin_keys[first], twin_keys[second]).tolist()
        assert against_one.tolist() == twin.gaps(twin_keys, twin_keys[:1]).tolist()

    def test_keys_call_value_fn_once_per_distinct_row(self):
        seen = []

        def value_fn(x):
            seen.append(x.probs)
            return x.probs[0] / 3.0 + x.probs[1] ** 2 - math.sqrt(x.probs[2])

        oracle = oracle_from_value(value_fn, 3)
        distinct = lottery_rows([x.probs for x in sorted(grid(3, 7))], 3)
        order = [3, 0, 3, 7, 0, 0, 7, 1, 3]
        keys = oracle.keys(distinct[order])
        assert seen == [tuple(distinct[i].tolist()) for i in (3, 0, 7, 1)]
        per_row = [value_fn(Lottery(tuple(distinct[i].tolist()))) for i in order]
        assert [k.hex() for k in keys.tolist()] == [v.hex() for v in per_row]
        assert oracle.keys(distinct[:0]).tolist() == []

    def test_raising_value_fn_raises_on_the_first_raising_row(self):
        seen = []

        def value_fn(x):
            seen.append(x.probs)
            if x.probs[0] in (0.25, 0.5):
                raise ZeroDivisionError(f"planted at {x.probs}")
            return x.probs[1]

        oracle = oracle_from_value(value_fn, 2)
        rows = np.asarray([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0], [0.5, 0.5], [0.25, 0.75]])
        with pytest.raises(ZeroDivisionError, match=r"planted at \(0\.5, 0\.5\)"):
            oracle.keys(rows)
        assert seen == [(0.0, 1.0), (1.0, 0.0), (0.5, 0.5)]

    def test_raising_value_fn_gives_the_same_completeness_witnesses(self):
        def value_fn(x):
            if x.probs[0] == 0.5:
                raise ZeroDivisionError("planted")
            return x.probs[1]

        oracle = oracle_from_value(value_fn, 3)
        samples = sorted(grid(3, 4))
        report = check_rationality(oracle, samples).to_dict()
        assert report == check_rationality(compare_only(oracle), samples).to_dict()
        notes = {w["note"] for w in report["witnesses"]}
        assert notes == {"comparison failed: ZeroDivisionError: planted"}


@st.composite
def array_oracles(draw):
    """A quadratic oracle on a drawn symmetric matrix on 3 to 5 outcomes, or
    a jump oracle at a drawn threshold and drop, at the default band or a
    log-uniform one in [1e-12, 1e-3]; and lottery rows in a drawn order:
    grid rows, Dirichlet rows, mixtures of them and repeats, and for the
    jump the threshold's row and the rows an ulp either side of it."""
    log_eps = draw(st.one_of(st.none(), st.floats(-12.0, -3.0)))
    eps = DEFAULT_EPS_PREF if log_eps is None else 10.0**log_eps
    if draw(st.booleans()):
        oracle, edges = quadratic_oracle(draw(symmetric_matrices(3, 5)), eps), []
    else:
        threshold = draw(st.floats(0.01, 0.99))
        drop = draw(st.floats(0.0, threshold, exclude_min=True, exclude_max=True))
        oracle = jump_oracle(threshold, drop, eps)
        edges = [
            [1.0 - p, p]
            for p in (np.nextafter(threshold, 0.0), threshold, np.nextafter(threshold, 1.0))
        ]
    n = oracle.n_outcomes
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = lottery_rows(sorted(grid(n, draw(st.integers(1, 4)))), n)
    rows = np.concatenate([points, rng.dirichlet(np.ones(n), 8), np.reshape(edges, (-1, n))])
    pairs = rng.integers(0, len(rows), size=(6, 2))
    mixed = mix_rows(rng.uniform(0.0, 1.0, 6), rows[pairs[:, 0]], rows[pairs[:, 1]])
    rows = np.concatenate([rows, mixed, rows[:3]])
    return oracle, rows[draw(st.permutations(range(len(rows))))]


class TestArrayValuedFixtures:
    """The quadratic and jump fixtures key a batch through a numpy form that
    gives each row the value it gives that row alone, and compare two
    lotteries through its one-row case."""

    @settings(max_examples=100, deadline=None)
    @given(array_oracles())
    def test_batch_keys_are_one_row_keys(self, drawn):
        oracle, rows = drawn
        one_row = [oracle.keys(rows[i : i + 1]) for i in range(len(rows))]
        assert oracle.keys(rows).tobytes() == np.concatenate(one_row).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(array_oracles())
    def test_compare_classifies_the_key_gaps(self, drawn):
        oracle, rows = drawn
        keys = oracle.keys(rows)
        # Each row against the next, itself and the first row.
        k = len(rows)
        first = np.repeat(np.arange(k), 3)
        second = np.stack([(np.arange(k) + 1) % k, np.arange(k), np.zeros(k, int)], 1).ravel()
        signs = classify(oracle.gaps(keys[first], keys[second]), oracle.eps_pref)
        xs = [lottery(row) for row in rows.tolist()]
        verdicts = [oracle.compare(xs[i], xs[j]) for i, j in zip(first.tolist(), second.tolist())]
        assert verdicts == [Ordering.of_sign(s) for s in signs]


#: The cyclic fixture's outcome utilities, as its old ``np.dot`` value used them.
CYCLIC_U = np.asarray([0.0, 0.5, 1.0])


def np_dot_value(x: Lottery) -> float:
    """The cyclic fixture's value as ``np.dot`` computes it."""
    return float(np.dot(x.as_array(), CYCLIC_U))


def subnormal_rows() -> list[tuple[float, ...]]:
    """Rows with subnormal components (odd multiples of 5e-324, which halve
    inexactly), one just above the normal range, and -0.0 components."""
    tiny = [m * 5e-324 for m in (1, 3, 5, 7, 1001, 2**51 + 1)]
    rows = [(1.0, t, 0.0) for t in tiny] + [(1.0, 0.0, t) for t in tiny]
    rows += [(1.0, t, s) for t in tiny for s in tiny]
    rows += [(0.5, t, 0.5) for t in tiny] + [(0.5, 0.5, t) for t in tiny]
    rows += [(1.0, 2.2250738585072014e-308 * (1 + 2**-52), 0.0)]
    rows += [(1.0, -0.0, -0.0), (-0.0, -0.0, 1.0), (-0.0, 1.0, -0.0), (1.0, 0.0, -0.0)]
    return rows


class TestCyclicFixture:
    """The cyclic fixture values lotteries in plain floats; each value and
    each verdict equals the ``np.dot`` expected utility it replaced."""

    @staticmethod
    def assert_values_bitwise(lotteries):
        """``compare_fn`` at the least band ties each lottery with a probe
        worth exactly its ``np.dot`` value, and ranks it strictly against
        the probes an ulp either side.  A probe (0, 0, v) is worth v
        exactly; it is no lottery, which ``compare_fn`` does not check.
        Where an ulp is the band itself, below 2 ** -1021, the probes an
        ulp away tie too: there the values agree to within that ulp."""
        band = 5e-324
        compare = cyclic_oracle(band).compare_fn
        for x in lotteries:
            v = np_dot_value(x)
            for w, order in (
                (np.nextafter(v, -1.0), Ordering.STRICTLY_PREFERS),
                (v, Ordering.INDIFFERENT),
                (np.nextafter(v, 2.0), Ordering.STRICTLY_DISPREFERRED),
            ):
                expected = order if abs(w - v) > band else Ordering.INDIFFERENT
                assert compare(x, Lottery._trusted((0.0, 0.0, float(w)))) is expected, x.probs

    @pytest.mark.parametrize("resolution", range(1, 13))
    def test_value_equals_np_dot_on_grids(self, resolution):
        self.assert_values_bitwise(grid(3, resolution))

    def test_value_equals_np_dot_on_the_planted_cycle(self):
        self.assert_values_bitwise(CYCLE)

    def test_value_equals_np_dot_on_dirichlet_rows(self):
        rows = np.random.default_rng(20240).dirichlet(np.ones(3), size=100_000)
        self.assert_values_bitwise(Lottery(tuple(row)) for row in rows.tolist())

    def test_value_equals_np_dot_on_subnormal_rows(self):
        self.assert_values_bitwise(Lottery(row) for row in subnormal_rows())

    def test_compare_matches_np_dot_reference(self):
        a, _, c = CYCLE
        oracle = cyclic_oracle()
        band = oracle.eps_pref

        def reference(x, y):
            if (x.probs, y.probs) == (c.probs, a.probs):
                return Ordering.STRICTLY_PREFERS
            if (x.probs, y.probs) == (a.probs, c.probs):
                return Ordering.STRICTLY_DISPREFERRED
            d = np_dot_value(x) - np_dot_value(y)
            if abs(d) <= band:
                return Ordering.INDIFFERENT
            return Ordering.STRICTLY_PREFERS if d > 0.0 else Ordering.STRICTLY_DISPREFERRED

        points = grid(3, 6)
        assert {a.probs, c.probs} <= {x.probs for x in points}
        verdicts = {
            (x.probs, y.probs): oracle.compare_fn(x, y) for x in points for y in points
        }
        assert len(verdicts) == len(points) ** 2
        assert verdicts == {
            (x.probs, y.probs): reference(x, y) for x in points for y in points
        }
        # The planted pair overrides the base order, which ranks a above c.
        assert verdicts[c.probs, a.probs] is Ordering.STRICTLY_PREFERS
        assert np_dot_value(a) > np_dot_value(c)
