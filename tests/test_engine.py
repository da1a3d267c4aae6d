import re
from dataclasses import replace
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betweenu import (
    BetweenuError,
    DegeneratePreference,
    DisappointmentAversion,
    ExpectedUtility,
    ImplicitKernel,
    IterationLimit,
    MultipleFixedPoints,
    NoCrossing,
    NonMonotoneChord,
    Ordering,
    Polytope,
    RepresentationContext,
    ValueModel,
    WeightedUtility,
    chord_point,
    context_for,
    contour_samples,
    cyclic_oracle,
    degenerate,
    find_extremes,
    grid,
    implicit_utility,
    implicit_utility_many,
    jump_oracle,
    lottery,
    mix,
    one_sided_limits,
    oracle_from_value,
    quadratic_oracle,
    solve_mixing,
    solve_mixing_many,
    solve_utility,
    solve_utility_many,
    trace_level_curves,
    utility_fixed_point,
    utility_fixed_point_many,
)
from betweenu import engine
from betweenu.engine import DEFAULT_TOL_T
from betweenu.models import DEFAULT_EPS_PREF
from betweenu.simplex import mix_rows

from conftest import EU_U, NOT_LOTTERIES, WU_U, WU_W, solver_models

README = Path(__file__).resolve().parents[1] / "README.md"

BISECT_TOL = 5e-11  # half of the default bracket tolerance


def wu_utility_oracle(model, x) -> float:
    """Chord-calibrated utility for weighted utility, in closed form.

    The chord value V(m_t) = t*w_best / (t*w_best + (1-t)*w_worst) is a
    Moebius function of t; inverting it at V(x) gives the utility level
    without any bisection.
    """
    v = model.value(x)
    if v in (0.0, 1.0):
        return v
    w_best, w_worst = model.w[2], model.w[0]
    q = v * w_worst / (w_best * (1.0 - v))
    return q / (1.0 + q)


def da_utility_oracle(model, x) -> float:
    """Chord-calibrated utility for disappointment aversion.

    On the chord only the worst outcome disappoints, so
    V(m_t) = t / (1 + beta (1 - t)); invert at V(x).
    """
    v = model.value(x)
    return v * (1.0 + model.beta) / (1.0 + model.beta * v)


def kernel_value_oracle(model, p) -> float:
    """Kernel fixed point by per-cell case analysis, as ``bench/checks.py``.

    phi is linear between two table levels, so on each cell the fixed point
    is a ratio of linear forms; keep the candidate inside its own cell.
    """
    t_grid, phi, p = model.t_grid, model.phi_values, np.asarray(p, dtype=float)
    for j in range(len(t_grid) - 1):
        a, b = t_grid[j], t_grid[j + 1]
        slope = p @ ((phi[:, j + 1] - phi[:, j]) / (b - a))
        cand = (p @ phi[:, j] - a * slope) / (1.0 - slope)
        if a - 1e-15 <= cand <= b + 1e-15:
            return cand
    raise AssertionError("no cell holds the fixed point")


def local_utility_oracle(ctx, kind: str, x, t) -> float:
    """``u(x, t)`` in closed form for disappointment aversion and the kernel.

    At level ``t`` the chord point's value ``v`` fixes the indifference
    hyperplane ``L(x) = sum_i x_i a_i = 0``, with ``a_i = (u_i - v)(1 + beta
    [u_i <= v])`` (DA) or ``a_i = phi(i, v) - v`` (kernel); the local utility
    is the mixture-linear function worth ``t`` there and 1 at the best extreme.
    """
    m = ctx.model
    if kind == "da":
        v = t / (1.0 + m.beta * (1.0 - t))
        a = (m.u - v) * (1.0 + m.beta * (m.u <= v))
    else:
        chord = t * np.asarray(ctx.best.probs) + (1.0 - t) * np.asarray(ctx.worst.probs)
        v = kernel_value_oracle(m, chord)
        a = np.asarray([np.interp(v, m.t_grid, phi) for phi in m.phi_values]) - v
    return t + (1.0 - t) * float(np.asarray(x.probs) @ a) / float(np.asarray(ctx.best.probs) @ a)


def wu_mixing_oracle(model, x, t) -> float:
    """Weight putting the x/worst mixture on the chord, in closed form."""
    u, w = np.asarray(model.u), np.asarray(model.w)
    p = np.asarray(x.probs)
    num, den = float((p * w * u).sum()), float((p * w).sum())
    w_best, w_worst = w[2], w[0]
    v_m = t * w_best / (t * w_best + (1.0 - t) * w_worst)
    return v_m * w_worst / (num - v_m * den + v_m * w_worst)


class CappedValue(ValueModel):
    """Value flat above a cap; breaks strict chord monotonicity."""

    def __init__(self):
        super().__init__(3)

    def _values(self, rows):
        return np.minimum(rows[:, 1], 0.6)


class RidgeValue(ValueModel):
    """Interior ridge exceeding every vertex value."""

    def __init__(self):
        super().__init__(3)

    def _values(self, rows):
        return rows[:, 2] + 4.4 * rows[:, 0] * rows[:, 1]


class SpikeValue(ValueModel):
    """Value jumping to the top off the worst-best edge: at the default
    ``height``, mixing a lottery with a third or more of its mass on
    outcome 1 toward the worst extreme crosses every chord point at a
    weight below ``MU_FLOOR``."""

    def __init__(self, height=1e13):
        super().__init__(3)
        self.height = height

    def _values(self, rows):
        return np.minimum(1.0, rows[:, 2] + self.height * rows[:, 0] * rows[:, 1])


class WorstPocketValue(ExpectedUtility):
    """Expected utility, except that lotteries within 1e-9 of the worst
    vertex, the vertex aside, are worth 1: no full mixing solve reaches
    them, but the scan's deepest floor probe does."""

    def __init__(self):
        super().__init__(EU_U)

    def _values(self, rows):
        off_worst = rows[:, 1] + rows[:, 2]
        pocket = (off_worst > 0.0) & (off_worst < 1e-9)
        return np.where(pocket, 1.0, super()._values(rows))


def scan_models() -> dict:
    """The solver models, the curved and discontinuous fixtures, and two
    value models whose mixing solves raise :class:`NoCrossing`."""
    return {
        **solver_models(),
        "quadratic": quadratic_oracle(),
        "jump": jump_oracle(),
        "capped": CappedValue(),
        "spike": SpikeValue(),
    }


def outcome(solve):
    """``solve()``'s result, or the type, message and attributes of its error."""
    try:
        return solve()
    except BetweenuError as exc:
        return type(exc), str(exc), vars(exc)


def extremes_by_compare(model) -> tuple:
    """The vertex scan of :func:`find_extremes` run through ``compare``,
    one pair at a time."""
    n = model.n_outcomes
    best = worst = degenerate(0, n)
    for i in range(1, n):
        vertex = degenerate(i, n)
        if model.compare(vertex, best) is Ordering.STRICTLY_PREFERS:
            best = vertex
        if model.compare(vertex, worst) is Ordering.STRICTLY_DISPREFERRED:
            worst = vertex
    if model.compare(best, worst) is not Ordering.STRICTLY_PREFERS:
        raise DegeneratePreference("all simplex vertices are mutually indifferent")
    return best, worst


def extreme_models() -> dict:
    """Every fixture, plus models with tied, banded and all-indifferent vertices."""
    return {
        **scan_models(),
        "weighted_utility_4": WeightedUtility((0.0, 0.7, 0.2, 1.0), (1.0, 0.5, 2.0, 1.5)),
        "disappointment_aversion_5": DisappointmentAversion((0.3, 0.0, 1.0, 0.6, 1.0), -0.5),
        "tied_vertices": ExpectedUtility((0.5, 0.0, 1.0, 0.0, 1.0)),
        "banded_vertices": ExpectedUtility((1.0 - 5e-10, 0.0, 1.0, 5e-10)),
        "flat": ImplicitKernel((0.0, 1.0), ((0.3, 0.7), (0.3, 0.7), (0.3, 0.7))),
    }


class TestContext:
    def test_extremes_found_at_vertices(self, eu_model):
        best, worst = find_extremes(eu_model)
        assert best == lottery((0.0, 0.0, 1.0))
        assert worst == lottery((1.0, 0.0, 0.0))

    @pytest.mark.parametrize("name", sorted(extreme_models()))
    def test_extremes_match_pairwise_scan(self, name):
        model = extreme_models()[name]
        assert outcome(lambda: find_extremes(model)) == outcome(lambda: extremes_by_compare(model))

    def test_degenerate_preference_rejected(self):
        flat = ImplicitKernel((0.0, 1.0), ((0.3, 0.7), (0.3, 0.7), (0.3, 0.7)))
        with pytest.raises(DegeneratePreference):
            context_for(flat)

    def test_swapped_extremes_rejected(self, eu_model):
        ctx = context_for(eu_model)
        with pytest.raises(DegeneratePreference, match="best element is not strictly preferred"):
            RepresentationContext(eu_model, ctx.worst, ctx.best)

    def test_parameter_validation(self, eu_model):
        with pytest.raises(ValueError):
            context_for(eu_model, tol_t=0.0)
        with pytest.raises(ValueError):
            context_for(eu_model, max_iter=0)

    @pytest.mark.parametrize("max_iter", [30.5, 30.0, True, "30"])
    def test_non_integer_max_iter_rejected(self, eu_model, max_iter):
        with pytest.raises(ValueError, match="max_iter must be an integer"):
            context_for(eu_model, max_iter=max_iter)

    def test_numpy_integer_max_iter_accepted(self, eu_model):
        assert context_for(eu_model, max_iter=np.int64(30)).max_iter == 30

    def test_chord_point_endpoints(self, eu_model):
        ctx = context_for(eu_model)
        assert chord_point(ctx, 0.0) == ctx.worst
        assert chord_point(ctx, 1.0) == ctx.best
        assert chord_point(ctx, 0.25).probs == (0.75, 0.0, 0.25)


class TestSolveUtility:
    def test_expected_utility_closed_form(self, eu_model):
        ctx = context_for(eu_model)
        for x in grid(3, 6):
            assert solve_utility(ctx, x) == pytest.approx(eu_model.value(x), abs=BISECT_TOL)

    def test_weighted_utility_closed_form(self, wu_model):
        ctx = context_for(wu_model)
        for x in grid(3, 6):
            assert solve_utility(ctx, x) == pytest.approx(
                wu_utility_oracle(wu_model, x), abs=BISECT_TOL
            )

    def test_disappointment_closed_form(self, da_model):
        ctx = context_for(da_model)
        for x in grid(3, 6):
            assert solve_utility(ctx, x) == pytest.approx(
                da_utility_oracle(da_model, x), abs=BISECT_TOL
            )

    def test_kernel_lands_on_chord_value(self, kernel_model):
        ctx = context_for(kernel_model)
        for x in grid(3, 6):
            t = solve_utility(ctx, x)
            assert kernel_model.value(chord_point(ctx, t)) == pytest.approx(
                kernel_model.value(x), abs=1e-9
            )

    def test_extremes_exact(self, family_model):
        ctx = context_for(family_model)
        assert solve_utility(ctx, ctx.best) == 1.0
        assert solve_utility(ctx, ctx.worst) == 0.0

    def test_chord_identity(self, eu_model):
        ctx = context_for(eu_model)
        assert solve_utility(ctx, chord_point(ctx, 0.37)) == pytest.approx(0.37, abs=1e-10)

    def test_batch_matches_scalar_bitwise(self, solver_model):
        ctx = context_for(solver_model)
        points = sorted(grid(3, 6))
        batch = solve_utility_many(ctx, points)
        for x, u in zip(points, batch):
            assert solve_utility(ctx, x) == u

    def test_oracle_path_agrees_with_value_path(self, eu_model):
        twin = oracle_from_value(
            lambda x: sum(p * u for p, u in zip(x.probs, (0.0, 0.4, 1.0))), 3
        )
        ctx_v = context_for(eu_model)
        ctx_o = context_for(twin)
        # The oracle path may stop early anywhere inside the comparison
        # indifference band, so agreement is eps_pref-limited.
        for x in grid(3, 4):
            assert solve_utility(ctx_o, x) == pytest.approx(
                solve_utility(ctx_v, x), abs=2e-9
            )

    def test_nonmonotone_chord_value_path(self):
        ctx = context_for(RidgeValue())
        with pytest.raises(NonMonotoneChord):
            solve_utility(ctx, lottery((0.5, 0.5, 0.0)))

    def test_nonmonotone_chord_oracle_path(self):
        ridge = oracle_from_value(
            lambda x: x.probs[2] + 4.4 * x.probs[0] * x.probs[1], 3
        )
        ctx = context_for(ridge)
        with pytest.raises(NonMonotoneChord):
            solve_utility(ctx, lottery((0.5, 0.5, 0.0)))

    def test_iteration_limit(self, wu_model):
        # Weighted utility: expected utility's gaps are linear in the level,
        # so its first false-position step lands on the root.
        ctx = context_for(wu_model, max_iter=2)
        with pytest.raises(IterationLimit) as info:
            solve_utility(ctx, lottery((0.4, 0.25, 0.35)))
        assert str(info.value) == "level bisection missed tol 1e-10 within 2 iterations"
        assert (info.value.what, info.value.iterations) == ("level", 2)
        # The level is what this bisection solves for, so it names none.
        assert info.value.level is None
        assert info.value.row == (0.4, 0.25, 0.35)


class TestSolveMixing:
    def test_expected_utility_closed_form(self, eu_model):
        ctx = context_for(eu_model)
        x = lottery((0.1, 0.5, 0.4))  # value 0.6
        w, used_worst = solve_mixing(ctx, x, 0.3)
        assert used_worst is True
        assert w == pytest.approx(0.3 / 0.6, abs=BISECT_TOL)
        w, used_worst = solve_mixing(ctx, x, 0.9)
        assert used_worst is False
        assert w == pytest.approx((1.0 - 0.9) / (1.0 - 0.6), abs=BISECT_TOL)

    def test_weighted_utility_closed_form(self, wu_model):
        ctx = context_for(wu_model)
        x = lottery((0.0, 1.0, 0.0))
        for t in (0.1, 0.3):
            w, used_worst = solve_mixing(ctx, x, t)
            assert used_worst is True
            assert w == pytest.approx(wu_mixing_oracle(wu_model, x, t), abs=BISECT_TOL)

    def test_on_chord_weight_is_one(self, eu_model):
        ctx = context_for(eu_model)
        x = lottery((0.5, 0.0, 0.5))  # exactly the chord point at 0.5
        w, used_worst = solve_mixing(ctx, x, 0.5)
        assert (w, used_worst) == (1.0, True)

    def test_extremes_closed_form(self, family_model):
        ctx = context_for(family_model)
        for t in (0.05, 0.3, 0.8):
            assert solve_mixing(ctx, ctx.best, t) == (t, True)
            assert solve_mixing(ctx, ctx.worst, t) == (1.0 - t, False)

    def test_level_must_be_interior(self, eu_model):
        ctx = context_for(eu_model)
        with pytest.raises(ValueError):
            solve_mixing(ctx, lottery((0.2, 0.5, 0.3)), 0.0)

    @pytest.mark.parametrize(
        "levels, first_bad", [([0.5, 0.0, 1.0], 0.0), ([0.2, float("nan")], float("nan")), ([1.0], 1.0)]
    )
    def test_one_interior_rule_names_the_first_bad_level(self, eu_model, levels, first_bad):
        # The mixing solve, the separation layer and the triangle tracer
        # share one rule and its message.
        ctx = context_for(eu_model)
        simplex = Polytope(tuple(sorted(degenerate(i, 3) for i in range(3))))
        message = re.escape(f"levels must lie strictly inside (0, 1), got {first_bad!r}") + "$"
        for call in (
            lambda: solve_mixing_many(ctx, [ctx.best] * len(levels), levels),
            lambda: trace_level_curves(ctx, levels),
            lambda: contour_samples(ctx, first_bad, simplex),
        ):
            with pytest.raises(ValueError, match=message):
                call()

    def test_no_crossing_value_path(self):
        ctx = context_for(CappedValue())
        with pytest.raises(NoCrossing):
            solve_mixing(ctx, lottery((0.9, 0.05, 0.05)), 0.7)

    def test_no_crossing_oracle_path(self):
        capped = oracle_from_value(lambda x: min(x.probs[1], 0.6), 3)
        ctx = context_for(capped)
        with pytest.raises(NoCrossing):
            solve_mixing(ctx, lottery((0.9, 0.05, 0.05)), 0.7)

    def test_no_crossing_names_level_and_row(self):
        ctx = context_for(CappedValue())
        with pytest.raises(NoCrossing, match="opposite extreme") as info:
            solve_mixing_many(
                ctx, [lottery((0.2, 0.5, 0.3)), lottery((0.9, 0.05, 0.05))], [0.3, 0.7]
            )
        assert info.value.level == 0.7
        assert info.value.row == (0.9, 0.05, 0.05)

    def test_collapsed_weight_names_level_and_row(self):
        # The crossing weight is 1e-13, so a bisection to 1e-12 ends below MU_FLOOR.
        ctx = context_for(SpikeValue(), tol_t=1e-12)
        with pytest.raises(NoCrossing, match="collapsed to zero") as info:
            solve_mixing(ctx, lottery((0.5, 0.5, 0.0)), 0.5)
        assert info.value.level == 0.5
        assert info.value.row == (0.5, 0.5, 0.0)

    def test_iteration_limit_names_the_first_row_still_running(self, wu_model):
        # The best extreme solves in closed form, so the first solved row is
        # the second one.  Weighted utility: expected utility's gaps are
        # linear in the weight, so its first false-position step lands on
        # the root.
        ctx = context_for(wu_model, max_iter=3)
        x, y = lottery((0.2, 0.5, 0.3)), lottery((0.6, 0.1, 0.3))
        with pytest.raises(IterationLimit) as info:
            solve_mixing_many(ctx, [ctx.best, x, y], [0.3, 0.4, 0.6])
        assert str(info.value) == "mixing bisection missed tol 1e-10 within 3 iterations"
        assert (info.value.what, info.value.iterations) == ("mixing", 3)
        assert info.value.level == 0.4
        assert info.value.row == x.probs

    def test_batch_matches_scalar_bitwise(self, solver_model):
        ctx = context_for(solver_model)
        points = sorted(grid(3, 5))
        ts = np.linspace(0.05, 0.95, len(points))
        weights, used_worst = solve_mixing_many(ctx, points, ts)
        for x, t, w, worst in zip(points, ts, weights, used_worst):
            assert solve_mixing(ctx, x, float(t)) == (w, bool(worst))


class TestLocalValueAlgebra:
    def test_frozen_branch_arithmetic(self):
        assert engine._local_values(0.5, 0.25, True) == 2.0
        assert engine._local_values(0.3, 1.0, True) == 0.3
        assert engine._local_values(0.2, 0.8, False) == 0.0
        assert engine._local_values(0.6, 0.5, False) == pytest.approx(0.2, abs=1e-15)

    def test_sample_assembly(self, wu_model):
        ctx = context_for(wu_model)
        x = lottery((0.2, 0.5, 0.3))
        w, used_worst = solve_mixing(ctx, x, 0.4)
        local = engine._local_values(0.4, w, used_worst)
        assert implicit_utility(ctx, x, 0.4) == local


class TestImplicitUtility:
    def test_constant_in_level_for_expected_utility(self, eu_model):
        ctx = context_for(eu_model)
        x = lottery((0.2, 0.5, 0.3))
        for t in (0.1, 0.35, 0.5, 0.9):
            assert implicit_utility(ctx, x, t) == pytest.approx(0.5, abs=1e-9)

    def test_endpoint_indicators(self, family_model):
        ctx = context_for(family_model)
        x = lottery((0.2, 0.5, 0.3))
        assert implicit_utility(ctx, x, 0.0) == 1.0
        assert implicit_utility(ctx, x, 1.0) == 0.0
        assert implicit_utility(ctx, ctx.worst, 0.0) == 0.0
        assert implicit_utility(ctx, ctx.best, 1.0) == 1.0

    def test_extreme_normalization_exact_interior(self, family_model):
        # Levels within MU_FLOOR of an end too: the extremes' closed-form
        # weights are exact there, not collapsed bisections.
        ctx = context_for(family_model)
        for t in (5e-324, 1e-13, 0.01, 0.37, 0.99, 1.0 - 2.0**-53):
            assert implicit_utility(ctx, ctx.best, t) == 1.0
            assert implicit_utility(ctx, ctx.worst, t) == 0.0

    def test_batch_matches_scalar_bitwise(self, solver_model):
        ctx = context_for(solver_model)
        points = sorted(grid(3, 5))
        ts = np.linspace(0.0, 1.0, len(points))
        batch = implicit_utility_many(ctx, points, ts)
        for x, t, u in zip(points, ts, batch):
            assert implicit_utility(ctx, x, float(t)) == u

    @pytest.mark.parametrize("kind", ["da", "kernel"])
    def test_closed_form_local_utility(self, kind, da_model, kernel_model):
        ctx = context_for(da_model if kind == "da" else kernel_model)
        points = sorted(grid(3, 6))
        for t in np.round(np.arange(0.1, 1.0, 0.1), 1):
            got = implicit_utility_many(ctx, points, np.full(len(points), t))
            want = [local_utility_oracle(ctx, kind, x, t) for x in points]
            assert np.abs(got - want).max() <= 1e-9

    def test_weighted_utility_vertex_value(self, wu_model):
        ctx = context_for(wu_model)
        x = lottery((0.0, 1.0, 0.0))
        t = 0.1
        expected = t / wu_mixing_oracle(wu_model, x, t)
        assert implicit_utility(ctx, x, t) == pytest.approx(expected, abs=1e-7)


class TestOracleCompareSchedule:
    """The number of comparisons the solvers ask of an oracle, pinned: a
    change to how oracles are keyed or compared must not change it."""

    @staticmethod
    def counted_context():
        """A context on the cyclic oracle, and the list its comparisons append to."""
        oracle = cyclic_oracle()
        ctx = context_for(oracle)
        calls = []
        answer = oracle.compare_fn

        def counted(x, y):
            calls.append(None)
            return answer(x, y)

        oracle.compare_fn = counted
        return ctx, calls

    def test_cyclic_oracle_call_counts(self):
        ctx, calls = self.counted_context()
        points = sorted(grid(3, 3))
        solve_utility_many(ctx, points)
        assert len(calls) == 196
        calls.clear()
        levels = np.linspace(0.0, 1.0, 11)
        implicit_utility_many(ctx, [x for x in points for _ in levels], np.tile(levels, len(points)))
        assert len(calls) == 1986

    def test_cyclic_oracle_fixed_point_call_count(self):
        # One comparison per scan level and one probe that clears MU_FLOOR
        # per inner level, each extreme's check against a chord point once
        # per call, then the same per plateau-edge step; the edges' full
        # mixing solves made 30,169.
        ctx, calls = self.counted_context()
        utility_fixed_point_many(ctx, sorted(grid(3, 3)))
        assert len(calls) == 20757

    def test_one_lottery_fixed_point_call_count(self):
        # A lone lottery shares its extreme checks with no other, so only
        # the MU_FLOOR probe saves comparisons; 5,163 before that probe and
        # 4,173 with full mixing solves at the plateau edges.
        ctx, calls = self.counted_context()
        utility_fixed_point_many(ctx, [lottery((0.2, 0.5, 0.3))])
        assert len(calls) == 3125

    @staticmethod
    def counted_value_oracle():
        """A WU value oracle, and the lists its value_fn and compare_fn calls append to."""
        values, compares = [], []
        value = WeightedUtility(WU_U, WU_W).value

        def counted_value(x):
            values.append(None)
            return value(x)

        oracle = oracle_from_value(counted_value, 3)
        answer = oracle.compare_fn

        def counted_compare(x, y):
            compares.append(None)
            return answer(x, y)

        oracle.compare_fn = counted_compare
        return oracle, values, compares

    def test_value_oracle_fixed_point_call_count(self):
        # A value oracle keys each distinct row of a batch by one value_fn
        # call and never asks compare_fn on the solver path; comparing each
        # pair by its two values made 57,304 value_fn calls here, full
        # mixing solves at the plateau edges 18,313, and one call per row,
        # repeats included (the MU_FLOOR probe's), 9,705.
        oracle, values, compares = self.counted_value_oracle()
        ctx = context_for(oracle)
        values.clear()
        utility_fixed_point_many(ctx, sorted(grid(3, 3)))
        assert (len(values), len(compares)) == (1577, 0)

    def test_extremes_key_each_vertex_once(self):
        # Ranking the vertices one compare call at a time made 5 compare_fn
        # and 10 value_fn calls; the context keys its two extremes again.
        oracle, values, compares = self.counted_value_oracle()
        find_extremes(oracle)
        assert (len(values), len(compares)) == (3, 0)
        context_for(oracle)
        assert (len(values), len(compares)) == (3 + 5, 0)
        ctx, calls = self.counted_context()
        find_extremes(ctx.model)
        assert len(calls) == 5


class TestRejectsNonLotteryRows:
    @pytest.mark.parametrize("rows", NOT_LOTTERIES)
    def test_batched_entry_points(self, eu_model, rows):
        ctx = context_for(eu_model)
        rows = np.asarray(rows)
        bad = len(rows) - 1
        with pytest.raises(ValueError, match=f"row {bad} is not a lottery"):
            solve_utility_many(ctx, rows)
        with pytest.raises(ValueError, match=f"row {bad} is not a lottery"):
            implicit_utility_many(ctx, rows, 0.5)
        with pytest.raises(ValueError, match=f"row {bad} is not a lottery"):
            solve_mixing_many(ctx, rows, 0.5)

    def test_wrong_width(self, eu_model):
        ctx = context_for(eu_model)
        with pytest.raises(ValueError):
            solve_utility_many(ctx, np.asarray([[0.5, 0.5]]))

    @pytest.mark.parametrize("rows", NOT_LOTTERIES)
    @pytest.mark.parametrize("as_row", [list, tuple], ids=["lists", "tuples"])
    def test_plain_rows_rejected_as_arrays_are(self, eu_model, rows, as_row):
        ctx = context_for(eu_model)
        rows = [as_row(row) for row in rows]
        bad = len(rows) - 1
        with pytest.raises(ValueError, match=f"row {bad} is not a lottery"):
            solve_utility_many(ctx, rows)
        with pytest.raises(ValueError, match=f"row {bad} is not a lottery"):
            implicit_utility_many(ctx, rows, 0.5)
        with pytest.raises(ValueError, match=f"row {bad} is not a lottery"):
            utility_fixed_point_many(ctx, rows)


class TestAcceptsPlainRows:
    """The batch solvers take lists and tuples of rows, alone or mixed with
    Lotteries, and give the array results bit for bit."""

    ROWS = ((0.2, 0.3, 0.5), (0.0, 1.0, 0.0), (0.5, 0.5, 0.0))

    @pytest.mark.parametrize(
        "wrap",
        [
            lambda rows: [list(row) for row in rows],
            lambda rows: [tuple(row) for row in rows],
            lambda rows: [lottery(rows[0]), list(rows[1]), tuple(rows[2])],
        ],
        ids=["lists", "tuples", "mixed"],
    )
    def test_batch_solvers(self, wu_model, wrap):
        ctx = context_for(wu_model)
        array = np.asarray(self.ROWS)
        np.testing.assert_array_equal(
            solve_utility_many(ctx, wrap(self.ROWS)), solve_utility_many(ctx, array)
        )
        np.testing.assert_array_equal(
            implicit_utility_many(ctx, wrap(self.ROWS), 0.5),
            implicit_utility_many(ctx, array, 0.5),
        )
        np.testing.assert_array_equal(
            utility_fixed_point_many(ctx, wrap(self.ROWS)),
            utility_fixed_point_many(ctx, array),
        )


#: Interior, edge and vertex lotteries for the fixed-point batch tests.
FIXED_POINT_LOTTERIES = (
    lottery((0.2, 0.5, 0.3)),
    lottery((0.0, 0.5, 0.5)),
    lottery((0.0, 1.0, 0.0)),
)
#: The levels of :func:`utility_fixed_point`'s default scan, where the
#: rigged residuals below put their exact zeros.
SCAN = np.linspace(0.0, 1.0, 1000)


def rig_implicit_utility(monkeypatch, rigged):
    """Make ``rigged(ctx, xs, ts)`` the ``u(x, t)`` that the fixed-point
    search sees at interior levels: in the residual signs of its scan and
    at its plateau edges."""

    def signs(ctx, rows, ts, _kx, _k_chord, _across=None):
        return np.sign(rigged(ctx, rows, ts) - ts)

    monkeypatch.setattr("betweenu.engine._residual_signs", signs)


def evaluated_fixed_points(ctx, xs) -> np.ndarray:
    """``utility_fixed_point_many(ctx, xs)`` with every plateau-edge step
    steering on ``u(x, t) - t`` as :func:`implicit_utility_many` evaluates
    it at the search's evaluation tolerance, not on the chord comparison."""
    eval_ctx = replace(ctx, tol_t=min(ctx.tol_t, max(0.01 * ctx.tol_t, 1e-12)))
    bisect = engine._bisect

    def edges_evaluated(gap_at, per_row, lo, hi, tol, max_iter, what, *args, **kwargs):
        if what == "plateau edge":

            def gap_at(mid, edge_rows, _k_edge, tie):
                g = implicit_utility_many(eval_ctx, edge_rows, mid) - mid
                return np.where(g == 0.0, tie, g)

        return bisect(gap_at, per_row, lo, hi, tol, max_iter, what, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_bisect", edges_evaluated)
        return utility_fixed_point_many(ctx, xs)


class TestFixedPoint:
    def test_agrees_with_solve_utility(self, family_model):
        ctx = context_for(family_model)
        for x in (lottery((0.2, 0.5, 0.3)), lottery((0.7, 0.1, 0.2))):
            assert abs(utility_fixed_point(ctx, x) - solve_utility(ctx, x)) <= 1e-9

    def test_vertex_fixed_points_exact(self, eu_model):
        ctx = context_for(eu_model)
        assert utility_fixed_point(ctx, ctx.best) == 1.0
        assert utility_fixed_point(ctx, ctx.worst) == 0.0

    def test_lottery_outside_the_extremes_raises_as_solve_utility_does(self):
        # The extremes are (1, 0, 0), worth 1, and (0, 1, 0), worth 0;
        # (0, 0.5, 0.5) is worth 2.  The scan's end signs alone would make
        # up a crossing in its last cell.
        ctx = context_for(quadratic_oracle([[1, 0, 0], [0, 0, 4], [0, 4, 0]]))
        assert (ctx.best.probs, ctx.worst.probs) == ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
        above = lottery((0.0, 0.5, 0.5))
        batch = [ctx.worst, lottery((0.5, 0.5, 0.0)), above, lottery((0.0, 0.25, 0.75))]
        message = "lottery (0.0, 0.5, 0.5) falls outside the preference range of the extremes"
        for solve in (solve_utility_many, utility_fixed_point_many):
            for xs in ([above], batch):
                with pytest.raises(NonMonotoneChord) as info:
                    solve(ctx, xs)
                assert str(info.value) == message
                assert info.value.row == (0.0, 0.5, 0.5)

    @pytest.mark.parametrize(
        "residual",
        [
            # A sign change back up: negative, then positive again.
            lambda ts: np.where(ts < 0.3, 0.1, np.where(ts < 0.6, -0.1, 0.1)),
            # An exact zero, then positive residuals again.
            lambda ts: np.where(ts == SCAN[200], 0.0, np.where(ts < 0.6, 0.1, -0.1)),
            # Negative residuals, then an exact zero.
            lambda ts: np.where(ts == SCAN[800], 0.0, np.where(ts < 0.3, 0.1, -0.1)),
        ],
        ids=["negative-then-positive", "zero-then-positive", "negative-then-zero"],
    )
    def test_multiple_crossings_detected(self, eu_model, monkeypatch, residual):
        ctx = context_for(eu_model)

        def rigged(_ctx, xs, ts):
            ts = np.asarray(ts, dtype=float)
            return ts + residual(ts)

        rig_implicit_utility(monkeypatch, rigged)
        with pytest.raises(MultipleFixedPoints):
            utility_fixed_point(ctx, lottery((0.2, 0.5, 0.3)))

    def test_single_interior_zero_is_the_fixed_point(self, eu_model, monkeypatch):
        ctx = context_for(eu_model)

        def rigged(_ctx, xs, ts):
            ts = np.asarray(ts, dtype=float)
            return ts + np.where(ts == SCAN[500], 0.0, np.where(ts < SCAN[500], 0.1, -0.1))

        rig_implicit_utility(monkeypatch, rigged)
        assert utility_fixed_point(ctx, lottery((0.2, 0.5, 0.3))) == pytest.approx(
            SCAN[500], abs=ctx.tol_t
        )

    def test_zero_run_is_one_fixed_point(self, eu_model, monkeypatch):
        # Two exact zeros back to back are one tie plateau, not two crossings.
        ctx = context_for(eu_model)

        def rigged(_ctx, xs, ts):
            ts = np.asarray(ts, dtype=float)
            return ts + np.where(ts < SCAN[300], 0.1, np.where(ts <= SCAN[301], 0.0, -0.1))

        rig_implicit_utility(monkeypatch, rigged)
        assert utility_fixed_point(ctx, lottery((0.2, 0.5, 0.3))) == pytest.approx(
            0.5 * (SCAN[300] + SCAN[301]), abs=ctx.tol_t
        )

    @pytest.mark.parametrize(
        "end, residual, level",
        [
            ("worst", lambda ts: np.where(ts <= SCAN[3], 0.0, -0.1), 0.0),
            ("best", lambda ts: np.where(ts >= SCAN[996], 0.0, 0.1), 1.0),
        ],
        ids=["worst", "best"],
    )
    def test_zero_run_at_an_end_is_that_end(self, eu_model, monkeypatch, end, residual, level):
        # The endpoint indicator is zero at the extreme, and the rigged
        # residual stays zero over the three scan levels next to it.
        ctx = context_for(eu_model)
        rig_implicit_utility(monkeypatch, lambda _ctx, xs, ts: ts + residual(ts))
        assert utility_fixed_point(ctx, getattr(ctx, end)) == level

    def test_coarse_band_tie_plateau_is_one_fixed_point(self):
        # At eps_pref 1e-3, (0, 1/3, 2/3) ties the chord points at two
        # adjacent scan levels: one plateau, whose midpoint is returned.
        model = WeightedUtility(WU_U, WU_W, eps_pref=1e-3)
        ctx = context_for(model)
        points = sorted(grid(3, 6))
        found = utility_fixed_point_many(ctx, points)
        chord_values = [model.value(chord_point(ctx, t)) for t in found]
        assert np.abs(np.subtract(chord_values, model.values([x.probs for x in points]))).max() <= (
            model.eps_pref
        )
        assert np.abs(found - solve_utility_many(ctx, points)).max() <= 1e-5

    def test_plateau_edge_iteration_limit(self, eu_model, monkeypatch):
        # A flat u(x, t) = 0.45 puts the fixed point inside a scan cell about
        # 1e-3 wide, which five halvings cannot narrow to tol_t.
        ctx = context_for(eu_model, max_iter=5)
        rig_implicit_utility(monkeypatch, lambda _ctx, xs, ts: np.full(len(ts), 0.45))
        with pytest.raises(IterationLimit, match="plateau edge") as info:
            utility_fixed_point(ctx, lottery((0.2, 0.5, 0.3)))
        assert (info.value.what, info.value.iterations) == ("plateau edge", 5)
        assert info.value.level is None
        assert info.value.row == (0.2, 0.5, 0.3)

    def test_first_bad_lottery_of_a_batch_is_named(self, eu_model, monkeypatch):
        ctx = context_for(eu_model)
        good, bad, also_bad = (
            lottery((0.2, 0.5, 0.3)),
            lottery((0.6, 0.1, 0.3)),
            lottery((0.7, 0.1, 0.2)),
        )

        def rigged(_ctx, xs, ts):
            # Rows putting more than half their mass on outcome 0 cross
            # the diagonal three times; the others cross it at t = 0.45.
            ts = np.asarray(ts, dtype=float)
            wiggle = np.where(ts < 0.3, 0.1, np.where(ts < 0.6, -0.1, 0.1))
            return np.where(np.asarray(xs)[:, 0] > 0.5, ts + wiggle, 0.45)

        rig_implicit_utility(monkeypatch, rigged)
        with pytest.raises(MultipleFixedPoints) as info:
            utility_fixed_point_many(ctx, [good, bad, also_bad])
        assert info.value.row == bad.probs
        assert str(info.value) == (
            f"the residual u(x, t) - t crosses zero more than once for {bad}"
        )

    def test_batch_matches_scalar_bitwise(self, solver_model):
        ctx = context_for(solver_model)
        batch = utility_fixed_point_many(ctx, FIXED_POINT_LOTTERIES)
        for x, from_batch in zip(FIXED_POINT_LOTTERIES, batch):
            assert utility_fixed_point(ctx, x) == from_batch

    def test_independent_of_batch_composition(self, solver_model):
        ctx = context_for(solver_model)
        lotteries = FIXED_POINT_LOTTERIES
        batch = utility_fixed_point_many(ctx, lotteries)
        reversed_batch = utility_fixed_point_many(ctx, lotteries[::-1])
        sub_batch = utility_fixed_point_many(ctx, lotteries[1:])
        assert np.array_equal(reversed_batch[::-1], batch)
        assert np.array_equal(sub_batch, batch[1:])

    def test_batch_extremes_exact(self, family_model):
        ctx = context_for(family_model)
        batch = [ctx.best, lottery((0.2, 0.5, 0.3)), ctx.worst]
        out = utility_fixed_point_many(ctx, batch)
        assert out[0] == 1.0
        assert out[2] == 0.0

    def test_iteration_limit_reaches_the_caller(self, eu_model):
        # Twenty halvings clear MU_FLOOR at every scan level and plateau-edge
        # step, but cannot narrow a scan cell about 1e-3 wide to tol_t.
        ctx = context_for(eu_model, max_iter=20)
        with pytest.raises(IterationLimit) as info:
            utility_fixed_point_many(ctx, [lottery((0.2, 0.5, 0.3))])
        assert str(info.value) == "plateau edge bisection missed tol 1e-10 within 20 iterations"
        assert (info.value.what, info.value.iterations) == ("plateau edge", 20)
        assert info.value.level is None
        assert info.value.row == (0.2, 0.5, 0.3)

    @pytest.mark.parametrize("max_iter", range(24, 40))
    def test_edges_need_no_mixing_solve_to_tolerance(self, eu_model, max_iter):
        # 24 halvings narrow a scan cell to tol_t; below the 39 a mixing
        # weight needs to reach the evaluation tolerance, the edges' full
        # mixing solves raised IterationLimit("mixing").
        x = lottery((0.2, 0.5, 0.3))
        found = utility_fixed_point_many(context_for(eu_model, max_iter=max_iter), [x])
        assert found[0] == solve_utility(context_for(eu_model), x)

    def test_edges_match_evaluated_residual(self, solver_model):
        # The plateau edges steer on the chord comparison alone; steering
        # them on u(x, t) - t evaluated in full finds the same bits, or the
        # same error (the WU oracle 1e-9 from its best extreme meets a
        # level whose chord point lies within eps_pref of that extreme).
        ctx = context_for(solver_model)
        center = lottery((1 / 3, 1 / 3, 1 / 3))
        near_extremes = [
            mix(d, center, end) for end in (ctx.best, ctx.worst) for d in (1e-9, 1e-8, 1e-7, 1e-6)
        ]
        for points in (sorted(grid(3, 6)), near_extremes):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(engine, "implicit_utility_many", None)
                found = outcome(lambda: utility_fixed_point_many(ctx, points))
            evaluated = outcome(lambda: evaluated_fixed_points(ctx, points))
            if isinstance(found, np.ndarray):
                assert np.array_equal(found, evaluated)
            else:
                assert found == evaluated

    def test_collapsed_weight_names_level_and_row(self):
        ctx = context_for(SpikeValue())
        with pytest.raises(NoCrossing, match="collapsed to zero") as info:
            utility_fixed_point(ctx, lottery((0.5, 0.5, 0.0)))
        assert info.value.level == SCAN[1]
        assert info.value.row == (0.5, 0.5, 0.0)

    def test_failed_floor_probe_falls_back_to_bisection(self, eu_model):
        # Mixing toward the worst extreme jumps above every chord point at
        # the probe weight 2^-39 but not at 2^-20, where a bisection from
        # [0, 1] clears MU_FLOOR, so every such scan level fails the probe
        # and must still find no collapse.
        ctx = context_for(WorstPocketValue())
        x = lottery((0.2, 0.5, 0.3))
        level = float(SCAN[1])
        assert ctx.model.value(mix(0.5**39, x, ctx.worst)) > level
        assert ctx.model.value(mix(0.5**20, x, ctx.worst)) < level
        points = sorted(grid(3, 3))
        expected = utility_fixed_point_many(context_for(eu_model), points)
        assert np.array_equal(utility_fixed_point_many(ctx, points), expected)


#: The interior levels of the default scan.
INNER = SCAN[1:-1]


class TestScanSigns:
    """The search reads each interior level's residual sign from one
    comparison with the chord point; it must agree with the full residual
    ``u(x, t) - t``, errors included, at the default scan levels and
    evaluation tolerance."""

    @pytest.mark.parametrize("name", sorted(scan_models()))
    def test_signs_match_full_residual(self, name):
        model = scan_models()[name]
        ctx = context_for(model)
        # The evaluation tolerance of the search at the default tol_t.
        eval_ctx = replace(ctx, tol_t=1e-12)
        k_chord = engine._chord_keys(eval_ctx, INNER)
        for x in sorted(grid(model.n_outcomes, 3)):
            rows = np.repeat(np.asarray([x.probs]), len(INNER), axis=0)
            full = outcome(lambda: np.sign(implicit_utility_many(eval_ctx, rows, INNER) - INNER))
            scan = outcome(
                lambda: engine._residual_signs(eval_ctx, rows, INNER, model.keys(rows), k_chord)
            )
            if isinstance(full, np.ndarray):
                assert isinstance(scan, np.ndarray), (x, scan)
                assert np.array_equal(scan, full), x
            else:
                assert scan == full, x

    def test_short_max_iter_errors_match_full_residual(self):
        # Mixing (0.5, 0.5, 0) toward the worst vertex crosses the chord
        # points at weights from 2e-11 to 2e-8: above the floor probe, but
        # deeper than 5 halvings reach, so the scan raises as the full
        # solves do rather than trusting the probe.  Within 5 steps no row
        # of either search finishes, so both name the first level.
        model = SpikeValue(1e8)
        eval_ctx = replace(context_for(model), tol_t=1e-12, max_iter=5)
        rows = np.repeat(np.asarray([[0.5, 0.5, 0.0]]), len(INNER), axis=0)
        full = outcome(lambda: np.sign(implicit_utility_many(eval_ctx, rows, INNER) - INNER))
        k_chord = engine._chord_keys(eval_ctx, INNER)
        kx = model.keys(rows)
        assert outcome(lambda: engine._residual_signs(eval_ctx, rows, INNER, kx, k_chord)) == full
        assert full[0] is IterationLimit
        assert full[2]["level"] == INNER[0]


class TestOneSidedLimits:
    def test_reports_four_values(self, wu_model):
        ctx = context_for(wu_model)
        report = one_sided_limits(ctx, lottery((0.2, 0.5, 0.3)))
        assert set(report) == {"at_zero", "near_zero", "near_one", "at_one"}
        assert report["at_zero"] == 1.0
        assert report["at_one"] == 0.0


@st.composite
def kernel_tables(draw, u):
    """``(t_grid, phi)`` of an :class:`ImplicitKernel` whose outcome ``i``
    has the fixed point 0 where ``u[i]`` is 0 and 1 where it is 1.

    Grid levels are multiples of 1/20, and each row is a walk with slopes in
    [-0.95, 0.95] from ``u[i]`` at level 0, or back from 1 at level 1 where
    ``u[i]`` is 1, clipped to [0, 1], which keeps every slope below 1.
    """
    inner = draw(st.lists(st.integers(1, 19), max_size=4, unique=True))
    t_grid = np.asarray([0.0, *sorted(k / 20.0 for k in inner), 1.0])
    cells, phi = len(t_grid) - 1, []
    for u_i in u:
        slopes = draw(st.lists(st.floats(-0.95, 0.95), min_size=cells, max_size=cells))
        steps = np.asarray(slopes) * np.diff(t_grid)
        if u_i == 1.0:
            row = 1.0 - np.concatenate([np.cumsum(steps[::-1])[::-1], [0.0]])
        else:
            row = u_i + np.concatenate([[0.0], np.cumsum(steps)])
        phi.append(np.clip(row, 0.0, 1.0))
    return t_grid, np.asarray(phi)


@st.composite
def random_families(draw):
    """An EU, WU, DA or kernel family on 2 to 5 outcomes, four Dirichlet
    lottery rows and three interior levels.

    ``u`` attains 0 and 1, WU weights lie in [0.1, 10], DA's ``beta`` in
    (-1, 5], kernels are drawn by :func:`kernel_tables`, and ``eps_pref`` is
    the default or log-uniform in [1e-9, 1e-3].
    """
    n = draw(st.integers(2, 5))
    inner = draw(st.lists(st.floats(0.0, 1.0), min_size=n - 2, max_size=n - 2))
    u = draw(st.permutations([0.0, 1.0, *inner]))
    log_eps = draw(st.one_of(st.none(), st.floats(-9.0, -3.0)))
    eps = DEFAULT_EPS_PREF if log_eps is None else 10.0**log_eps
    kind = draw(st.sampled_from(["eu", "wu", "da", "kernel"]))
    if kind == "eu":
        model = ExpectedUtility(u, eps)
    elif kind == "wu":
        w = draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n))
        model = WeightedUtility(u, w, eps)
    elif kind == "da":
        model = DisappointmentAversion(u, draw(st.floats(-1.0, 5.0, exclude_min=True)), eps)
    else:
        model = ImplicitKernel(*draw(kernel_tables(u)), eps)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(
        st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), min_size=3, max_size=3)
    )
    return model, rng.dirichlet(np.ones(n), size=4), np.asarray(levels)


class TestRandomFamilies:
    """The fixed-point search and the solvers' published identities on
    drawn EU, WU, DA and kernel families, at the default band and at
    coarse ones."""

    @settings(max_examples=60, deadline=None)
    @given(random_families())
    def test_fixed_point_and_identities(self, family):
        model, rows, levels = family
        ctx = context_for(model)
        found = utility_fixed_point_many(ctx, rows)
        solved = solve_utility_many(ctx, rows)
        # A DA chord within 1e-4 of beta = -1 is so flat in value that the
        # default band ties x with a wide run of levels, and the search
        # returns that run's midpoint, off solve_utility by up to 0.16 at
        # 1 + beta = 1e-9: a known defect, checked only by the tie below.
        flat = isinstance(model, DisappointmentAversion) and model.beta < -1.0 + 1e-4
        if model.eps_pref == DEFAULT_EPS_PREF and not flat:
            assert np.abs(found - solved).max() <= 1e-9
        # The returned level lies within tol_t of a level whose chord point
        # ties x: the plateau edges are bracketed to tol_t, and where the
        # chord is steep that, not the band, bounds the value gap.
        chord_value = [
            [model.value(chord_point(ctx, min(max(t + d, 0.0), 1.0))) for t in found]
            for d in (-ctx.tol_t, ctx.tol_t)
        ]
        values = model.values(rows)
        assert (chord_value[0] - values <= model.eps_pref).all()
        assert (values - chord_value[1] <= model.eps_pref).all()
        # One-row calls are the batched rows, bit for bit; a failing batch
        # fails the same way on the row it names.
        for x, u_x, t_x in zip(map(lottery, rows), solved, found):
            assert solve_utility(ctx, x) == u_x
            assert utility_fixed_point(ctx, x) == t_x
        t = levels[0]
        local = outcome(lambda: implicit_utility_many(ctx, rows, np.full(len(rows), t)))
        if isinstance(local, np.ndarray):
            assert [implicit_utility(ctx, x, t) for x in map(lottery, rows)] == local.tolist()
        else:
            assert outcome(lambda: implicit_utility(ctx, lottery(local[2]["row"]), t)) == local
        # Normalization holds exactly at interior levels.
        assert (implicit_utility_many(ctx, [ctx.best] * 3, levels) == 1.0).all()
        assert (implicit_utility_many(ctx, [ctx.worst] * 3, levels) == 0.0).all()

    @settings(max_examples=60, deadline=None)
    @given(random_families())
    def test_soundness_against_compare(self, family):
        # README guarantee 1 on drawn rows: U orders every ordered pair as
        # compare does, within the bisection's tol_t.
        model, rows, _ = family
        ctx = context_for(model)
        u = solve_utility_many(ctx, rows)
        xs = list(map(lottery, rows))
        for i, j in permutations(range(len(xs)), 2):
            order = model.compare(xs[i], xs[j])
            if order is Ordering.STRICTLY_PREFERS:
                assert u[i] >= u[j] - ctx.tol_t
            if u[i] > u[j] + ctx.tol_t:
                assert order is not Ordering.STRICTLY_DISPREFERRED

    @settings(max_examples=60, deadline=None)
    @given(random_families(), st.floats(0.0, 1.0))
    def test_mixture_linearity(self, family, lam):
        # README guarantee 2 on drawn rows and weights, at the levels in
        # [0.1, 0.9] it covers.  Only the default band is held to 1e-6: a
        # coarse band ties a row with the chord point and gives it weight 1.
        model, rows, levels = family
        ctx = context_for(model)
        first, second = np.triu_indices(len(rows), 1)
        mixed = mix_rows(lam, rows[first], rows[second])
        for t in 0.1 + 0.8 * levels:
            u = implicit_utility_many(ctx, rows, t)
            u_mixed = implicit_utility_many(ctx, mixed, t)
            residual = np.abs(u_mixed - (lam * u[first] + (1.0 - lam) * u[second]))
            if model.eps_pref == DEFAULT_EPS_PREF:
                assert residual.max() <= 1e-6


@st.composite
def linear_families(draw):
    """An EU or WU family on 2 to 5 outcomes at the default band, six
    Dirichlet lottery rows and three levels in [0.01, 0.99].

    Both have closed forms for ``U`` and the mixing weight.  The levels
    stay off the ends because a weight at level ``t`` is about ``t`` or
    ``1 - t``, which collapses to :data:`~betweenu.engine.MU_FLOOR` near them.
    """
    n = draw(st.integers(2, 5))
    inner = draw(st.lists(st.floats(0.0, 1.0), min_size=n - 2, max_size=n - 2))
    u = draw(st.permutations([0.0, 1.0, *inner]))
    if draw(st.booleans()):
        model = ExpectedUtility(u)
    else:
        model = WeightedUtility(u, draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.lists(st.floats(0.01, 0.99), min_size=3, max_size=3))
    return model, rng.dirichlet(np.ones(n), size=6), np.asarray(levels)


def linear_closed_forms(ctx, rows, ts):
    """``U`` of ``rows`` and their mixing weights at levels ``ts``, in closed
    form for EU (all outcome weights 1) and WU.

    With outcome weights ``w`` the value of a mixture is a ratio of linear
    forms: with ``b`` and ``o`` the best and worst vertices, the chord value
    ``c(t) = (t w_b u_b + (1 - t) w_o u_o) / (t w_b + (1 - t) w_o)`` inverts
    at ``V(x)`` to ``U``, and the weight putting ``x`` mixed with the anchor
    ``a`` on the chord value is ``w_a (c - u_a) / (N(x) - c D(x) + w_a (c -
    u_a))``, with ``N(x) = sum x_i w_i u_i`` and ``D(x) = sum x_i w_i``.  The
    worst vertex is the first the band ties with the least utility, so
    ``u_o`` need not be 0.
    """
    model = ctx.model
    u = np.asarray(model.u)
    w = np.asarray(getattr(model, "w", np.ones(len(u))))
    b, o = int(np.argmax(ctx.best.probs)), int(np.argmax(ctx.worst.probs))
    v = model.values(rows)
    q = w[o] * (v - u[o]) / (w[b] * (u[b] - v))
    # Within the band of an extreme, U is that extreme's level outright.
    near_best, near_worst = (np.abs(v - u[e]) <= model.eps_pref for e in (b, o))
    big_u = np.where(near_best, 1.0, np.where(near_worst, 0.0, q / (1.0 + q)))
    c = (ts * w[b] * u[b] + (1.0 - ts) * w[o] * u[o]) / (ts * w[b] + (1.0 - ts) * w[o])
    anchor = np.where(v > c, o, b)
    lift = w[anchor] * (c - u[anchor])
    return big_u, lift / (rows @ (w * u) - c * (rows @ w) + lift)


def counting_bisect(counts: list):
    """``engine._bisect`` counting each row's ``gap_at`` calls: every call
    appends one array of per-row step counts to ``counts``."""
    bisect = engine._bisect

    def counted_bisect(gap_at, per_row, *args, **kwargs):
        steps = np.zeros(len(per_row[0]), dtype=int)

        def counted(s, *arrays):
            *rest, ids = arrays
            steps[ids] += 1
            return gap_at(s, *rest)

        try:
            return bisect(counted, (*per_row, np.arange(len(steps))), *args, **kwargs)
        finally:
            counts.append(steps)

    return counted_bisect


def bisection_steps(tol: float) -> int:
    """Halvings of [0, 1] to a bracket at most ``tol`` wide."""
    return int(np.ceil(np.log2(1.0 / tol)))


class TestFalsePosition:
    """A value model's level and mixing solves step by safeguarded false
    position on their real gaps (:func:`~betweenu.engine._bisect`)."""

    @settings(max_examples=60, deadline=None)
    @given(linear_families())
    def test_closed_forms_and_one_row_identity(self, family):
        model, rows, levels = family
        ctx = context_for(model)
        solved = solve_utility_many(ctx, rows)
        for t in levels:
            ts = np.full(len(rows), t)
            weights, used_worst = solve_mixing_many(ctx, rows, ts)
            big_u, closed = linear_closed_forms(ctx, rows, ts)
            assert np.abs(solved - big_u).max() <= ctx.tol_t
            # A row the band ties with its chord point takes weight 1.
            chord = mix_rows(ts, np.asarray(ctx.best.probs), np.asarray(ctx.worst.probs))
            tie = np.abs(model.values(rows) - model.values(chord)) <= model.eps_pref
            assert (weights[tie] == 1.0).all()
            assert np.abs(weights - closed)[~tie].max(initial=0.0) <= ctx.tol_t
            for i, x in enumerate(map(lottery, rows)):
                assert solve_mixing(ctx, x, t) == (weights[i], bool(used_worst[i]))
        for x, u_x in zip(map(lottery, rows), solved):
            assert solve_utility(ctx, x) == u_x

    def test_steps_stay_within_three_bisections(self, monkeypatch):
        counts = []
        monkeypatch.setattr(engine, "_bisect", counting_bisect(counts))

        def steps(ctx, rows, levels=np.linspace(0.1, 0.9, 9)):
            """Each row's steps in its level solve and its mixing solves."""
            counts.clear()
            solve_utility_many(ctx, rows)
            for t in levels:
                solve_mixing_many(ctx, rows, np.full(len(rows), t))
            return np.concatenate(counts)

        bound = 3 * bisection_steps(DEFAULT_TOL_T)
        # Every solver model on grid rows; on these smooth rows a value
        # model's solve averages a third of bisection's steps or fewer.
        rows = np.asarray([x.probs for x in sorted(grid(3, 6))])
        for model in solver_models().values():
            found = steps(context_for(model), rows)
            assert found.max() <= bound
            if isinstance(model, ValueModel):
                assert found.mean() <= bisection_steps(DEFAULT_TOL_T) / 3
        # A chord steep near the worst extreme: V(t) = 100 t / (99 t + 1).
        ps = np.linspace(1e-5, 0.02, 400)
        steep = context_for(WeightedUtility((1.0, 0.0), (10.0, 0.1)))
        assert steps(steep, np.stack([ps, 1.0 - ps], axis=1)).max() <= bound
        # Mixing (0.5, 0.5, 0) toward the worst vertex jumps across each
        # scan level's chord point at a weight from 2e-11 to 2e-8, at the
        # evaluation tolerance of the fixed-point search.
        spike = replace(context_for(SpikeValue(1e8)), tol_t=1e-12)
        counts.clear()
        solve_mixing_many(spike, np.repeat([[0.5, 0.5, 0.0]], len(INNER), axis=0), INNER)
        assert np.concatenate(counts).max() <= 3 * bisection_steps(1e-12)

    @staticmethod
    def search(gap, tol=DEFAULT_TOL_T):
        """One row's false-position search for the zero of ``gap`` on
        [0, 1]: its final bracket and its number of steps."""
        steps = []

        def gap_at(s, _):
            steps.append(s)
            return gap(s)

        ends = (gap(np.zeros(1)), gap(np.ones(1)))
        lo, hi = engine._bisect(gap_at, (np.zeros(1),), 0.0, 1.0, tol, 200, "level", ends=ends)
        return lo[0], hi[0], len(steps)

    def test_dekker_step_closes_the_far_end(self):
        # A linear gap whose zero lies 1e-20 past the float where it reads
        # 0: false position lands on that float, left of the zero, and only
        # a probe tol / 4 inside the bracket closes the far end.
        lo, hi, steps = self.search(lambda s: (0.3 - s) + 1e-20)
        assert lo <= 0.3 < hi and hi - lo <= DEFAULT_TOL_T
        assert steps <= 3

    def test_midpoint_safeguard_bounds_a_flat_far_end(self):
        # A gap of 1 left of 0.3 and -1e-300 right of it: false position
        # alone would creep from the upper end by tol / 4 a step, while a
        # midpoint step after three that did not halve the bracket halves
        # it at least every four steps.
        lo, hi, steps = self.search(lambda s: np.where(s < 0.3, 1.0, -1e-300))
        assert lo < 0.3 <= hi and hi - lo <= DEFAULT_TOL_T
        assert steps <= 4 * bisection_steps(DEFAULT_TOL_T)


class TestReadmeQuickStart:
    def test_block_gives_its_commented_results(self):
        # The README's "Library quick start" block, run as written.
        text = README.read_text(encoding="utf-8")
        block = text.split("## Library quick start", 1)[1]
        block = block.split("```python\n", 1)[1].split("```", 1)[0]
        names = {}
        exec(block, names)
        assert names["U"] == pytest.approx(0.578947, abs=1e-6)
        assert eval("implicit_utility(ctx, x, U) - U", names) == 0.0
        assert eval("all(r.passed for r in reports)", names) is True
