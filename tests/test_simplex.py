import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from betweenu import ExpectedUtility, Lottery, Polytope, context_for, degenerate, grid, lottery
from betweenu import mix, solve_utility
from betweenu import simplex
from betweenu.simplex import SUM_TOL, lottery_rows, mix_rows


def simplex_points(n_outcomes: int):
    """Strategy producing valid lotteries by normalizing positive weights."""
    return st.lists(
        st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
        min_size=n_outcomes,
        max_size=n_outcomes,
    ).map(lambda ws: lottery(tuple(w / math.fsum(ws) for w in ws)))


class TestLottery:
    def test_valid_construction(self):
        x = lottery((0.25, 0.75))
        assert x.probs == (0.25, 0.75)
        assert x.n_outcomes == 2
        assert np.array_equal(x.as_array(), np.asarray([0.25, 0.75]))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            lottery(())
        with pytest.raises(ValueError):
            lottery((0.5, 0.6))
        with pytest.raises(ValueError):
            lottery((-0.1, 1.1))
        with pytest.raises(ValueError):
            lottery((float("nan"), 1.0))

    def test_ordering_is_lexicographic(self):
        assert lottery((0.0, 1.0)) < lottery((0.5, 0.5))
        assert sorted([lottery((1.0, 0.0)), lottery((0.0, 1.0))])[0] == lottery((0.0, 1.0))

    def test_degenerate(self):
        assert degenerate(1, 3).probs == (0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            degenerate(3, 3)


class TestMix:
    def test_endpoints_exact(self):
        x, y = lottery((0.2, 0.8)), lottery((0.7, 0.3))
        assert mix(1.0, x, y) == x
        assert mix(0.0, x, y) == y

    def test_componentwise_formula(self):
        x, y = lottery((0.2, 0.8)), lottery((0.6, 0.4))
        z = mix(0.25, x, y)
        assert z.probs == (0.25 * 0.2 + 0.75 * 0.6, 0.25 * 0.8 + 0.75 * 0.4)

    def test_self_mix_is_identity_exactly(self):
        x = lottery((1 / 3, 1 / 3, 1 / 3))
        for lam in (0.0, 0.1, 0.5, 0.77, 1.0):
            assert mix(lam, x, x) == x

    def test_drifting_sum_is_renormalized(self):
        lam = 0.5396174484497788
        x = lottery((0.16859429703830597, 0.831405702960694))
        y = lottery((0.9820766375385342, 0.017923362460465754))
        raw = mix_rows(lam, x.probs, y.probs).tolist()
        total = math.fsum(raw)
        assert total == 0.9999999999989999
        assert mix(lam, x, y).probs == tuple(p / total for p in raw)

    def test_rejects_bad_weight_and_dims(self):
        x, y = lottery((0.2, 0.8)), lottery((0.6, 0.4))
        with pytest.raises(ValueError):
            mix(-0.1, x, y)
        with pytest.raises(ValueError):
            mix(1.1, x, y)
        with pytest.raises(ValueError):
            mix(0.5, x, lottery((0.3, 0.3, 0.4)))

    @settings(max_examples=60, deadline=None)
    @given(simplex_points(3), simplex_points(3), st.floats(min_value=0.0, max_value=1.0))
    def test_mix_stays_on_simplex_and_between(self, x, y, lam):
        z = mix(lam, x, y)
        assert isinstance(z, Lottery)
        for zi, xi, yi in zip(z.probs, x.probs, y.probs):
            assert min(xi, yi) - 1e-12 <= zi <= max(xi, yi) + 1e-12

    @settings(max_examples=60, deadline=None)
    @given(simplex_points(4), simplex_points(4), st.floats(min_value=0.0, max_value=1.0))
    def test_mix_rows_equal_mix_bitwise(self, x, y, lam):
        assume(x != y)
        pairs = [(x, y), (y, x)]
        rows = mix_rows(lam, [a.probs for a, _ in pairs], [b.probs for _, b in pairs])
        assert [tuple(r) for r in rows.tolist()] == [mix(lam, a, b).probs for a, b in pairs]
        weights = np.asarray([lam, 1.0 - lam])
        rows = mix_rows(weights, x.as_array(), y.as_array())
        assert [tuple(r) for r in rows.tolist()] == [mix(w, x, y).probs for w in weights]


def accepts(build, row) -> bool:
    try:
        build(row)
    except ValueError:
        return False
    return True


class TestLotteryRows:
    def test_accepts_a_lottery_summing_to_the_edge(self):
        # numpy's pairwise sum misses 1 by just over SUM_TOL; fsum does not.
        x = Lottery((0.6652300066862088, 0.02125413107856177, 0.3135158622362294))
        model = ExpectedUtility([0.0, 0.4, 1.0])
        assert lottery_rows([x.probs], 3).tolist() == [list(x.probs)]
        assert model.values([x.probs])[0] == model.value(x)
        assert solve_utility(context_for(model), x) == pytest.approx(model.value(x), abs=1e-9)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.floats(0.01, 100.0), min_size=1, max_size=8),
        st.sampled_from([-SUM_TOL, SUM_TOL]),
        st.integers(-2, 2),
    )
    def test_agrees_with_lottery_at_the_sum_edge(self, weights, edge, steps):
        # A row whose exact sum lies a few floats from 1 +- SUM_TOL, where
        # numpy's sum and fsum can round to either side.
        head = [w / math.fsum(weights) for w in weights]
        total = 1.0 + edge
        for _ in range(abs(steps)):
            total = math.nextafter(total, math.copysign(math.inf, steps))
        row = (*head, total - math.fsum(head))
        assume(row[-1] >= 0.0)
        assert accepts(Lottery, row) == accepts(lambda r: lottery_rows([r], len(r)), row)


class TestGrid:
    @pytest.mark.parametrize("n,res", [(2, 8), (3, 6), (3, 8), (4, 5)])
    def test_count_matches_stars_and_bars(self, n, res):
        points = grid(n, res)
        assert len(points) == math.comb(res + n - 1, n - 1)
        assert len(set(points)) == len(points)

    def test_entries_are_grid_multiples(self):
        for x in grid(3, 6):
            for p in x.probs:
                assert abs(p * 6 - round(p * 6)) < 1e-12

    def test_contains_vertices(self):
        points = set(grid(3, 4))
        for i in range(3):
            assert degenerate(i, 3) in points


class TestSegmentAndPolytope:
    def test_polytope_membership(self):
        tri = Polytope(tuple(degenerate(i, 3) for i in range(3)))
        assert tri.contains(lottery((0.2, 0.3, 0.5)))
        chord = Polytope((degenerate(0, 3), degenerate(2, 3)))
        assert chord.contains(lottery((0.4, 0.0, 0.6)))
        assert not chord.contains(lottery((0.2, 0.3, 0.5)))

    @pytest.mark.parametrize("n", [3, 4])
    def test_full_simplex_membership_needs_no_program(self, n, monkeypatch):
        import scipy.optimize

        # Generators in any order, with a duplicate and an interior point.
        simplex_ = Polytope(
            tuple(degenerate(i, n) for i in reversed(range(n)))
            + (degenerate(0, n), lottery([1.0 / n] * n))
        )
        rng = np.random.default_rng(0)
        points = sorted(grid(n, 6)) + [lottery(p) for p in rng.dirichlet(np.ones(n), 50)]
        V = simplex_.vertex_array()
        k = len(V)

        def program(x):
            return scipy.optimize.linprog(
                c=np.zeros(k),
                A_eq=np.vstack([V.T, np.ones((1, k))]),
                b_eq=np.append(x.as_array(), 1.0),
                bounds=[(0.0, None)] * k,
                method="highs",
            ).status == 0

        expected = [program(x) for x in points]
        assert all(expected)

        def no_program(*args, **kwargs):
            raise AssertionError("solved a membership program for the full simplex")

        monkeypatch.setattr(simplex, "linprog", no_program)
        assert [simplex_.contains(x) for x in points] == expected

    def test_membership_solves_one_program_with_linprog(self, monkeypatch):
        from betweenu import separation

        # The separation programs call the same solver.
        assert separation.linprog is simplex.linprog
        solve, calls = simplex.linprog, []

        def recorded(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(simplex, "linprog", recorded)
        chord = Polytope((degenerate(0, 3), degenerate(2, 3)))
        assert chord.contains(lottery((0.4, 0.0, 0.6)))
        assert len(calls) == 1 and len(calls[0][0]) == 1

    @pytest.mark.parametrize("distance, inside", [(0.0, True), (5e-8, True), (2e-7, False), (0.3, False)])
    def test_membership_tolerance(self, distance, inside):
        # (0.4, d, 0.6 - d) lies d from the chord in its largest component.
        chord = Polytope((degenerate(0, 3), degenerate(2, 3)))
        assert chord.contains(lottery((0.4, distance, 0.6 - distance))) is inside

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_membership_matches_highs_past_the_tolerance(self, n):
        import scipy.optimize

        rng = np.random.default_rng(n)
        for _ in range(40):
            polytope = Polytope(tuple(lottery(p) for p in rng.dirichlet(np.ones(n), rng.integers(1, 5))))
            V = polytope.vertex_array()
            w = rng.dirichlet(np.ones(len(V)))
            for x in (lottery(V.T @ w), lottery(rng.dirichlet(np.ones(n)))):
                expected = scipy.optimize.linprog(
                    c=np.zeros(len(V)), A_eq=np.vstack([V.T, np.ones((1, len(V)))]),
                    b_eq=np.append(x.as_array(), 1.0), bounds=[(0.0, None)] * len(V), method="highs",
                ).status == 0
                assert polytope.contains(x) == expected

    def test_polytope_vertex_fast_path(self):
        chord = Polytope((degenerate(0, 3), degenerate(2, 3)))
        assert chord.contains(degenerate(0, 3))

    def test_polytope_validation(self):
        with pytest.raises(ValueError):
            Polytope(())
        with pytest.raises(ValueError):
            Polytope((lottery((1.0, 0.0)), lottery((0.0, 0.0, 1.0))))


class TestLinprog:
    def test_least_l1_norm_then_lexicographically_least(self):
        # c_0 + c_1 >= 1 with c_2 = 1: every split of 1 between c_0, c_1 >= 0
        # has the least L1 norm, 2; the lexicographically least puts it on c_1.
        ((c, ray),) = simplex.linprog(
            [np.array([[-1.0, -1.0, 0.0]])], [np.array([-1.0])], np.array([[0.0, 0.0, 1.0]]), [1.0]
        )
        assert ray is None and c.tolist() == [0.0, 1.0, 1.0]

    def test_programs_in_one_call_are_solved_alone(self):
        rows = [np.array([[-1.0, 0.0]]), np.zeros((0, 2)), np.array([[0.0, 1.0], [1.0, 1.0]])]
        rhs = [np.array([-2.0]), np.zeros(0), np.array([-1.0, -3.0])]
        batched = simplex.linprog(rows, rhs, np.zeros((0, 2)), np.zeros(0))
        assert [c.tolist() for c, _ in batched] == [[2.0, 0.0], [0.0, 0.0], [-2.0, -1.0]]
        for (c, _), a, b in zip(batched, rows, rhs):
            ((alone, _),) = simplex.linprog([a], [b], np.zeros((0, 2)), np.zeros(0))
            assert alone.tobytes() == c.tobytes()

    def test_an_infeasible_program_gets_a_farkas_ray(self):
        # c_0 <= -1 and c_0 >= 1 exclude each other; c_1 <= 5 plays no part.
        rows = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        rhs = np.array([-1.0, -1.0, 5.0])
        ((c, ray),) = simplex.linprog([rows], [rhs], np.zeros((0, 2)), np.zeros(0))
        y, z = ray()
        assert c is None and y.tolist() == [0.5, 0.5, 0.0] and len(z) == 0
        assert np.abs(rows.T @ y).max() == 0.0 and rhs @ y < 0.0

    @pytest.mark.parametrize("equalities", [0, 1, 2])
    def test_matches_highs_on_small_programs(self, equalities):
        import scipy.optimize

        # Small integer programs, where coefficients often cross 0 between
        # pivots: the least L1 norm HiGHS finds, every row met, or a ray
        # whose weights cancel every coefficient and leave 0 <= -gap.
        rng = np.random.default_rng(equalities)
        for _ in range(300):
            n, m = rng.integers(2, 5), rng.integers(1, 6)
            rows, rhs = rng.integers(-3, 4, (m, n)) * 1.0, rng.integers(-3, 4, m) * 1.0
            eq_rows, eq_rhs = rng.integers(-2, 3, (equalities, n)) * 1.0, np.ones(equalities)
            # Separation programs' normalization rows, at two distinct
            # lotteries, are never rank-deficient.
            if np.linalg.matrix_rank(eq_rows) < equalities:
                continue
            ((c, ray),) = simplex.linprog([rows], [rhs], eq_rows, eq_rhs)
            split = {"A_eq": np.hstack([eq_rows, -eq_rows]), "b_eq": eq_rhs} if equalities else {}
            reference = scipy.optimize.linprog(
                np.ones(2 * n), A_ub=np.hstack([rows, -rows]), b_ub=rhs, **split,
                bounds=[(0.0, None)] * (2 * n), method="highs",
            )
            if ray is None:
                assert reference.status == 0
                assert np.abs(c).sum() == pytest.approx(reference.fun, abs=1e-9)
                assert (rows @ c - rhs).max() <= 1e-12
                assert np.abs(eq_rows @ c - eq_rhs).max(initial=0.0) <= 1e-12
            else:
                y, z = ray()
                assert reference.status == 2
                assert y.min() >= 0.0 and y.sum() == pytest.approx(1.0)
                assert np.abs(rows.T @ y + eq_rows.T @ z).max() <= 1e-12
                assert rhs @ y + eq_rhs @ z < 0.0
