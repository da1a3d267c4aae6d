import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from betweenu import Lottery, Polytope, degenerate, grid, lottery, mix
from betweenu.simplex import mix_rows


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
        simplex = Polytope(
            tuple(degenerate(i, n) for i in reversed(range(n)))
            + (degenerate(0, n), lottery([1.0 / n] * n))
        )
        rng = np.random.default_rng(0)
        points = sorted(grid(n, 6)) + [lottery(p) for p in rng.dirichlet(np.ones(n), 50)]
        V = simplex.vertex_array()
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

        monkeypatch.setattr(scipy.optimize, "linprog", no_program)
        assert [simplex.contains(x) for x in points] == expected

    def test_membership_program_solves_through_the_one_loader(self, monkeypatch):
        from betweenu import separation, simplex

        # The separation programs call the same loader.
        assert separation.linprog is simplex.linprog
        solve, calls = simplex.linprog, []

        def recorded(*args, **kwargs):
            calls.append(kwargs)
            return solve(*args, **kwargs)

        monkeypatch.setattr(simplex, "linprog", recorded)
        chord = Polytope((degenerate(0, 3), degenerate(2, 3)))
        assert chord.contains(lottery((0.4, 0.0, 0.6)))
        assert len(calls) == 1

    def test_polytope_vertex_fast_path(self):
        chord = Polytope((degenerate(0, 3), degenerate(2, 3)))
        assert chord.contains(degenerate(0, 3))

    def test_polytope_validation(self):
        with pytest.raises(ValueError):
            Polytope(())
        with pytest.raises(ValueError):
            Polytope((lottery((1.0, 0.0)), lottery((0.0, 0.0, 1.0))))
