import pytest

from betweenu import (
    AffineFunctional,
    ExpectedUtility,
    Infeasible,
    MembershipViolation,
    Polytope,
    chord_point,
    context_for,
    contour_samples,
    cross_polytope_consistency,
    cross_polytope_consistency_many,
    degenerate,
    grid,
    implicit_utility,
    lottery,
    mix,
    quadratic_oracle,
    separate,
    verify_separation,
)
from betweenu import engine, separation
from betweenu.cli import main


def full_simplex(n: int) -> Polytope:
    return Polytope(tuple(sorted(degenerate(i, n) for i in range(n))))


def query_polytopes(ctx, x) -> list[Polytope]:
    """The hull of ``x`` and the extremes, the simplex, and a widened hull."""
    third = next(
        v for v in (degenerate(i, 3) for i in range(3))
        if v not in (ctx.best, ctx.worst)
    )
    return [
        Polytope(tuple(sorted((ctx.best, ctx.worst, x)))),
        full_simplex(3),
        Polytope(tuple(sorted((ctx.best, ctx.worst, x, mix(0.5, third, x))))),
    ]


def audit_samples(ctx, t, polytope, resolution=6):
    base = contour_samples(ctx, t, polytope)
    merged = {x.probs: x for x in [*base, *grid(ctx.model.n_outcomes, resolution)]}
    return sorted(merged.values())


class TestSeparate:
    def test_two_outcome_expected_utility_exact(self):
        ctx = context_for(ExpectedUtility((0.0, 1.0)))
        functional = separate(ctx, 0.5, full_simplex(2), sorted(grid(2, 8)))
        assert functional.coeffs == (0.0, 1.0)

    def test_normalization_exact_at_extremes(self, wu_model):
        ctx = context_for(wu_model)
        functional = separate(ctx, 0.3, full_simplex(3), audit_samples(ctx, 0.3, full_simplex(3)))
        assert functional.value(ctx.best) == 1.0
        assert functional.value(ctx.worst) == 0.0

    def test_chord_only_polytope_reproduces_levels(self, da_model):
        ctx = context_for(da_model)
        chord = Polytope(tuple(sorted((ctx.best, ctx.worst))))
        samples = sorted(chord_point(ctx, s) for s in [k / 10 for k in range(11)])
        functional = separate(ctx, 0.5, chord, samples)
        for s in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert functional.value(chord_point(ctx, s)) == pytest.approx(s, abs=1e-12)

    def test_level_must_be_interior(self, eu_model):
        ctx = context_for(eu_model)
        with pytest.raises(ValueError):
            separate(ctx, 1.0, full_simplex(3), sorted(grid(3, 4)))

    def test_polytope_must_hold_extremes(self, eu_model):
        ctx = context_for(eu_model)
        chordless = Polytope((degenerate(0, 3), degenerate(1, 3)))
        with pytest.raises(ValueError):
            separate(ctx, 0.5, chordless, sorted(grid(3, 4)))

    def test_no_samples_leaves_out_the_inequalities(self, wu_model, monkeypatch):
        ctx = context_for(wu_model)
        calls = []
        solve = separation.linprog

        def recorded(**kwargs):
            calls.append(kwargs)
            return solve(**kwargs)

        monkeypatch.setattr(separation, "linprog", recorded)
        functional = separate(ctx, 0.5, full_simplex(3), [])
        assert len(calls) == 1
        assert calls[0]["A_ub"].shape[0] == 0 and len(calls[0]["b_ub"]) == 0
        assert functional.value(ctx.best) == 1.0
        assert functional.value(ctx.worst) == 0.0

    def test_nonconvex_contours_are_infeasible(self):
        ctx = context_for(quadratic_oracle())
        with pytest.raises(Infeasible):
            separate(ctx, 0.5, full_simplex(3), sorted(grid(3, 6)))


class TestVerifySeparation:
    @pytest.mark.parametrize("t", [0.2, 0.5, 0.8])
    def test_fitted_functional_passes(self, family_model, t):
        ctx = context_for(family_model)
        samples = audit_samples(ctx, t, full_simplex(3))
        functional = separate(ctx, t, full_simplex(3), samples)
        check = verify_separation(ctx, t, functional, samples)
        assert check.passed, check.violations[:3]
        assert check.n_upper + check.n_lower + check.n_indifferent == len(samples)
        assert check.chord_value == pytest.approx(t, abs=1e-7)

    def test_perturbed_functional_is_flagged(self, eu_model):
        ctx = context_for(eu_model)
        t = 0.5
        samples = audit_samples(ctx, t, full_simplex(3))
        functional = separate(ctx, t, full_simplex(3), samples)
        skewed = AffineFunctional(
            tuple(c + 0.01 for c in functional.coeffs[:1]) + functional.coeffs[1:]
        )
        check = verify_separation(ctx, t, skewed, samples)
        assert not check.passed
        assert check.violations
        for violation in check.violations:
            assert violation["class"] in ("upper", "lower", "indifferent")

    def test_matches_engine_local_utility(self, wu_model):
        ctx = context_for(wu_model)
        t = 0.5
        samples = audit_samples(ctx, t, full_simplex(3))
        functional = separate(ctx, t, full_simplex(3), samples)
        for x in grid(3, 6):
            engine_value = implicit_utility(ctx, x, t)
            assert functional.value(x) == pytest.approx(engine_value, abs=1e-6)


class TestContourSamples:
    def test_contains_structure_points(self, da_model):
        ctx = context_for(da_model)
        samples = contour_samples(ctx, 0.4, full_simplex(3))
        probs = {x.probs for x in samples}
        assert ctx.best.probs in probs and ctx.worst.probs in probs
        assert chord_point(ctx, 0.4).probs in probs
        assert len(probs) == len(samples)
        assert samples == sorted(samples)


class TestCrossPolytope:
    def test_polytope_independence(self, family_model):
        ctx = context_for(family_model)
        x = lottery((0.2, 0.5, 0.3))
        result = cross_polytope_consistency(ctx, x, 0.5, query_polytopes(ctx, x))
        assert result.passed
        assert len(result.separator_values) == 3
        assert result.max_discrepancy <= 1e-6

    def test_one_mixing_solve_serves_every_polytope(self, wu_model, monkeypatch):
        ctx = context_for(wu_model)
        solves, chords = [], []

        def counted(*args):
            solves.append(args)
            return engine.solve_mixing_many(*args)

        def counted_chord(*args):
            chords.append(args)
            return engine.chord_point(*args)

        def never(*args):
            raise AssertionError("the crossings were solved again")

        monkeypatch.setattr(separation, "solve_mixing_many", counted)
        monkeypatch.setattr(separation, "chord_point", counted_chord)
        monkeypatch.setattr(separation, "contour_samples", never)
        monkeypatch.setattr(engine, "implicit_utility", never)
        monkeypatch.setattr(engine, "implicit_utility_many", never)
        x = lottery((0.2, 0.5, 0.3))
        result = cross_polytope_consistency(ctx, x, 0.5, query_polytopes(ctx, x))
        assert result.passed
        assert len(solves) == 1
        # One level's queries share one mixing solve and the ten chord
        # points of their sample sets; the classification target is keyed
        # from the chord rows directly.
        solves.clear()
        chords.clear()
        queries = sorted(grid(3, 3))
        results = cross_polytope_consistency_many(
            ctx, queries, 0.5, [query_polytopes(ctx, q) for q in queries]
        )
        assert len(results) == len(queries) and all(r.passed for r in results)
        assert len(solves) == 1
        assert len(chords) == 10

    @pytest.mark.parametrize("t", [0.2, 0.5, 0.8])
    def test_engine_value_is_implicit_utility(self, solver_model, t):
        ctx = context_for(solver_model)
        for x in grid(3, 3):
            result = cross_polytope_consistency(ctx, x, t, [full_simplex(3)])
            assert result.engine_value.hex() == implicit_utility(ctx, x, t).hex()

    def test_membership_enforced(self, eu_model):
        ctx = context_for(eu_model)
        chord = Polytope(tuple(sorted((ctx.best, ctx.worst))))
        off_chord = lottery((0.2, 0.5, 0.3))
        with pytest.raises(MembershipViolation):
            cross_polytope_consistency(ctx, off_chord, 0.5, [chord])

    @pytest.mark.parametrize("t", [0.0, 1.0, float("nan")])
    def test_level_must_be_interior(self, eu_model, t, monkeypatch):
        def no_solve(*args):
            raise AssertionError("solved before the level was checked")

        monkeypatch.setattr(separation, "solve_mixing_many", no_solve)
        monkeypatch.setattr(separation, "contour_samples", no_solve)
        monkeypatch.setattr(Polytope, "contains", no_solve)
        ctx = context_for(eu_model)
        with pytest.raises(ValueError, match="level"):
            cross_polytope_consistency(ctx, lottery((0.2, 0.5, 0.3)), t, [full_simplex(3)])


class TestBatchedSeparation:
    @staticmethod
    def counted_linprog(monkeypatch) -> list:
        calls = []
        solve = separation.linprog

        def recorded(**kwargs):
            calls.append(kwargs)
            return solve(**kwargs)

        monkeypatch.setattr(separation, "linprog", recorded)
        return calls

    def test_two_highs_calls_per_passing_level(self, tmp_path, monkeypatch):
        # The simplex separator, then all 10 queries x 3 polytopes at once
        # (31 calls a level when solved one program at a time).
        path = tmp_path / "wu.json"
        path.write_text('{"kind": "weighted_utility", "u": [0, 0.4, 1], "w": [1, 2, 0.5]}')
        calls = self.counted_linprog(monkeypatch)
        out = str(tmp_path / "out")
        assert main(["separation", "--model", str(path), "--levels", "0.3,0.6", "--out", out]) == 0
        assert len(calls) == 4
        assert [call["c"].size for call in calls] == [6, 180, 6, 180]

    @staticmethod
    def one_infeasible_block():
        """A quadratic-oracle context, three blocks of which only the middle
        one is infeasible at level 0.5, and that block's error alone."""
        ctx = context_for(quadratic_oracle())
        chord = sorted(chord_point(ctx, s) for s in (0.0, 0.25, 0.5, 0.75, 1.0))
        bowed = sorted(grid(3, 6))
        with pytest.raises(Infeasible) as single:
            separate(ctx, 0.5, full_simplex(3), bowed)
        return ctx, [chord, bowed, chord], str(single.value)

    def test_one_infeasible_block_raises_the_single_program_error(self, monkeypatch):
        ctx, blocks, message = self.one_infeasible_block()
        calls = self.counted_linprog(monkeypatch)
        with pytest.raises(Infeasible) as batched:
            separation._separators(ctx, 0.5, blocks)
        assert str(batched.value) == message
        # An infeasible batch holds an infeasible block, so it is not re-solved
        # block by block (which took [18, 6, 6]).
        assert [call["c"].size for call in calls] == [18]

    @staticmethod
    def failing_batch(monkeypatch) -> list:
        """Make the first HiGHS call report status 4, a numerical failure,
        and record every call's variable count."""
        sizes = []
        solve = separation.linprog

        def flaky(**kwargs):
            sizes.append(kwargs["c"].size)
            result = solve(**kwargs)
            if len(sizes) == 1:
                result.status, result.message = 4, "planted numerical difficulty"
            return result

        monkeypatch.setattr(separation, "linprog", flaky)
        return sizes

    def test_a_batch_failing_otherwise_is_solved_block_by_block(self, wu_model, monkeypatch):
        ctx = context_for(wu_model)
        blocks = [contour_samples(ctx, 0.4, p) for p in query_polytopes(ctx, grid(3, 3)[4])]
        expected = separation._separators(ctx, 0.4, blocks)
        sizes = self.failing_batch(monkeypatch)
        assert separation._separators(ctx, 0.4, blocks) == expected
        assert sizes == [18, 6, 6, 6]

    def test_a_block_solved_after_a_failing_batch_raises_its_own_error(self, monkeypatch):
        ctx, blocks, message = self.one_infeasible_block()
        sizes = self.failing_batch(monkeypatch)
        with pytest.raises(Infeasible) as batched:
            separation._separators(ctx, 0.5, blocks)
        assert str(batched.value) == message
        # The batch, then the blocks one by one up to the failing one.
        assert sizes == [18, 6, 6]

    @pytest.mark.parametrize("t", [0.2, 0.5, 0.8])
    def test_batch_matches_separate_bitwise(self, family_model, t):
        ctx = context_for(family_model)
        queries = sorted(grid(3, 3))
        polytopes = [query_polytopes(ctx, x) for x in queries]
        blocks = [
            (x, p, contour_samples(ctx, t, Polytope((*p.vertices, x))))
            for x, polys in zip(queries, polytopes)
            for p in polys
        ]
        batched = separation._separators(ctx, t, [samples for _, _, samples in blocks])
        singles = [separate(ctx, t, p, samples) for _, p, samples in blocks]
        assert [[c.hex() for c in f.coeffs] for f in batched] == [
            [c.hex() for c in f.coeffs] for f in singles
        ]
        results = cross_polytope_consistency_many(ctx, queries, t, polytopes)
        values = [f.value(x).hex() for (x, _, _), f in zip(blocks, singles)]
        assert [v.hex() for r in results for v in r.separator_values] == values


class TestAffineFunctional:
    def test_value_and_dict(self):
        f = AffineFunctional((0.0, 0.4, 1.0))
        assert f.value(lottery((0.2, 0.5, 0.3))) == pytest.approx(0.5, abs=1e-15)
        assert f.to_dict() == {"coeffs": [0.0, 0.4, 1.0]}

    def test_dimension_checked(self):
        f = AffineFunctional((0.0, 1.0))
        with pytest.raises(ValueError):
            f.value(lottery((0.2, 0.5, 0.3)))
