from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog as highs

from betweenu import (
    AffineFunctional,
    DegeneratePreference,
    DisappointmentAversion,
    ExpectedUtility,
    ImplicitKernel,
    Infeasible,
    MembershipViolation,
    NoCrossing,
    NonMonotoneChord,
    Ordering,
    Polytope,
    WeightedUtility,
    chord_point,
    context_for,
    contour_samples,
    cross_polytope_consistency,
    cross_polytope_consistency_many,
    cyclic_oracle,
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
from betweenu.axioms import check_betweenness
from betweenu.cli import main
from betweenu.engine import RepresentationContext

from conftest import symmetric_matrices


def full_simplex(n: int) -> Polytope:
    return Polytope(tuple(sorted(degenerate(i, n) for i in range(n))))


def query_polytopes(ctx, x) -> list[Polytope]:
    """The hull of ``x`` and the extremes, the simplex, and a widened hull."""
    n = x.n_outcomes
    others = [v for v in (degenerate(i, n) for i in range(n)) if v not in (ctx.best, ctx.worst)]
    return [
        Polytope(tuple(sorted((ctx.best, ctx.worst, x)))),
        full_simplex(n),
        Polytope(tuple(sorted((ctx.best, ctx.worst, x, *(mix(0.5, v, x) for v in others))))),
    ]


#: A 4-outcome weighted utility and quadratic oracle: their programs have
#: two free coefficients.
WU4 = WeightedUtility((0.0, 0.3, 0.7, 1.0), (1.0, 2.0, 0.5, 1.5))
QUADRATIC4 = [
    [0.0, 1.0, 0.0, 0.0],
    [1.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 1.0, 0.0],
    [0.0, 0.0, 0.0, 0.5],
]


def assert_certificate(ctx, t, certificate, samples):
    """Recheck a :class:`FarkasCertificate` from its record alone.

    It must list at most d + 1 rows, d the number of free coefficients,
    ``>=`` bounds first.  Each row must be a bound the level-``t`` program
    sets on one of ``samples``, given its class against the chord point.
    The weighted rows and normalization equalities must cancel every
    coefficient and sum to ``0 <= -gap`` with ``gap`` past the feasibility
    tolerance.
    """
    assert certificate.level == t
    assert 1 <= len(certificate.rows) <= ctx.model.n_outcomes - 1
    relations = [row["relation"] for row in certificate.rows]
    assert relations == sorted(relations, key=lambda r: r == "<=")
    assert certificate.residual <= separation._CERTIFICATE_TOL
    probs = {x.probs for x in samples}
    half_band = 0.5 * separation.SEPARATION_BAND
    bounds = {
        ("upper", ">="): t, ("lower", "<="): t,
        ("indifferent", "<="): t + half_band, ("indifferent", ">="): t - half_band,
    }
    combined, total = np.zeros(ctx.model.n_outcomes), 0.0
    for row in certificate.rows:
        assert tuple(row["lottery"]) in probs
        _, side = separation._classify(ctx, t, [row["lottery"]])
        assert row["class"] == {1: "upper", -1: "lower", 0: "indifferent"}[side[0]]
        assert row["bound"] == bounds[row["class"], row["relation"]]
        assert row["weight"] >= 0.0
        sign = 1.0 if row["relation"] == "<=" else -1.0
        combined += row["weight"] * sign * np.asarray(row["lottery"])
        total += row["weight"] * sign * row["bound"]
    z_best, z_worst = certificate.normalization_weights
    combined += z_best * ctx.best.as_array() + z_worst * ctx.worst.as_array()
    assert sum(row["weight"] for row in certificate.rows) == pytest.approx(1.0, abs=1e-15)
    assert np.abs(combined).max() <= separation._CERTIFICATE_TOL
    assert total + z_best == pytest.approx(-certificate.gap, abs=1e-15)
    assert certificate.gap > separation._FEASIBILITY_TOL


def audit_samples(ctx, t, polytope, resolution=6):
    base = contour_samples(ctx, t, polytope)
    merged = {x.probs: x for x in [*base, *grid(ctx.model.n_outcomes, resolution)]}
    return sorted(merged.values())


class TestSeparate:
    def test_two_outcome_expected_utility_exact(self):
        ctx = context_for(ExpectedUtility((0.0, 1.0)))
        functional, _ = separate(ctx, 0.5, full_simplex(2), sorted(grid(2, 8)))
        assert functional.coeffs == (0.0, 1.0)

    def test_normalization_exact_at_extremes(self, wu_model):
        ctx = context_for(wu_model)
        simplex = full_simplex(3)
        functional, _ = separate(ctx, 0.3, simplex, audit_samples(ctx, 0.3, simplex))
        assert functional.value(ctx.best) == 1.0
        assert functional.value(ctx.worst) == 0.0

    def test_chord_only_polytope_reproduces_levels(self, da_model):
        ctx = context_for(da_model)
        chord = Polytope(tuple(sorted((ctx.best, ctx.worst))))
        samples = sorted(chord_point(ctx, s) for s in [k / 10 for k in range(11)])
        functional, _ = separate(ctx, 0.5, chord, samples)
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

    def test_no_samples_leaves_out_the_inequalities(self, monkeypatch):
        ctx = context_for(WU4)
        calls = TestBatchedSeparation.counted_linprog(monkeypatch)
        functional, _ = separate(ctx, 0.5, full_simplex(4), [])
        assert len(calls) == 1
        ((rows,), (rhs,), _, _) = calls[0]
        assert rows.shape == (0, 4) and len(rhs) == 0
        # The least-L1-norm functional with value 1 at the best extreme
        # and 0 at the worst.
        assert functional.coeffs == tuple(ctx.best.as_array())

    def test_check_audits_the_functional_asking_each_sample_once(self, monkeypatch):
        # The check is verify_separation's audit of the functional on the
        # same samples, and the oracle is asked about each distinct sample
        # once, against the chord point.
        model = cyclic_oracle()
        ctx, t = context_for(model), 0.5
        samples = audit_samples(ctx, t, full_simplex(3))
        samples += samples[:5]
        asked, compare = [], model.compare_fn

        def counted(x, y):
            asked.append((x.probs, y.probs))
            return compare(x, y)

        monkeypatch.setattr(model, "compare_fn", counted)
        functional, check = separate(ctx, t, full_simplex(3), samples)
        assert sorted(x for x, _ in asked) == sorted({x.probs for x in samples})
        assert {y for _, y in asked} == {chord_point(ctx, t).probs}
        monkeypatch.setattr(model, "compare_fn", compare)
        assert check == verify_separation(ctx, t, functional, samples)
        assert check.passed

    def test_nonconvex_contours_are_infeasible(self):
        ctx = context_for(quadratic_oracle())
        with pytest.raises(Infeasible):
            separate(ctx, 0.5, full_simplex(3), sorted(grid(3, 6)))


class TestVerifySeparation:
    @pytest.mark.parametrize("t", [0.2, 0.5, 0.8])
    def test_fitted_functional_passes(self, family_model, t):
        ctx = context_for(family_model)
        samples = audit_samples(ctx, t, full_simplex(3))
        functional, _ = separate(ctx, t, full_simplex(3), samples)
        check = verify_separation(ctx, t, functional, samples)
        assert check.passed, check.violations[:3]
        assert check.n_upper + check.n_lower + check.n_indifferent == len(samples)
        assert check.chord_value == pytest.approx(t, abs=1e-7)

    def test_perturbed_functional_is_flagged(self, eu_model):
        ctx = context_for(eu_model)
        t = 0.5
        samples = audit_samples(ctx, t, full_simplex(3))
        functional, _ = separate(ctx, t, full_simplex(3), samples)
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
        functional, _ = separate(ctx, t, full_simplex(3), samples)
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
        """Record the arguments of every solver call of the separation
        module."""
        calls = []
        solve = separation.linprog

        def recorded(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(separation, "linprog", recorded)
        return calls

    @pytest.mark.parametrize("spec, n", [
        ('{"kind": "weighted_utility", "u": [0, 0.3, 0.7, 1], "w": [1, 2, 0.5, 1.5]}', 4),
        ('{"kind": "weighted_utility", "u": [0, 0.4, 1], "w": [1, 2, 0.5]}', 3),
        ('{"kind": "cyclic_oracle"}', 3),
    ])
    def test_two_solver_calls_per_passing_level(self, tmp_path, monkeypatch, spec, n):
        # The simplex separator, then every query x 3 polytopes at once:
        # grid(n, 3) holds 20 queries on four outcomes, 10 on three.
        path = tmp_path / "model.json"
        path.write_text(spec)
        calls = self.counted_linprog(monkeypatch)
        out = str(tmp_path / "out")
        assert main(["separation", "--model", str(path), "--levels", "0.3,0.6", "--out", out]) == 0
        queries = len(grid(n, 3))
        assert [len(rows) for rows, *_ in calls] == [1, 3 * queries] * 2

    @staticmethod
    def one_infeasible_block(matrix=None):
        """A quadratic-oracle context, three blocks of which only the middle
        one is infeasible at level 0.5, and that block's error alone."""
        ctx = context_for(quadratic_oracle(matrix))
        n = ctx.model.n_outcomes
        chord = sorted(chord_point(ctx, s) for s in (0.0, 0.25, 0.5, 0.75, 1.0))
        bowed = sorted(grid(n, 6))
        with pytest.raises(Infeasible) as single:
            separate(ctx, 0.5, full_simplex(n), bowed)
        return ctx, [chord, bowed, chord], single.value

    @pytest.mark.parametrize("matrix", [None, QUADRATIC4])
    def test_one_infeasible_block_raises_the_single_program_error(self, monkeypatch, matrix):
        # On three outcomes and on four, one solver call finds the bowed
        # block infeasible among the others, with the certificate it has
        # alone.
        ctx, blocks, single = self.one_infeasible_block(matrix)
        calls = self.counted_linprog(monkeypatch)
        with pytest.raises(Infeasible) as batched:
            separation._separators(ctx, 0.5, blocks)
        assert len(calls) == 1
        assert str(batched.value) == str(single)
        assert batched.value.level == single.level == 0.5
        assert batched.value.certificate == single.certificate
        assert_certificate(ctx, 0.5, batched.value.certificate, blocks[1])

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
        singles = [separate(ctx, t, p, samples)[0] for _, p, samples in blocks]
        assert [[c.hex() for c in f.coeffs] for f in batched] == [
            [c.hex() for c in f.coeffs] for f in singles
        ]
        results = cross_polytope_consistency_many(ctx, queries, t, polytopes)
        values = [f.value(x).hex() for (x, _, _), f in zip(blocks, singles)]
        assert [v.hex() for r in results for v in r.separator_values] == values


def functionals_or_error(ctx, t, blocks):
    """``_separators`` of ``blocks`` as the bits of each coefficient, or the
    text of the :class:`Infeasible` it raises."""
    try:
        return [[c.hex() for c in f.coeffs] for f in separation._separators(ctx, t, blocks)]
    except Infeasible as exc:
        return str(exc)


def programs(ctx, t, blocks) -> list:
    """The programs of ``blocks`` at level ``t``, right-hand side last."""
    return separation._inequalities(ctx, t, blocks, separation._classified(ctx, t, blocks))


def highs_optimum(ctx, ub):
    """HiGHS's optimum of the program ``ub`` at its 1e-10 feasibility
    tolerance, as coefficients, or None where it reports status 2
    (infeasible).  HiGHS sees the coefficients split into positive and
    negative parts, so the L1 objective is linear and every variable >= 0."""
    n, eq = ctx.model.n_outcomes, separation._normalization(ctx)

    def split(rows):
        return np.column_stack([rows[:, :-1], -rows[:, :-1]])

    result = highs(
        c=np.ones(2 * n), A_ub=split(ub), b_ub=ub[:, -1], A_eq=split(eq), b_eq=eq[:, -1],
        bounds=[(0.0, None)] * (2 * n), method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert result.status in (0, 2), result.message
    return result.x[:n] - result.x[n:] if result.status == 0 else None


def brute_force(ctx, ub):
    """The least-L1-norm, then lexicographically least, coefficients that
    meet the program ``ub`` to 1e-12, or None if none do.

    With d free coefficients the optimum is a vertex of the planes the rows
    and the ``c_i = 0`` bound: this solves every d of them with the
    normalization, ranks the solutions that meet every row, and counts
    values within 1e-9 as tied.  Only for small d.
    """
    n, eq = ctx.model.n_outcomes, separation._normalization(ctx)
    planes = np.vstack([ub[:, :n], np.eye(n)])
    bounds = np.concatenate([ub[:, -1], np.zeros(n)])
    picks = list(combinations(range(len(planes)), n - 2))
    picks = np.array(picks, dtype=int).reshape(len(picks), n - 2)
    systems = np.concatenate([np.broadcast_to(eq[:, :n], (len(picks), 2, n)), planes[picks]], 1)
    rhs = np.concatenate([np.broadcast_to(eq[:, -1], (len(picks), 2)), bounds[picks]], 1)
    regular = np.abs(np.linalg.det(systems)) > 1e-12
    coeffs = np.linalg.solve(systems[regular], rhs[regular][..., None])[..., 0]
    coeffs = coeffs[(coeffs @ ub[:, :n].T - ub[:, -1]).max(axis=1, initial=-np.inf) <= 1e-12]
    if not len(coeffs):
        return None
    norms = np.abs(coeffs).sum(axis=1)
    coeffs = coeffs[norms <= norms.min() + 1e-9]
    for i in range(n):
        coeffs = coeffs[coeffs[:, i] <= coeffs[:, i].min() + 1e-9]
    return coeffs[0]


def interval_optimum(ctx, ub):
    """With degenerate extremes on at most three outcomes: the end nearest
    0 of the interval the rows of ``ub`` leave the free coefficient, as
    ``(r - a_best) / a`` of the binding row, or None where it is empty."""
    b, w = ctx.best.probs.index(1.0), ctx.worst.probs.index(1.0)
    free = [i for i in range(ctx.model.n_outcomes) if i not in (b, w)]
    r = ub[:, -1] - ub[:, b]
    a = ub[:, free[0]] if free else np.zeros(len(r))
    lo = np.max(r[a < 0.0] / a[a < 0.0], initial=-np.inf)
    hi = np.min(r[a > 0.0] / a[a > 0.0], initial=np.inf)
    if lo > hi or np.any(r[a == 0.0] < 0.0):
        return None
    coeffs = np.zeros(ctx.model.n_outcomes)
    coeffs[b], coeffs[free] = 1.0, min(max(0.0, lo), hi)
    return coeffs


def check_programs(ctx, t, blocks) -> int:
    """Check the solver on each program of ``blocks`` and return how many
    it proves infeasible.

    Past the 1e-10 margin it raises exactly where HiGHS reports status 2,
    with a certificate that checks; a near miss gets the optimum of its
    relaxed rows.  Each optimum meets every (relaxed) row to the rounding
    of evaluating it, matches the brute force to 1e-12, has an L1 norm
    within 1e-9 of HiGHS's or less, and with one free coefficient is the
    interval's end bit for bit.
    """
    n, eq = ctx.model.n_outcomes, separation._normalization(ctx)
    ubs = programs(ctx, t, blocks)
    degenerate_ends = all(p.count(1.0) == 1 for p in (ctx.best.probs, ctx.worst.probs))
    infeasible = 0
    for samples, ub, (coeffs, ray) in zip(blocks, ubs, separation._solved(ctx, ubs, 0.0)):
        theirs, slack = highs_optimum(ctx, ub), 0.0
        if ray is not None:
            certificate = separation._certificate(ctx, t, ub, *ray())
            if certificate.gap > separation._FEASIBILITY_TOL:
                assert_certificate(ctx, t, certificate, samples)
                assert theirs is None
                infeasible += 1
                continue
            slack = separation._FEASIBILITY_TOL
            ((coeffs, ray),) = separation._solved(ctx, [ub], slack)
            assert ray is None
        else:
            assert theirs is not None
        rows, bounds = ub[:, :n], ub[:, -1] + slack
        rounding = 4 * n * np.finfo(float).eps
        rounding *= np.abs(rows).sum(axis=1) * np.abs(coeffs).max() + np.abs(bounds)
        assert np.all(rows @ coeffs - bounds <= rounding)
        if theirs is not None:
            assert np.abs(coeffs).sum() <= np.abs(theirs).sum() + 1e-9
        if n <= 4:
            exact = brute_force(ctx, np.column_stack([ub[:, :-1], bounds]))
            assert exact is not None and np.abs(coeffs - exact).max() <= 1e-12
        if n <= 3 and degenerate_ends and not slack:
            ends = interval_optimum(ctx, ub)
            assert ends is None or ends.tobytes() == coeffs.tobytes()
    return infeasible


@st.composite
def separation_programs(draw):
    """An EU, WU, DA or kernel family on 2 to 4 outcomes, a level in
    [0.01, 0.99], and the sample lists of one level's programs: the
    simplex's contour samples with a grid and seeded Dirichlet rows, and on
    3 or 4 outcomes the contour samples of one drawn query's polytopes.
    Alternatively, on 3 or 4 outcomes, a hand-built context whose extremes
    are mixed toward drawn lotteries, so no coefficient is fixed alone,
    with grid, Dirichlet and chord samples.

    ``u`` attains 0 and 1, WU weights lie in [0.1, 10], DA's ``beta`` in
    (-1, 5], and a kernel is linear in the level from ``u[i]`` (back from 1
    where ``u[i]`` is 1) with slopes of at most 0.9.
    """
    n = draw(st.integers(2, 4))
    inner = draw(st.lists(st.floats(0.0, 1.0), min_size=n - 2, max_size=n - 2))
    u = draw(st.permutations([0.0, 1.0, *inner]))
    kind = draw(st.sampled_from(["eu", "wu", "da", "kernel"]))
    if kind == "eu":
        model = ExpectedUtility(u)
    elif kind == "wu":
        model = WeightedUtility(u, draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n)))
    elif kind == "da":
        model = DisappointmentAversion(u, draw(st.floats(-1.0, 5.0, exclude_min=True)))
    else:
        slopes = draw(st.lists(st.floats(0.0, 0.9), min_size=n, max_size=n))
        phi = [
            (1.0 - s, 1.0) if u_i == 1.0 else (u_i, min(u_i + s, 1.0))
            for u_i, s in zip(u, slopes)
        ]
        model = ImplicitKernel((0.0, 1.0), phi)
    ctx = context_for(model)
    t = draw(st.floats(0.01, 0.99))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    drawn = [lottery(row) for row in rng.dirichlet(np.ones(n), size=draw(st.integers(0, 8)))]
    if n > 2 and draw(st.booleans()):
        share = draw(st.floats(0.5, 0.9))
        best, worst = (mix(share, x, lottery(rng.dirichlet(np.ones(n)))) for x in (ctx.best, ctx.worst))
        try:
            ctx = RepresentationContext(model, best, worst)
        except DegeneratePreference:
            assume(False)
        chords = [chord_point(ctx, s) for s in (0.0, 0.5, 1.0, t)]
        samples = [*grid(n, draw(st.integers(1, 4))), *drawn, *chords]
        return ctx, t, [sorted({x.probs: x for x in samples}.values())]
    base = contour_samples(ctx, t, full_simplex(n))
    extra = [*grid(n, draw(st.integers(1, 10 if n < 4 else 5))), *drawn]
    blocks = [sorted({x.probs: x for x in [*base, *extra]}.values())]
    if n > 2:
        x = lottery(rng.dirichlet(np.ones(n)))
        blocks += [contour_samples(ctx, t, p) for p in query_polytopes(ctx, x)]
    return ctx, t, blocks


@st.composite
def quadratic_programs(draw):
    """A quadratic oracle on 3 or 4 outcomes with a drawn symmetric matrix
    (entries in [-1, 1]), a level in [0.05, 0.95], and one or two grid
    sample lists (resolution up to 8 on three outcomes, 5 on four): bowed
    contours, so some programs are infeasible and some are not."""
    matrix = draw(symmetric_matrices())
    n = len(matrix)
    try:
        ctx = context_for(quadratic_oracle(matrix))
    except DegeneratePreference:
        assume(False)
    t = draw(st.floats(0.05, 0.95))
    sizes = draw(st.lists(st.integers(1, 8 if n == 3 else 5), min_size=1, max_size=2))
    return ctx, t, [sorted(grid(n, size)) for size in sizes]


class TestSolver:
    """One solver answers every separation program exactly: the least L1
    norm, the lexicographically least coefficients among ties, and a
    checked Farkas certificate of at most d + 1 rows where there is none."""

    @settings(max_examples=100, deadline=None)
    @given(separation_programs())
    def test_matches_the_references(self, program):
        check_programs(*program)

    @settings(max_examples=100, deadline=None)
    @given(quadratic_programs())
    def test_infeasible_exactly_when_highs_says_so(self, program):
        ctx, t, blocks = program
        infeasible = check_programs(ctx, t, blocks)
        try:
            separation._separators(ctx, t, blocks)
        except Infeasible as exc:
            assert infeasible
            # The rows are bounds of one block's program.
            lotteries = [tuple(row["lottery"]) for row in exc.certificate.rows]
            block = next(
                samples for samples in blocks
                if set(lotteries) <= {x.probs for x in samples}
            )
            assert_certificate(ctx, t, exc.certificate, block)
        else:
            assert not infeasible

    def test_one_free_coefficient_takes_the_binding_rows_bits(self):
        # Two lower bounds on the free coefficient tie at 1/2 in exact
        # arithmetic; in floats (r - a_best) / a gives 0.5 for one and
        # 0.5000000000000001 for the other.  The optimum is the larger, as
        # the binding row computes it.
        ctx = context_for(quadratic_oracle([[1.0, 1.0, 1.0], [1.0, 0.0, 0.5], [1.0, 0.5, 1.0]]))
        blocks = [sorted(grid(3, 3))]
        (ub,) = programs(ctx, 0.5, blocks)
        (functional,) = separation._separators(ctx, 0.5, blocks)
        assert functional.coeffs == (1.0, 0.0, 0.5000000000000001)
        assert np.array_equal(interval_optimum(ctx, ub), functional.coeffs)

    @pytest.mark.parametrize("model", [
        ExpectedUtility((0.0, 1.0)),
        WeightedUtility((1.0, 0.0), (0.5, 3.0)),
        DisappointmentAversion((0.0, 1.0), 2.0),
    ])
    def test_two_outcomes_leave_one_functional(self, model):
        # The normalization fixes both coefficients.
        ctx = context_for(model)
        blocks = [sorted(grid(2, 8)), contour_samples(ctx, 0.3, full_simplex(2))]
        expected = [c.hex() for c in ctx.best.as_array()]
        assert functionals_or_error(ctx, 0.3, blocks) == [expected, expected]

    def test_an_empty_interval_raises_a_checked_certificate(self):
        # The bowed quadratic contour leaves no coefficient: at level 0.5 the
        # free coefficient must be at least 3 for (5/6, 1/6, 0), strictly
        # preferred to the chord point, and at most 1e-7 for (0, 1/2, 1/2),
        # indifferent to it.  HiGHS finds the program infeasible too.
        ctx = context_for(quadratic_oracle())
        bowed = sorted(grid(3, 6))
        (ub,) = programs(ctx, 0.5, [bowed])
        assert highs_optimum(ctx, ub) is None
        with pytest.raises(Infeasible) as exc:
            separation._separators(ctx, 0.5, [bowed])
        assert str(exc.value) == (
            "no affine functional separates the sampled contour sets at level 0.5 "
            "(sample (0.8333333333333334, 0.16666666666666666, 0.0) needs value >= 0.5 "
            "and sample (0.0, 0.5, 0.5) needs value <= 0.50000005)"
        )
        certificate = exc.value.certificate
        assert exc.value.level == certificate.level == 0.5
        assert [(row["lottery"], row["class"], row["weight"]) for row in certificate.rows] == [
            ([5 / 6, 1 / 6, 0.0], "upper", 0.75), ([0.0, 0.5, 0.5], "indifferent", 0.25),
        ]
        assert_certificate(ctx, 0.5, certificate, bowed)

    def test_certificate_bits_do_not_depend_on_row_order(self):
        # The 4-outcome quadratic oracle's level-0.2 program, proved
        # infeasible by two rows, whose sums leave a residual of 2 ** -55.
        # Its rows reordered, with their weights, in every order of the
        # weighted rows among orders of the whole program, leave the same
        # residual and gap bit for bit.
        ctx, t = context_for(quadratic_oracle(QUADRATIC4)), 0.2
        (ub,) = programs(ctx, t, [audit_samples(ctx, t, full_simplex(4), resolution=4)])
        ((_, ray),) = separation._solved(ctx, [ub], 0.0)
        y, z = ray()
        certificate = separation._certificate(ctx, t, ub, y, z)
        support = np.flatnonzero(y)
        # Each sum is the rounding of the exact sum of the weighted rows.
        eq = separation._normalization(ctx)
        terms = np.vstack([y[support, None] * ub[support], z[:, None] * eq])
        exact = [float(sum(map(Fraction, column.tolist()))) for column in terms.T]
        assert certificate.residual == max(map(abs, exact[:-1])) == 2.0**-55
        assert certificate.gap == -exact[-1]
        rng = np.random.default_rng(0)
        orders = [np.arange(len(ub)), np.arange(len(ub))[::-1]]
        orders += [rng.permutation(len(ub)) for _ in range(4)]
        for order in orders:
            for weighted in permutations(support):
                order[np.isin(order, support)] = weighted
                shuffled = separation._certificate(ctx, t, ub[order], y[order], z)
                assert shuffled.residual.hex() == certificate.residual.hex()
                assert shuffled.gap.hex() == certificate.gap.hex()

    @pytest.mark.parametrize("miss, raises", [(5e-11, False), (1e-9, True)])
    def test_a_near_miss_gets_the_relaxed_optimum(self, eu_model, monkeypatch, miss, raises):
        # A row with no free coefficient missed by ``miss``, and an interval
        # [0.5, 0.5 - 2 * miss] (empty by 2 * miss; its rows, weighted 1/2
        # each, miss by ``miss``).  Within the 1e-10 tolerance each program
        # gets the optimum of its rows relaxed by it; past it, a certificate
        # whose gap is the miss.
        ctx = context_for(eu_model)
        b, w = ctx.best.probs.index(1.0), ctx.worst.probs.index(1.0)
        (m,) = {0, 1, 2} - {b, w}
        best, free = np.eye(3)[b], np.eye(3)[m]
        flat = separation._with_rhs(best[None], [1.0 - miss])
        interval = separation._with_rhs(np.stack([-free, free]), [-0.5, 0.5 - 2 * miss])
        for ub, coefficient in ((flat, 0.0), (interval, 0.5 - separation._FEASIBILITY_TOL)):
            monkeypatch.setattr(separation, "_inequalities", lambda *args, ub=ub: [ub])
            if raises:
                with pytest.raises(Infeasible) as exc:
                    separation._separators(ctx, 0.5, [[]])
                assert exc.value.certificate.gap == pytest.approx(miss, rel=1e-6)
            else:
                (functional,) = separation._separators(ctx, 0.5, [[]])
                assert functional.coeffs[b] == 1.0 and functional.coeffs[w] == 0.0
                assert functional.coeffs[m] == pytest.approx(coefficient, abs=1e-15)

    @pytest.mark.parametrize("t", [0.15, 0.35])
    def test_a_near_tie_gets_the_exact_optimum(self, t):
        # Two rows bound the free coefficient within 2e-11 of each other.
        # HiGHS stops at the looser bound, so its answer violates the tighter
        # row within its tolerance.  The solver meets every row and is the
        # true L1 optimum.
        ctx = context_for(WeightedUtility((1.0, 0.3, 0.0), (0.5, 3.0, 1.0)))
        x = lottery((0.0, 2 / 3, 1 / 3))
        blocks = [contour_samples(ctx, t, Polytope((*full_simplex(3).vertices, x)))]
        (ub,) = programs(ctx, t, blocks)
        ours = np.array([float.fromhex(c) for c in functionals_or_error(ctx, t, blocks)[0]])
        theirs = highs_optimum(ctx, ub)
        excess = [(ub[:, :3] @ coeffs - ub[:, -1]).max() for coeffs in (ours, theirs)]
        assert excess[0] <= 0.0 < excess[1] <= 1e-10
        assert np.abs(theirs).sum() < np.abs(ours).sum()


#: The weights the contrapositive check mixes a certificate's lotteries at.
#: A violation can lie between coarser ones: on the four-outcome matrix of
#: ``test_a_violation_between_coarse_weights``, k / 20 finds none.
CERTIFICATE_LAMBDAS = tuple(k / 1000.0 for k in range(1, 1000))


class TestInfeasibleMeansBetweennessFails:
    """The contrapositive of the separation theorem: a level's program is
    infeasible only where a contour set is not convex, so every
    :class:`Infeasible` certificate's lotteries show ``check_betweenness`` a
    witness that holds one of the certificate's rows."""

    @staticmethod
    def certificates(matrix, levels) -> list:
        """The certificates of ``separate`` on the simplex (its contour
        samples and grid 6) at ``levels``; a level that raises another
        error has no program to certify."""
        ctx = context_for(quadratic_oracle(matrix))
        n = ctx.model.n_outcomes
        simplex = full_simplex(n)
        out = []
        for t in levels:
            try:
                samples = [*contour_samples(ctx, t, simplex), *grid(n, 6)]
                separate(ctx, t, simplex, sorted({x.probs: x for x in samples}.values()))
            except Infeasible as exc:
                out.append((ctx, t, exc.certificate))
            except (NoCrossing, NonMonotoneChord):
                pass
        return out

    @staticmethod
    def assert_witnessed(ctx, t, certificate) -> None:
        rows = {tuple(row["lottery"]) for row in certificate.rows}
        chord = chord_point(ctx, t)
        # The certificate weights the normalization rows too, so the
        # extremes are among the lotteries it involves.
        involved = {x: lottery(x) for x in (*rows, chord.probs, ctx.best.probs, ctx.worst.probs)}
        report = check_betweenness(ctx.model, sorted(involved.values()), CERTIFICATE_LAMBDAS)
        witnessed = any(
            {w.lotteries[0].probs, w.lotteries[1].probs} & rows for w in report.witnesses
        )
        # A known defect: where the band ties the chord point with an
        # extreme that the certificate lists, the level is infeasible with
        # no robust violation.  Only that tie is checked there.
        ties = {
            end.probs for end in (ctx.best, ctx.worst)
            if ctx.model.compare(chord, end) is Ordering.INDIFFERENT
        }
        assert witnessed or ties & rows, (t, certificate)

    @settings(max_examples=30, deadline=None)
    @given(symmetric_matrices(), st.lists(st.floats(0.05, 0.95), min_size=1, max_size=3))
    # The default matrix, and one whose witness mixes a row with the best
    # extreme: the certificate's rows and the chord point alone show none.
    @example([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]], [0.5])
    @example([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], [0.328125])
    def test_every_certificate_yields_a_betweenness_witness(self, matrix, levels):
        try:
            certificates = self.certificates(matrix, levels)
        except DegeneratePreference:
            return  # every vertex ties: no level, no program
        for certificate in certificates:
            self.assert_witnessed(*certificate)

    def test_a_violation_between_coarse_weights(self):
        # The mixtures that escape lie between the weights k / 20.
        matrix = [
            [-1.0, 0.0, 0.0, -0.9205291187276345],
            [0.0, 0.7114831959178782, 0.7114831959178782, -0.5462022957793183],
            [0.0, 0.7114831959178782, 0.0, 0.7783653273102136],
            [-0.9205291187276345, -0.5462022957793183, 0.7783653273102136, -0.9205291187276345],
        ]
        ((ctx, t, certificate),) = self.certificates(matrix, [0.12813443131040908])
        self.assert_witnessed(ctx, t, certificate)

    def test_a_band_tie_with_an_extreme_is_certified_without_a_witness(self):
        # The known defect.  The value 1e-7 * p0 ** 2 orders lotteries as
        # expected utility does, so betweenness holds.  But the level-0.05
        # chord point, worth 2.5e-10, ties the worst extreme under the band,
        # and the level's program is infeasible: its certificate's one row
        # is that extreme.
        matrix = [[1e-7, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
        ((ctx, t, certificate),) = self.certificates(matrix, [0.05])
        assert [row["lottery"] for row in certificate.rows] == [list(ctx.worst.probs)]
        assert ctx.model.compare(chord_point(ctx, t), ctx.worst) is Ordering.INDIFFERENT
        involved = sorted({ctx.best, ctx.worst, chord_point(ctx, t)})
        assert check_betweenness(ctx.model, involved, CERTIFICATE_LAMBDAS).passed


class TestAffineFunctional:
    def test_value_and_dict(self):
        f = AffineFunctional((0.0, 0.4, 1.0))
        assert f.value(lottery((0.2, 0.5, 0.3))) == pytest.approx(0.5, abs=1e-15)
        assert f.to_dict() == {"coeffs": [0.0, 0.4, 1.0]}

    def test_dimension_checked(self):
        f = AffineFunctional((0.0, 1.0))
        with pytest.raises(ValueError):
            f.value(lottery((0.2, 0.5, 0.3)))
