"""End-to-end acceptance checks for the published guarantees.

One test per guarantee, each printing a single ``[PASS]``/``[FAIL]``
line with the measured extreme next to its tolerance, so a log scan
shows the whole contract at a glance.  The lines bypass pytest's capture
and appear in plain ``pytest -v`` output.
"""

import json
import math
import os
import sys
import time
from itertools import combinations

from conftest import DA_U, EU_U, WU_U, WU_W, family_models

import numpy as np

from betweenu import (
    DisappointmentAversion,
    ExpectedUtility,
    Ordering,
    Polytope,
    WeightedUtility,
    chord_point,
    collinearity_residual,
    context_for,
    contour_samples,
    cross_polytope_consistency,
    cyclic_oracle,
    degenerate,
    grid,
    implicit_utility,
    implicit_utility_many,
    jump_oracle,
    mix,
    run_all_checks,
    separate,
    solve_mixing,
    solve_utility,
    solve_utility_many,
    trace_level_curves,
    utility_fixed_point_many,
)
from betweenu.cli import main

LAMBDAS = tuple(k / 10.0 for k in range(1, 10))


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}", file=sys.__stdout__)
    assert ok, f"{name}: {detail}"


def _simplex(n: int) -> Polytope:
    return Polytope(tuple(sorted(degenerate(i, n) for i in range(n))))


def test_01_representation_soundness():
    """solve_utility ordering reproduces compare on every grid pair."""
    points = sorted(grid(3, 8))
    assert len(points) == 45
    start = time.perf_counter()
    violations = 0
    checked = 0
    for name, model in sorted(family_models().items()):
        ctx = context_for(model)
        band = 2.0 * ctx.tol_t
        u_of = dict(zip(points, solve_utility_many(ctx, points)))
        for x, y in combinations(points, 2):
            fwd = model.compare(x, y)
            for a, b, c in ((x, y, fwd), (y, x, fwd.converse)):
                checked += 1
                weakly_prefers = c is not Ordering.STRICTLY_DISPREFERRED
                numerically_weak = u_of[a] >= u_of[b] - band
                if weakly_prefers != numerically_weak:
                    violations += 1
    elapsed = time.perf_counter() - start
    _report(
        "representation soundness",
        violations == 0 and elapsed < 30.0,
        f"{len(family_models())} families x {checked // len(family_models())} ordered pairs, "
        f"{violations} violations, {elapsed:.1f}s (budget 30s)",
    )


def test_02_mixture_linearity():
    """u(mix(lam, x, y), t) is affine in lam at every level."""
    points = sorted(grid(3, 6))
    pairs = list(combinations(points, 2))
    ts = tuple(k / 10.0 for k in range(1, 10))
    worst = 0.0
    for name, model in sorted(family_models().items()):
        ctx = context_for(model)
        mixes = [mix(lam, x, y) for x, y in pairs for lam in LAMBDAS]
        for t in ts:
            u_base = dict(
                zip(points, implicit_utility_many(ctx, points, np.full(len(points), t)))
            )
            u_mix = implicit_utility_many(ctx, mixes, np.full(len(mixes), t))
            k = 0
            for x, y in pairs:
                for lam in LAMBDAS:
                    expected = lam * u_base[x] + (1.0 - lam) * u_base[y]
                    worst = max(worst, abs(float(u_mix[k]) - expected))
                    k += 1
    _report(
        "mixture linearity",
        worst <= 1e-6,
        f"{len(pairs)} pairs x {len(LAMBDAS)} weights x {len(ts)} levels per family, "
        f"max residual {worst:.3e} (tol 1e-6)",
    )


def test_03_unique_fixed_point():
    """u(x, t) - t changes sign exactly once; its root matches solve_utility."""
    points = sorted(grid(3, 6))
    ts = np.linspace(0.0, 1.0, 1000)
    rows = np.repeat([x.probs for x in points], len(ts), axis=0)
    worst_gap = 0.0
    single = True
    scanned = 0
    for name, model in sorted(family_models().items()):
        ctx = context_for(model)
        roots = utility_fixed_point_many(ctx, points)
        worst_gap = max(worst_gap, float(np.abs(roots - solve_utility_many(ctx, points)).max()))
        # The search reads its scan signs off chord comparisons; the
        # single crossing is checked here on u itself.
        u = implicit_utility_many(ctx, rows, np.tile(ts, len(points)))
        signs = np.sign(u.reshape(len(points), len(ts)) - ts)
        zeros = np.count_nonzero(signs == 0.0, axis=1)
        single &= bool(((zeros <= 1) & ~(np.diff(signs, axis=1) > 0.0).any(axis=1)).all())
        scanned += len(points)
    tol = 10.0 * 1e-10
    _report(
        "unique fixed point",
        single and worst_gap <= tol,
        f"{scanned} lotteries scanned at 1000 levels each, single crossing of u(x, t) - t "
        f"{'everywhere' if single else 'violated'}, "
        f"max |root - solve_utility| {worst_gap:.3e} (tol {tol:.0e})",
    )


def test_04_normalization():
    """u pins the best lottery to 1 and the worst to 0 at every level."""
    interior = np.array([k / 100.0 for k in range(1, 100)])
    worst_gap = 0.0
    endpoint_ok = True
    for name, model in sorted(family_models().items()):
        ctx = context_for(model)
        for t in (0.0, 1.0):
            endpoint_ok = endpoint_ok and implicit_utility(ctx, ctx.best, t) == 1.0
            endpoint_ok = endpoint_ok and implicit_utility(ctx, ctx.worst, t) == 0.0
        at_best = implicit_utility_many(ctx, [ctx.best] * len(interior), interior)
        at_worst = implicit_utility_many(ctx, [ctx.worst] * len(interior), interior)
        worst_gap = max(
            worst_gap,
            float(np.max(np.abs(at_best - 1.0))),
            float(np.max(np.abs(at_worst))),
        )
    _report(
        "normalization",
        endpoint_ok and worst_gap <= 1e-8,
        f"exact at t in {{0, 1}}, max interior gap {worst_gap:.1e} over 99 levels "
        f"(tol 1e-8), all families",
    )


def test_05_local_value_vs_separator():
    """The mixing-based local value equals the LP separator, whatever the polytope."""
    points = sorted(grid(3, 6))
    simplex = _simplex(3)
    ts = (0.2, 0.5, 0.8)
    worst_sep = 0.0
    worst_cross = 0.0
    for name, model in sorted(family_models().items()):
        ctx = context_for(model)
        for t in ts:
            base = contour_samples(ctx, t, simplex)
            audit = sorted({x.probs: x for x in [*base, *points]}.values())
            functional, _ = separate(ctx, t, simplex, audit)
            values = implicit_utility_many(ctx, points, np.full(len(points), t))
            for x, v in zip(points, values):
                worst_sep = max(worst_sep, abs(functional.value(x) - float(v)))
                pulled = [
                    mix(0.5, vert, x)
                    for vert in simplex.vertices
                    if vert not in (ctx.best, ctx.worst)
                ]
                polytopes = [
                    Polytope(tuple(sorted((ctx.best, ctx.worst, x)))),
                    simplex,
                    Polytope(tuple(sorted((ctx.best, ctx.worst, x, *pulled)))),
                ]
                result = cross_polytope_consistency(ctx, x, t, polytopes)
                worst_cross = max(worst_cross, result.max_discrepancy)
    _report(
        "local value vs separator",
        worst_sep <= 1e-6 and worst_cross <= 1e-6,
        f"{len(points)} lotteries x {len(ts)} levels per family, max |engine - separator| "
        f"{worst_sep:.3e}, max spread over 3 polytopes {worst_cross:.3e} (tol 1e-6)",
    )


def _replay(model, witness) -> bool:
    if witness.note == "intransitive triple":
        a, b, c = witness.lotteries
        seen = (model.compare(a, b), model.compare(b, c), model.compare(a, c))
        return seen == witness.observed
    x, z, y, near = witness.lotteries
    settled, at_limit = witness.observed
    return (
        model.compare(near, y) is settled
        and model.compare(x, y) is at_limit
        and at_limit is settled.converse
    )


def test_06_axiom_suite():
    """Well-behaved families pass; planted defects are flagged with live witnesses."""
    core = ("Rationality", "Nondegeneracy", "Betweenness", "MixingNeutrality")
    samples = sorted(grid(3, 6))
    families_ok = True
    for name, model in sorted(family_models().items()):
        by_axiom = {r.axiom: r for r in run_all_checks(model, samples, LAMBDAS, seed=0)}
        families_ok = families_ok and all(by_axiom[a].passed for a in core)

    cyclic = cyclic_oracle()
    cyclic_reports = {
        r.axiom: r for r in run_all_checks(cyclic, sorted(grid(3, 3)), LAMBDAS, seed=0)
    }
    cyclic_flagged = not cyclic_reports["Rationality"].passed
    cyclic_replayed = cyclic_flagged and all(
        _replay(cyclic, w) for w in cyclic_reports["Rationality"].witnesses
    )

    jump = jump_oracle()
    jump_reports = {
        r.axiom: r for r in run_all_checks(jump, sorted(grid(2, 8)), LAMBDAS, seed=0)
    }
    jump_flagged = not jump_reports["Continuity"].passed
    jump_replayed = jump_flagged and all(
        _replay(jump, w) for w in jump_reports["Continuity"].witnesses
    )

    _report(
        "axiom suite",
        families_ok and cyclic_replayed and jump_replayed,
        f"{', '.join(core)} pass for {len(family_models())} families; cyclic oracle "
        f"flagged with {len(cyclic_reports['Rationality'].witnesses)} replayed witnesses; "
        f"jump oracle flagged with {len(jump_reports['Continuity'].witnesses)} replayed witnesses",
    )


def test_07_chord_and_extreme_identities():
    """Chord levels, extreme mixing weights, and extreme local values are exact."""
    ts = tuple(k / 20.0 for k in range(1, 20))
    worst_chord = 0.0
    worst_mu = 0.0
    locals_exact = True
    for name, model in sorted(family_models().items()):
        ctx = context_for(model)
        for t in ts:
            worst_chord = max(worst_chord, abs(solve_utility(ctx, chord_point(ctx, t)) - t))
            w_best, best_used_worst = solve_mixing(ctx, ctx.best, t)
            w_worst, worst_used_worst = solve_mixing(ctx, ctx.worst, t)
            worst_mu = max(worst_mu, abs(w_best - t), abs(w_worst - (1.0 - t)))
            locals_exact = (
                locals_exact
                and best_used_worst is True
                and worst_used_worst is False
                and implicit_utility(ctx, ctx.best, t) == 1.0
                and implicit_utility(ctx, ctx.worst, t) == 0.0
            )
    tol = 1e-10
    _report(
        "chord and extreme identities",
        worst_chord <= tol and worst_mu <= tol and locals_exact,
        f"{len(ts)} levels per family, max |U(chord) - t| {worst_chord:.3e}, "
        f"max mixing-weight gap {worst_mu:.3e} (tol {tol:.0e}), extreme local values exact",
    )


def test_08_triangle_collinearity():
    """Traced indifference curves are straight for the closed-form families."""
    models = {
        "expected_utility": ExpectedUtility(EU_U),
        "weighted_utility": WeightedUtility(WU_U, WU_W),
        "disappointment_aversion_0.5": DisappointmentAversion(DA_U, beta=0.5),
        "disappointment_aversion_1": DisappointmentAversion(DA_U, beta=1.0),
        "disappointment_aversion_2": DisappointmentAversion(DA_U, beta=2.0),
    }
    levels = (0.2, 0.4, 0.6, 0.8)
    worst = 0.0
    fewest = math.inf
    for name, model in sorted(models.items()):
        curves = trace_level_curves(context_for(model), levels)
        for curve in curves:
            worst = max(worst, collinearity_residual(curve.points))
            fewest = min(fewest, len(curve.points))
    _report(
        "triangle collinearity",
        worst <= 1e-6 and fewest >= 3,
        f"{len(models)} families x {len(levels)} levels, >= {fewest} points per curve, "
        f"max fit residual {worst:.3e} (tol 1e-6)",
    )


def test_09_cli_determinism(tmp_path):
    """Repeated repr/check runs with one seed produce byte-identical outputs."""
    model_path = tmp_path / "model.json"
    model_path.write_text(
        json.dumps({"kind": "weighted_utility", "u": list(WU_U), "w": list(WU_W)})
    )
    identical = True
    compared = 0
    for command in ("repr", "check"):
        blobs = []
        for run in (1, 2):
            out = str(tmp_path / f"{command}{run}")
            code = main(
                [command, "--model", str(model_path), "--grid", "5", "--seed", "3", "--out", out]
            )
            assert code == 0
            blob = {}
            for fname in sorted(os.listdir(out)):
                with open(os.path.join(out, fname), "rb") as fh:
                    blob[fname] = fh.read()
            blobs.append(blob)
        compared += len(blobs[0])
        identical = identical and blobs[0] == blobs[1]
    _report(
        "determinism",
        identical,
        f"repr and check re-runs byte-identical across {compared} output files",
    )
