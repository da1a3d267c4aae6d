"""Separating-functional verification of the local utility.

The construction identifies the local utility at a level ``t`` with an
affine functional separating the lotteries weakly preferred to the chord
point from those weakly dispreferred, normalized to 1 at the best
extreme and 0 at the worst.  This module finds such a functional on
sampled contour data by linear programming, checks the separation
property sample-by-sample, and confirms that the value assigned to a
lottery does not depend on which polytope the separation is carried out
in, matching the engine's mixing-based value.

One solver, :func:`~betweenu.simplex.linprog`, answers every separation
program, on any number of outcomes: with the exact least-L1-norm
functional, or with a Farkas ray from which an infeasible program's
:class:`~betweenu.errors.Infeasible` gets its :class:`FarkasCertificate`,
checked in numpy.  :func:`_separators` hands it all the programs of one
level at once.  :func:`separate` fits the functional of one sample list and
audits it on the same samples; :func:`verify_separation` audits a given
functional.

Everything is sampled: contour sets are infinite, so feasibility and
separation are certified only on the lotteries actually provided, and
the reports say nothing stronger.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import (
    RepresentationContext, _chord_keys, _local_values, chord_point, solve_mixing_many
)
from .errors import Infeasible, MembershipViolation
from .models import classify
from .simplex import Lottery, Polytope, linprog, lottery_rows, mix

#: Half-width of the equality band used for samples indifferent to the
#: chord point, and for verifying separation; chosen far above
#: ``_FEASIBILITY_TOL`` and far below the verification tolerances.
SEPARATION_BAND = 1e-7

_CHORD_LEVELS = tuple(k / 10.0 for k in range(1, 10))

#: Largest spread, among the separator values at a lottery and the engine's
#: value, that :func:`cross_polytope_consistency_many` passes.
CROSS_POLYTOPE_TOL = 1e-6

#: The least miss a program must force for :func:`_separators` to raise:
#: an infeasible program whose certificate's gap is no more than this (a
#: near miss, within the rounding of the samples) gets the optimum of its
#: rows relaxed by this instead.
_FEASIBILITY_TOL = 1e-10

#: Largest amount by which a :class:`FarkasCertificate`'s weighted rows may
#: fail to cancel a coefficient: rounding, far below ``_FEASIBILITY_TOL``.
_CERTIFICATE_TOL = 1e-13


def _record(check) -> dict:
    """A result's fields by name, for JSON, with tuples as lists."""
    return {k: list(v) if isinstance(v, tuple) else v for k, v in vars(check).items()}


@dataclass(frozen=True)
class AffineFunctional:
    """A functional ``x -> sum_i coeffs[i] * x[i]``, affine on the simplex."""

    coeffs: tuple[float, ...]

    def value(self, x: Lottery) -> float:
        if x.n_outcomes != len(self.coeffs):
            raise ValueError(
                f"lottery has {x.n_outcomes} outcomes, functional expects {len(self.coeffs)}"
            )
        return float(np.dot(np.asarray(self.coeffs), x.as_array()))

    to_dict = _record


@dataclass(frozen=True)
class SeparationCheck:
    """Sample-by-sample audit of one functional against one level."""

    level: float
    passed: bool
    n_upper: int
    n_lower: int
    n_indifferent: int
    chord_value: float
    violations: tuple[dict, ...]

    to_dict = _record


@dataclass(frozen=True)
class FarkasCertificate:
    """At most d + 1 rows of a separation program at ``level``, where d is
    the number of outcomes less 2 (Helly's theorem), that no functional
    with value 1 at the best extreme and 0 at the worst meets together.

    Each of ``rows`` is one sample's bound: its ``lottery``, its ``class``
    against the chord point (``"upper"``, ``"lower"`` or ``"indifferent"``,
    as in :class:`SeparationCheck`), the ``relation`` (``">="`` or
    ``"<="``) its functional value must bear to ``bound``, and its
    ``weight``; the weights are nonnegative and sum to 1.  Weighting the
    rows so, and the two normalization equalities by
    ``normalization_weights``, cancels every coefficient to within
    ``residual`` and leaves ``0 <= -gap``.  By Farkas' lemma no functional
    meets all the rows; ``gap`` is also the least amount by which some row
    must be missed.
    """

    level: float
    rows: tuple[dict, ...]
    normalization_weights: tuple[float, float]
    residual: float
    gap: float

    to_dict = _record


@dataclass(frozen=True)
class CrossPolytopeCheck:
    """Agreement of the separator value at one lottery across polytopes."""

    lottery: tuple[float, ...]
    level: float
    passed: bool
    engine_value: float
    separator_values: tuple[float, ...]
    max_discrepancy: float
    tol: float

    to_dict = _record


def _level(t) -> float:
    t = float(t)
    if not 0.0 < t < 1.0:
        raise ValueError(f"separation level must lie in (0, 1), got {t!r}")
    return t


def _require_extremes(ctx: RepresentationContext, polytope: Polytope) -> None:
    probs = {v.probs for v in polytope.vertices}
    if ctx.best.probs not in probs or ctx.worst.probs not in probs:
        raise ValueError("polytope must list both preference extremes among its vertices")


def _classify(ctx: RepresentationContext, t: float, probs) -> tuple[np.ndarray, np.ndarray]:
    """The lotteries ``probs`` as rows, and each one's side of the chord
    point at level ``t``: 1 strictly preferred, -1 strictly dispreferred,
    0 indifferent."""
    model = ctx.model
    rows = lottery_rows(list(probs), model.n_outcomes)
    return rows, classify(model.gaps(model.keys(rows), _chord_keys(ctx, [t])), model.eps_pref)


def _classified(
    ctx: RepresentationContext, t: float, blocks
) -> tuple[dict, np.ndarray, np.ndarray]:
    """:func:`_classify` of the distinct samples of all ``blocks``, each
    classified once, with each one's probs mapped to its row."""
    at = {}
    for samples in blocks:
        for x in samples:
            at.setdefault(x.probs, len(at))
    return (at, *_classify(ctx, t, at))


def separate(
    ctx: RepresentationContext,
    t: float,
    polytope: Polytope,
    samples,
) -> tuple[AffineFunctional, SeparationCheck]:
    """A normalized affine functional separating the sampled contour sets,
    and its :func:`verify_separation` audit on the same samples.

    Samples strictly preferred to the chord point must reach value >= t,
    strictly dispreferred ones <= t, indifferent ones t within
    ``SEPARATION_BAND``; the functional is 1 at the best extreme and 0 at
    the worst.  Among feasible functionals the one with the smallest
    coefficient L1 norm is returned, ties going to the lexicographically
    least coefficients, which fixes the gauge left free by a
    lower-dimensional polytope and makes the output unique.  It is the
    exact optimum on any number of outcomes: it meets every row to the
    rounding of evaluating it (see :func:`~betweenu.simplex.linprog`).
    Existence can only fail if the sampled data admits no separating
    functional, which means the model violates betweenness or continuity
    on the samples; that raises :class:`Infeasible` with a
    :class:`FarkasCertificate`.

    Each distinct sample is classified against the chord point once, for
    the program and the audit alike: an oracle is asked about it once.
    The caller is responsible for ``samples`` lying in the polytope and
    arriving in a deterministic order.
    """
    t = _level(t)
    _require_extremes(ctx, polytope)
    samples = list(samples)
    classified = _classified(ctx, t, [samples])
    functional = _separators(ctx, t, [samples], classified)[0]
    at, rows, side = classified
    idx = [at[x.probs] for x in samples]
    return functional, _verified(ctx, t, functional, samples, rows[idx], side[idx])


def _with_rhs(rows: np.ndarray, rhs) -> np.ndarray:
    """Constraint rows over the coefficients with ``rhs`` as a last column,
    so negating a row flips its inequality."""
    return np.column_stack([rows, np.full(len(rows), rhs)])


def _inequalities(ctx: RepresentationContext, t: float, blocks, classified) -> list[np.ndarray]:
    """The inequality rows of each sample list's separation program at level
    ``t``, right-hand side last, from the :func:`_classified` samples."""
    at, rows, side = classified
    width = ctx.model.n_outcomes + 1
    # Half the published band: the L1 objective parks the solution on a
    # constraint boundary, and verification at the full band must not
    # flip on the rounding of that boundary value.  Each indifferent
    # sample gives two rows in turn, its upper and its lower band edge.
    half_band = 0.5 * SEPARATION_BAND
    ubs = []
    for samples in blocks:
        idx = [at[x.probs] for x in samples]
        block, block_side = rows[idx], side[idx]
        upper, lower, level_set = (block[block_side == s] for s in (1, -1, 0))
        edges = (_with_rhs(level_set, t + half_band), -_with_rhs(level_set, t - half_band))
        band = np.stack(edges, 1).reshape(-1, width)
        ubs.append(np.vstack([-_with_rhs(upper, t), _with_rhs(lower, t), band]))
    return ubs


def _separators(
    ctx: RepresentationContext, t: float, blocks, classified=None
) -> list[AffineFunctional]:
    """The functional of :func:`separate` at level ``t`` for each sample
    list in ``blocks``, whose samples ``classified`` holds if given.

    One :func:`~betweenu.simplex.linprog` call solves every program.  The
    first program in order that has none raises :class:`Infeasible` with
    its :class:`FarkasCertificate`, once the certificate's gap exceeds
    ``_FEASIBILITY_TOL``.  A program whose rows no functional meets, but
    one misses by no more (a near miss), gets the optimum of its rows
    relaxed by ``_FEASIBILITY_TOL`` instead.
    """
    ubs = _inequalities(ctx, t, blocks, classified or _classified(ctx, t, blocks))
    out = []
    for ub, (coeffs, ray) in zip(ubs, _solved(ctx, ubs, 0.0)):
        certificate = ray and _certificate(ctx, t, ub, *ray())
        if certificate and certificate.gap <= _FEASIBILITY_TOL:
            ((coeffs, ray),) = _solved(ctx, [ub], _FEASIBILITY_TOL)
            certificate = ray and _certificate(ctx, t, ub, *ray())
        if certificate:
            needs = " and ".join(
                f"sample {tuple(row['lottery'])} needs value {row['relation']} {row['bound']!r}"
                for row in certificate.rows
            )
            message = f"no affine functional separates the sampled contour sets at level {t!r}"
            raise Infeasible(f"{message} ({needs})", level=t, certificate=certificate)
        # The +0.0 maps any -0.0 to plain 0.0.
        out.append(AffineFunctional(tuple((coeffs + 0.0).tolist())))
    return out


def _solved(ctx: RepresentationContext, ubs, slack: float) -> list:
    """:func:`~betweenu.simplex.linprog` of the programs ``ubs``, each row's
    bound raised by ``slack``."""
    eq = _normalization(ctx)
    rows, rhs = [ub[:, :-1] for ub in ubs], [ub[:, -1] + slack for ub in ubs]
    return linprog(rows, rhs, eq[:, :-1], eq[:, -1])


def _normalization(ctx: RepresentationContext) -> np.ndarray:
    """The equality rows of every separation program: value 1 at the best
    extreme and 0 at the worst, right-hand side last."""
    return _with_rhs(np.asarray([ctx.best.probs, ctx.worst.probs], dtype=float), [1.0, 0.0])


def _certificate(ctx: RepresentationContext, t: float, ub: np.ndarray, y, z) -> FarkasCertificate:
    """The :class:`FarkasCertificate` of the program ``ub`` at level ``t``
    that weights its rows by ``y`` and its normalization equalities by
    ``z``, a ray of :func:`~betweenu.simplex.linprog`.

    With the program's rows ``A_ub c <= b_ub`` and ``A_eq c = b_eq``,
    ``residual`` is the largest coefficient of ``A_ub^T y + A_eq^T z`` in
    absolute value and ``gap`` is ``-(b_ub . y + b_eq . z)``.  The rows are
    listed ``>=`` bounds first, then ``<=`` bounds, each in the program's
    order.
    """
    a, b, eq = ub[:, :-1], ub[:, -1], _normalization(ctx)
    residual = float(np.max(np.abs(a.T @ y + eq[:, :-1].T @ z)))
    gap = -float(b @ y + eq[:, -1] @ z)
    # A row of _inequalities is a sample's lottery, negated for a ">="
    # bound, and the bound, negated alike; only a strictly ranked sample's
    # bound is t itself.
    rows = []
    for k in sorted(np.flatnonzero(y), key=lambda k: a[k].sum() > 0.0):
        sign = np.sign(a[k].sum())
        bound = float(sign * b[k])
        kind = ("lower" if sign > 0 else "upper") if bound == t else "indifferent"
        rows.append({"lottery": np.abs(a[k]).tolist(), "class": kind, "bound": bound,
                     "relation": "<=" if sign > 0 else ">=", "weight": float(y[k])})
    return FarkasCertificate(t, tuple(rows), (float(z[0]), float(z[1])), residual, gap)


def verify_separation(
    ctx: RepresentationContext,
    t: float,
    functional: AffineFunctional,
    samples,
) -> SeparationCheck:
    """Audit both directions of the separation property on the samples.

    Each sample's comparison against the chord point must match its
    functional value relative to ``t`` within ``SEPARATION_BAND``; since
    every sample falls in exactly one comparison class, checking all
    three classes covers both directions of the biconditional.  The
    functional's value at the chord point itself must equal ``t``, which
    is forced by affinity plus the normalization.
    """
    t = _level(t)
    samples = list(samples)
    return _verified(ctx, t, functional, samples, *_classify(ctx, t, [x.probs for x in samples]))


def _verified(
    ctx: RepresentationContext, t: float, functional: AffineFunctional, samples, rows, side
) -> SeparationCheck:
    """:func:`verify_separation` of ``samples``, given them as ``rows`` and
    each one's ``side`` of the chord point."""
    values = np.asarray([functional.value(x) for x in samples], dtype=float)
    bad = np.where(
        side == 1,
        values < t - SEPARATION_BAND,
        np.where(side == -1, values > t + SEPARATION_BAND, np.abs(values - t) > SEPARATION_BAND),
    )
    kinds = {1: "upper", -1: "lower", 0: "indifferent"}
    violations = [
        {"lottery": rows[i].tolist(), "class": kinds[side[i]],
         "functional_value": float(values[i]), "level": t}
        for i in np.flatnonzero(bad)
    ]
    violations.sort(key=lambda rec: (rec["lottery"], rec["class"]))
    chord_value = functional.value(chord_point(ctx, t))
    return SeparationCheck(
        level=t,
        passed=not violations and abs(chord_value - t) <= SEPARATION_BAND,
        n_upper=int(np.count_nonzero(side == 1)),
        n_lower=int(np.count_nonzero(side == -1)),
        n_indifferent=int(np.count_nonzero(side == 0)),
        chord_value=chord_value,
        violations=tuple(violations),
    )


def contour_samples(ctx: RepresentationContext, t: float, polytope: Polytope) -> list[Lottery]:
    """A deterministic sample set inside the polytope for level ``t``.

    Combines the polytope's vertices, points along the extremes' chord,
    the chord point itself, and for each vertex the point where its
    segment toward the opposite extreme crosses the contour of the chord
    point.  The crossing points pin the functional along the contour,
    which is what makes the separator's value at a vertex comparable to
    the engine's to high accuracy.  Points are deduplicated and sorted.
    """
    t = _level(t)
    _require_extremes(ctx, polytope)
    points = polytope.vertices
    return _sample_set(points, _crossings(ctx, t, points), _chords(ctx, t))


def _crossings(ctx: RepresentationContext, t: float, points) -> dict:
    """One mixing solve at level ``t``: each point's probs mapped to its
    weight, whether the worst extreme anchored it, and its crossing point."""
    weights, used_worst = solve_mixing_many(ctx, points, t)
    return {
        x.probs: (w, u, mix(w, x, ctx.worst if u else ctx.best))
        for x, w, u in zip(points, weights.tolist(), used_worst.tolist())
    }


def _chords(ctx: RepresentationContext, t: float) -> list[Lottery]:
    """The chord points every sample set at level ``t`` holds."""
    return [chord_point(ctx, s) for s in (*_CHORD_LEVELS, t)]


def _sample_set(points, crossings: dict, chords) -> list[Lottery]:
    """:func:`contour_samples` of ``points``, given their ``crossings``."""
    out = [*points, *chords, *(crossings[x.probs][2] for x in points)]
    unique = {x.probs: x for x in out}
    return sorted(unique.values())


def cross_polytope_consistency(
    ctx: RepresentationContext, x: Lottery, t: float, polytopes
) -> CrossPolytopeCheck:
    """A one-lottery :func:`cross_polytope_consistency_many`."""
    return cross_polytope_consistency_many(ctx, [x], t, [polytopes])[0]


def cross_polytope_consistency_many(
    ctx: RepresentationContext, xs, t: float, polytopes
) -> list[CrossPolytopeCheck]:
    """The separator value at each lottery of ``xs`` must not depend on the
    polytope: its own list of polytopes, the matching entry of ``polytopes``.

    Solves the separation program at level ``t`` inside every polytope
    (each must contain its lottery ``x`` and both extremes) on its
    :func:`contour_samples` with ``x`` added as a vertex, and passes ``x``
    when all resulting values at ``x`` and the engine's mixing-based value
    lie within :data:`CROSS_POLYTOPE_TOL` of one another.

    One mixing solve over the lotteries and all their polytopes' distinct
    vertices gives both the engine values, through
    :func:`~betweenu.engine._local_values` (bitwise
    :func:`~betweenu.engine.implicit_utility`), and every polytope's
    :func:`contour_samples`; all the separation programs are solved at
    once (see :func:`_separators`), and the first infeasible one raises
    :class:`Infeasible`.
    """
    t, tol = _level(t), CROSS_POLYTOPE_TOL
    queries = [(x, list(polys)) for x, polys in zip(xs, polytopes, strict=True)]
    for x, polys in queries:
        if not polys:
            raise ValueError("need at least one polytope")
        for polytope in polys:
            _require_extremes(ctx, polytope)
            if not polytope.contains(x):
                raise MembershipViolation(
                    f"lottery {x.probs} is outside one of the supplied polytopes"
                )
    points = {p.probs: p for x, polys in queries for q in polys for p in (x, *q.vertices)}
    crossings, chords = _crossings(ctx, t, list(points.values())), _chords(ctx, t)
    blocks = [
        _sample_set([*q.vertices, x], crossings, chords) for x, polys in queries for q in polys
    ]
    functionals = iter(_separators(ctx, t, blocks) if blocks else ())
    weights, used_worst = np.array([crossings[x.probs][:2] for x, _ in queries]).reshape(-1, 2).T
    engine_values = _local_values(t, weights, used_worst > 0.0).tolist()
    checks = []
    for (x, polys), engine_value in zip(queries, engine_values):
        values = tuple(next(functionals).value(x) for _ in polys)
        gap = max(engine_value, *values) - min(engine_value, *values)
        checks.append(CrossPolytopeCheck(x.probs, t, gap <= tol, engine_value, values, gap, tol))
    return checks
