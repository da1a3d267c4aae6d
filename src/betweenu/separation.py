"""Separating-functional verification of the local utility.

The construction identifies the local utility at a level ``t`` with an
affine functional separating the lotteries weakly preferred to the chord
point from those weakly dispreferred, normalized to 1 at the best
extreme and 0 at the worst.  This module finds such a functional on
sampled contour data by linear programming, checks the separation
property sample-by-sample, and confirms that the value assigned to a
lottery does not depend on which polytope the separation is carried out
in, matching the engine's mixing-based value.

Everything is sampled: contour sets are infinite, so feasibility and
separation are certified only on the lotteries actually provided, and
the reports say nothing stronger.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import RepresentationContext, chord_point, implicit_utility, solve_mixing_many
from .errors import Infeasible, MembershipViolation
from .models import classify
from .simplex import Lottery, Polytope, lottery_rows, mix

#: Half-width of the equality band used for samples indifferent to the
#: chord point, and for verifying separation; chosen above the solver's
#: feasibility tolerance and far below the verification tolerances.
SEPARATION_BAND = 1e-7

_CHORD_LEVELS = tuple(k / 10.0 for k in range(1, 10))


def linprog(*args, **kwargs):
    """:func:`scipy.optimize.linprog`, imported on the first call.

    ``scipy.optimize`` takes about half a second to import, so only
    :func:`separate` pays for it, not every command that imports this module.
    """
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


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

    def to_dict(self) -> dict:
        return {"coeffs": list(self.coeffs)}


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

    def to_dict(self) -> dict:
        return {
            "level": self.level,
            "passed": self.passed,
            "n_upper": self.n_upper,
            "n_lower": self.n_lower,
            "n_indifferent": self.n_indifferent,
            "chord_value": self.chord_value,
            "violations": list(self.violations),
        }


@dataclass(frozen=True)
class CrossPolytopeCheck:
    """Agreement of the separator value at one lottery across polytopes."""

    level: float
    passed: bool
    engine_value: float
    separator_values: tuple[float, ...]
    max_discrepancy: float
    tol: float

    def to_dict(self) -> dict:
        return {
            "level": self.level,
            "passed": self.passed,
            "engine_value": self.engine_value,
            "separator_values": list(self.separator_values),
            "max_discrepancy": self.max_discrepancy,
            "tol": self.tol,
        }


def _require_extremes(ctx: RepresentationContext, polytope: Polytope) -> None:
    probs = {v.probs for v in polytope.vertices}
    if ctx.best.probs not in probs or ctx.worst.probs not in probs:
        raise ValueError("polytope must list both preference extremes among its vertices")


def _classify(ctx: RepresentationContext, t: float, samples) -> tuple[list, list, list]:
    """The samples strictly preferred, strictly dispreferred and indifferent
    to the chord point at level ``t``."""
    samples = list(samples)
    model = ctx.model
    rows = lottery_rows([x.probs for x in samples], model.n_outcomes)
    target = model.keys(chord_point(ctx, t).as_array()[None, :])
    side = classify(model.gaps(model.keys(rows), target), model.eps_pref).tolist()
    return tuple([x for x, s in zip(samples, side) if s == want] for want in (1, -1, 0))


def separate(
    ctx: RepresentationContext,
    t: float,
    polytope: Polytope,
    samples,
) -> AffineFunctional:
    """A normalized affine functional separating the sampled contour sets.

    Samples strictly preferred to the chord point must reach value >= t,
    strictly dispreferred ones <= t, indifferent ones t within
    ``SEPARATION_BAND``; the functional is 1 at the best extreme and 0 at
    the worst.  Among feasible functionals the one with the smallest
    coefficient L1 norm is returned, which fixes the gauge left free by a
    lower-dimensional polytope and makes the output deterministic.
    Existence can only fail if the sampled data admits no separating
    functional, which means the model violates betweenness or continuity
    on the samples; that raises :class:`Infeasible`.

    The caller is responsible for ``samples`` lying in the polytope and
    arriving in a deterministic order.
    """
    t = float(t)
    if not 0.0 < t < 1.0:
        raise ValueError(f"separation level must lie in (0, 1), got {t!r}")
    _require_extremes(ctx, polytope)
    samples = list(samples)
    n = ctx.model.n_outcomes
    upper, lower, level_set = _classify(ctx, t, samples)

    # Variables: coeffs split into positive and negative parts, so the
    # L1 objective is linear and all variables are >= 0.
    def split_row(row: np.ndarray) -> np.ndarray:
        return np.concatenate([row, -row])

    a_eq = np.asarray([split_row(ctx.best.as_array()), split_row(ctx.worst.as_array())])
    b_eq = np.asarray([1.0, 0.0])
    rows_ub = []
    rhs_ub = []
    for x in upper:
        rows_ub.append(-split_row(x.as_array()))
        rhs_ub.append(-t)
    for x in lower:
        rows_ub.append(split_row(x.as_array()))
        rhs_ub.append(t)
    # Half the published band: the L1 objective parks the solution on a
    # constraint boundary, and verification at the full band must not
    # flip on the rounding of that boundary value.
    half_band = 0.5 * SEPARATION_BAND
    for x in level_set:
        rows_ub.append(split_row(x.as_array()))
        rhs_ub.append(t + half_band)
        rows_ub.append(-split_row(x.as_array()))
        rhs_ub.append(-(t - half_band))
    # The solver's feasibility tolerance must sit far below the band,
    # or constraint residuals eat the verification headroom.
    result = linprog(
        c=np.ones(2 * n),
        A_ub=np.asarray(rows_ub) if rows_ub else None,
        b_ub=np.asarray(rhs_ub) if rhs_ub else None,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=[(0.0, None)] * (2 * n),
        method="highs",
        options={
            "primal_feasibility_tolerance": 1e-10,
            "dual_feasibility_tolerance": 1e-10,
        },
    )
    if result.status != 0:
        raise Infeasible(
            f"no affine functional separates the sampled contour sets at level {t!r} "
            f"(solver status {result.status}: {result.message})"
        )
    coeffs = result.x[:n] - result.x[n:]
    # The solver meets the normalization equalities only to its own
    # feasibility tolerance; rescale so they hold exactly.
    at_best = float(np.dot(coeffs, ctx.best.as_array()))
    at_worst = float(np.dot(coeffs, ctx.worst.as_array()))
    span = at_best - at_worst
    if abs(span) < 1e-6:
        raise Infeasible(
            f"separating functional degenerated to a constant at level {t!r}"
        )
    # The +0.0 maps any -0.0 produced by the rescale to plain 0.0.
    coeffs = (coeffs - at_worst) / span + 0.0
    return AffineFunctional(tuple(float(c) for c in coeffs))


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
    t = float(t)
    if not 0.0 < t < 1.0:
        raise ValueError(f"separation level must lie in (0, 1), got {t!r}")
    upper, lower, level_set = _classify(ctx, t, samples)
    violations = []

    def record(x: Lottery, kind: str, fv: float) -> None:
        violations.append(
            {
                "lottery": list(x.probs),
                "class": kind,
                "functional_value": fv,
                "level": t,
            }
        )

    for x in upper:
        fv = functional.value(x)
        if fv < t - SEPARATION_BAND:
            record(x, "upper", fv)
    for x in lower:
        fv = functional.value(x)
        if fv > t + SEPARATION_BAND:
            record(x, "lower", fv)
    for x in level_set:
        fv = functional.value(x)
        if abs(fv - t) > SEPARATION_BAND:
            record(x, "indifferent", fv)
    chord_value = functional.value(chord_point(ctx, t))
    passed = not violations and abs(chord_value - t) <= SEPARATION_BAND
    violations.sort(key=lambda rec: (rec["lottery"], rec["class"]))
    return SeparationCheck(
        level=t,
        passed=passed,
        n_upper=len(upper),
        n_lower=len(lower),
        n_indifferent=len(level_set),
        chord_value=chord_value,
        violations=tuple(violations),
    )


def contour_samples(
    ctx: RepresentationContext,
    t: float,
    polytope: Polytope,
    include=(),
) -> list[Lottery]:
    """A deterministic sample set inside the polytope for level ``t``.

    Combines the polytope's vertices, points along the extremes' chord,
    the chord point itself, any extra lotteries in ``include``, and for
    each vertex and included lottery the point where its segment toward
    the opposite extreme crosses the contour of the chord point.  The
    crossing points pin the functional along the contour, which is what
    makes the separator's value at the included lotteries comparable to
    the engine's to high accuracy.  Points are deduplicated and sorted.
    """
    t = float(t)
    if not 0.0 < t < 1.0:
        raise ValueError(f"separation level must lie in (0, 1), got {t!r}")
    _require_extremes(ctx, polytope)
    points = list(polytope.vertices) + list(include)
    out = list(points)
    out.extend(chord_point(ctx, s) for s in _CHORD_LEVELS)
    out.append(chord_point(ctx, t))
    weights, used_worst = solve_mixing_many(ctx, points, t)
    for x, w, to_worst in zip(points, weights.tolist(), used_worst.tolist()):
        out.append(mix(w, x, ctx.worst if to_worst else ctx.best))
    unique = {x.probs: x for x in out}
    return sorted(unique.values())


def cross_polytope_consistency(
    ctx: RepresentationContext,
    x: Lottery,
    t: float,
    polytopes,
    tol: float = 1e-6,
) -> CrossPolytopeCheck:
    """The separator value at ``x`` must not depend on the polytope.

    Solves the separation program inside every polytope (each must
    contain ``x`` and both extremes) and compares all resulting values at
    ``x`` with one another and with the engine's mixing-based value
    :func:`~betweenu.engine.implicit_utility`.
    """
    t = float(t)
    if not 0.0 < t < 1.0:
        raise ValueError(f"separation level must lie in (0, 1), got {t!r}")
    polytopes = list(polytopes)
    if not polytopes:
        raise ValueError("need at least one polytope")
    for polytope in polytopes:
        _require_extremes(ctx, polytope)
        if not polytope.contains(x):
            raise MembershipViolation(
                f"lottery {x.probs} is outside one of the supplied polytopes"
            )
    engine_value = implicit_utility(ctx, x, t)
    separator_values = []
    for polytope in polytopes:
        samples = contour_samples(ctx, t, polytope, include=(x,))
        functional = separate(ctx, t, polytope, samples)
        separator_values.append(functional.value(x))
    spread = [engine_value, *separator_values]
    max_discrepancy = max(spread) - min(spread)
    return CrossPolytopeCheck(
        level=t,
        passed=max_discrepancy <= tol,
        engine_value=engine_value,
        separator_values=tuple(separator_values),
        max_discrepancy=max_discrepancy,
        tol=tol,
    )
