"""Constructive implicit mixture-linear representations.

Given a preference model satisfying the betweenness axioms, this module
builds a utility ``U`` on the simplex together with a two-argument
function ``u(x, t)`` that is mixture linear in ``x`` at every level
``t``, normalized to 1 at the best extreme and 0 at the worst, and whose
unique fixed point ``t = u(x, t)`` is exactly ``U(x)``.

Everything is driven by pairwise comparisons:

1. Find best and worst degenerate lotteries.  The chord between them is
   strictly increasing in preference, so chord levels act as a utility
   yardstick.
2. ``U(x)`` is the chord level indifferent to ``x``, found by a root
   search on the level (:func:`solve_utility_many`).
3. For an interior level ``t``, mix ``x`` toward the extreme on the
   opposite side of the chord point until the mixture is indifferent to
   it (:func:`solve_mixing_many`); inverting mixture linearity along that
   segment yields the local utility ``u(x, t)`` (:func:`_local_values`,
   :func:`implicit_utility_many`).
4. At the endpoint levels, ``u(x, 0)`` and ``u(x, 1)`` are indicators of
   the indifference classes of the worst and best extremes.
5. The fixed point ``t = u(x, t)`` is located without step 2, from the
   sign of the residual ``u(x, t) - t`` alone
   (:func:`utility_fixed_point_many`).

Every solver is written once, over arrays of lottery rows and the
model's comparison primitive (:meth:`~betweenu.models.PreferenceModel.keys`
and ``gaps``), and every root search, the triangle's scanlines included,
runs in one loop, :func:`_bisect`, which states its two step rules and
which searches take each.  Scalar calls are one-row batches, so scalar
and batched results are bitwise identical and independent of batch
composition, for oracles as for value models.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DegeneratePreference,
    IterationLimit,
    MultipleFixedPoints,
    NoCrossing,
    NonMonotoneChord,
)
from .models import PreferenceModel, ValueModel, classify
from .simplex import Lottery, degenerate, lottery_rows, mix, mix_rows

DEFAULT_TOL_T = 1e-10
DEFAULT_MAX_ITER = 200

#: Solved mixing weights at or below this floor are rejected as "no
#: crossing": at interior levels the opposite extreme lies strictly across
#: the chord point, which bounds the true crossing weight away from zero.
#: The extremes' closed-form weights are exact at every level.
MU_FLOOR = 1e-12

#: Halvings from 1 to the smallest power of two above :data:`MU_FLOOR`.
_FLOOR_STEPS = -math.floor(math.log2(MU_FLOOR)) - 1

_LIMIT_DELTA = 1e-4

#: Uniform levels, endpoints included, that :func:`utility_fixed_point_many`
#: scans per lottery.
_SCAN_LEVELS = 1000

#: Rows, one per lottery and interior scan level, that
#: :func:`utility_fixed_point_many` scans per batch of whole lotteries
#: (at least one).
_SCAN_ROWS = 4000

#: Rows of a context's ``_ends`` (and ``_end_keys``): the best extreme, then the worst.
_BEST, _WORST = 0, 1


def _local_values(ts, weights, used_worst):
    """Invert mixture linearity along the solved segments, over arrays.

    A weight ``w`` makes ``w*x + (1-w)*anchor`` indifferent to the chord
    point at level ``t``.  Mixture linearity of the local utility, with
    the anchor worth 0 (worst, where ``used_worst`` is True) or 1 (best),
    gives

        worst anchor:  t = w*v           so  v = t / w
        best anchor:   t = w*v + (1-w)   so  v = 1 - (1-t) / w

    Pure arithmetic on already-solved quantities.  The normalizations
    v(best) = 1 and v(worst) = 0 hold exactly: the chord solves give
    w = t (resp. w = 1-t) and the expressions collapse to t/t and
    1 - (1-t)/(1-t).
    """
    # Both branches are computed, so the best-anchor one divides by 1 where
    # it is unused: the best extreme's weight at a subnormal level overflows it.
    best_weights = np.where(used_worst, 1.0, weights)
    return np.where(used_worst, ts / weights, 1.0 - (1.0 - ts) / best_weights)


@dataclass(frozen=True, eq=False)
class RepresentationContext:
    """A model, its preference extremes, and the solver tolerances.

    ``best`` must be strictly preferred to ``worst``, and every lottery
    the context is applied to must lie weakly between them.  Instances
    are immutable and keep no cache: besides the fields they hold only
    the extremes as rows and their comparison keys, so a context can be
    shared across threads without changing any result.
    """

    model: PreferenceModel
    best: Lottery
    worst: Lottery
    tol_t: float = DEFAULT_TOL_T
    max_iter: int = DEFAULT_MAX_ITER

    def __post_init__(self):
        n = self.model.n_outcomes
        if self.best.n_outcomes != n or self.worst.n_outcomes != n:
            raise ValueError("extreme lotteries do not match the model's outcome count")
        if not (math.isfinite(self.tol_t) and 0.0 < self.tol_t < 1.0):
            raise ValueError(f"tol_t must lie in (0, 1), got {self.tol_t!r}")
        if isinstance(self.max_iter, bool) or not isinstance(self.max_iter, numbers.Integral):
            raise ValueError(f"max_iter must be an integer, got {self.max_iter!r}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter!r}")
        ends = np.asarray([self.best.probs, self.worst.probs], dtype=float)
        object.__setattr__(self, "_ends", ends)
        object.__setattr__(self, "_end_keys", self.model.keys(ends))
        if _sides(self, self._end_keys[[_BEST]], _WORST)[0] <= 0:
            raise DegeneratePreference(
                "the designated best element is not strictly preferred to the worst"
            )


def _sides(ctx: RepresentationContext, kx: np.ndarray, end: int) -> np.ndarray:
    """Each key's side of the extreme ``end`` (:data:`_BEST` or
    :data:`_WORST`): the :func:`~betweenu.models.classify` sign of its gap."""
    return classify(ctx.model.gaps(kx, ctx._end_keys[[end]]), ctx.model.eps_pref)


def _in_range(ctx: RepresentationContext, rows: np.ndarray, kx: np.ndarray):
    """Each row's gaps over the best and the worst extreme (rows
    :data:`_BEST` and :data:`_WORST`), from its key in ``kx``, and their
    :func:`~betweenu.models.classify` signs; raises :class:`NonMonotoneChord`
    naming the first row that is strictly preferred to the best or
    dispreferred to the worst."""
    gaps = np.stack([ctx.model.gaps(kx, ctx._end_keys[[end]]) for end in (_BEST, _WORST)])
    sides = classify(gaps, ctx.model.eps_pref)
    bad = np.flatnonzero((sides[_BEST] > 0) | (sides[_WORST] < 0))
    if bad.size:
        row = tuple(rows[bad[0]].tolist())
        raise NonMonotoneChord(
            f"lottery {row} falls outside the preference range of the extremes", row=row
        )
    return gaps, sides


def find_extremes(model: PreferenceModel) -> tuple[Lottery, Lottery]:
    """Best and worst degenerate lotteries under the model.

    Betweenness makes preference both quasiconcave and quasiconvex, so
    extremes over the whole simplex are attained at vertices; a linear
    scan over the vertices' keys finds them, the first of a tied group
    winning.  Raises :class:`DegeneratePreference` when every vertex is
    indifferent to every other.
    """
    n = model.n_outcomes
    keys = model.keys(np.eye(n))

    def side(i, j):
        """1 if vertex ``i`` is strictly preferred to ``j``, -1 if dispreferred, else 0."""
        return classify(model.gaps(keys[[i]], keys[[j]]), model.eps_pref)[0]

    best = worst = 0
    for i in range(1, n):
        best = i if side(i, best) > 0 else best
        worst = i if side(i, worst) < 0 else worst
    if side(best, worst) <= 0:
        raise DegeneratePreference("all simplex vertices are mutually indifferent")
    return degenerate(best, n), degenerate(worst, n)


def context_for(
    model: PreferenceModel,
    tol_t: float = DEFAULT_TOL_T,
    max_iter: int = DEFAULT_MAX_ITER,
) -> RepresentationContext:
    """Find the model's extremes and wrap everything in a context."""
    best, worst = find_extremes(model)
    return RepresentationContext(model, best, worst, tol_t, max_iter)


def chord_point(ctx: RepresentationContext, t: float) -> Lottery:
    """The yardstick lottery at level ``t``: ``t*best + (1-t)*worst``."""
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"chord level must lie in [0, 1], got {t!r}")
    return mix(t, ctx.best, ctx.worst)


def _interior_levels(ts) -> np.ndarray:
    """``ts`` as a float array, every level strictly inside (0, 1); raises
    ``ValueError`` naming the first that is not (NaN included)."""
    ts = np.asarray(ts, dtype=float)
    bad = ~((ts > 0.0) & (ts < 1.0))
    if bad.any():
        raise ValueError(f"levels must lie strictly inside (0, 1), got {float(ts[bad][0])!r}")
    return ts


def _as_levels(rows: np.ndarray, ts) -> np.ndarray:
    ts = np.asarray(ts, dtype=float)
    if ts.ndim == 0:
        ts = np.full(len(rows), float(ts))
    if ts.shape != (len(rows),):
        raise ValueError(f"expected {len(rows)} levels, got shape {ts.shape}")
    return ts


def _bisect(
    gap_at,
    per_row: tuple,
    lo,
    hi,
    tol: float,
    max_iter: int,
    what: str,
    floor: float = math.inf,
    ends=None,
    where=None,
):
    """One root search per row from the bracket ``[lo, hi]`` (a bound or one
    per row) until it is at most ``tol`` wide; returns the final brackets.

    ``per_row`` holds arrays with one entry per row, and ``gap_at(s,
    *per_row)`` gives the rows' gaps at parameters ``s``.  A positive gap
    raises the row's lower end, any other its upper end, and a zero gap
    closes the bracket at ``s``.  Every row takes at least one step.
    A row also finishes once its lower end exceeds ``floor``: lower ends
    only rise, so every later bracket would stay above it.  Finished rows
    leave every array, so each step evaluates only the rows still
    running.  The filtered arrays replace the old ones one at a time, so
    a caller that keeps no reference to the arrays it passes never holds
    a second copy of them.  A row still running after ``max_iter`` steps
    raises :class:`IterationLimit`, located by the keywords (``level``,
    ``row``) that ``where``, if given, returns for the first such row's
    index.

    Gaps steer, not the model's ``eps_pref`` band: the solvers grant the
    band only their endpoint and on-chord shortcuts.  Without ``ends``
    each step probes the bracket's midpoint, so the search steers on gap
    signs alone.  That is all an oracle's gaps (infinite or zero) hold,
    the plateau edges see only the residual's banded sign, the
    :data:`MU_FLOOR` scan only needs the verdict, and the triangle's
    scanlines keep their traced points, so all of them bisect.  A value
    model's level and mixing solves at full tolerance pass ``ends``, each
    row's real gaps at ``lo`` (positive) and ``hi`` (negative); each step
    then probes the Illinois false-position point, the secant root of the
    gaps at the bracket's ends, halving the gap of an end kept two steps
    running.  Two safeguards keep the contract above and bound the worst
    case: a probe stays at least ``tol / 4`` inside the bracket (Dekker's
    step), so the far end closes once the probes converge from one side;
    and a row whose bracket has not halved within its last three steps
    probes the midpoint, as does one whose probe is NaN.  A midpoint step
    thus follows any three steps that leave a bracket above half its
    width, so a row takes at most four times bisection's steps, and about
    a quarter of them on smooth rows.
    """
    k = len(per_row[0])
    per_row = list(per_row)
    lo, hi = np.full(k, lo, dtype=float), np.full(k, hi, dtype=float)
    # ``sel`` indexes the running rows and ``[a, b]`` holds their brackets.
    sel, a, b = np.arange(k), lo, hi
    if ends is not None:
        # The running rows' gaps at ``a`` and ``b``, the end each one's last
        # step moved (1 lower, -1 upper), and its widths before the last
        # three steps, step ``i``'s in ``fp[3 + i % 3]``.
        fp = [*(np.array(g, dtype=float) for g in ends), np.zeros(k), *np.full((3, k), np.inf)]
    for step in range(max_iter):
        if not sel.size:
            break
        s = 0.5 * (a + b)
        if ends is not None:
            ga, gb, moved = fp[:3]
            _false_position(s, a, b, ga, gb, fp[3 + step % 3], tol)
        g = gap_at(s, *per_row)
        up = g > 0.0
        if ends is not None:
            # Illinois: the end kept a second step running has its gap halved.
            np.multiply(gb, 0.5, out=gb, where=up & (moved > 0.0))
            np.multiply(ga, 0.5, out=ga, where=~up & (moved < 0.0))
            np.copyto(ga, g, where=up)
            np.copyto(gb, g, where=~up)
            fp[2] = np.where(up, 1.0, -1.0)
        a = np.where(g >= 0.0, s, a)
        b = np.where(up, b, s)
        done = (b - a <= tol) | (a > floor)
        if done.any():
            finished = sel[done]
            lo[finished], hi[finished] = a[done], b[done]
            keep = ~done
            sel, a, b = sel[keep], a[keep], b[keep]
            # Array by array, so each one's old copy goes before the next
            # is filtered.
            for arrays in (per_row, fp) if ends is not None else (per_row,):
                for i, x in enumerate(arrays):
                    arrays[i] = x[keep]
    if sel.size:
        message = f"{what} bisection missed tol {tol} within {max_iter} iterations"
        located = {} if where is None else where(sel[0])
        raise IterationLimit(message, what=what, iterations=max_iter, **located)
    return lo, hi


def _false_position(s, a, b, ga, gb, before, tol: float) -> None:
    """Move each midpoint ``s`` of a bracket ``[a, b]``, in place, to the
    false-position probe of the gaps ``ga`` and ``gb`` at its ends, kept
    ``tol / 4`` inside the bracket.  A midpoint stays where the bracket is
    wider than half of ``before``, its width three steps back, or where the
    probe is NaN; ``before`` then takes the bracket's width."""
    width = b - a
    probe = np.subtract(ga, gb)
    np.divide(ga, probe, out=probe)
    probe *= width
    probe += a
    np.clip(probe, a + 0.25 * tol, b - 0.25 * tol, out=probe)
    np.copyto(s, probe, where=(width <= 0.5 * before) & ~np.isnan(probe))
    np.copyto(before, width)


def solve_utility(ctx: RepresentationContext, x: Lottery) -> float:
    """A one-row :func:`solve_utility_many`."""
    return float(solve_utility_many(ctx, [x])[0])


def solve_utility_many(ctx: RepresentationContext, xs) -> np.ndarray:
    """The unique chord level indifferent to each of ``xs``, lottery rows
    or a Lottery list.

    The search on the level (:func:`_bisect`) exploits that the chord is
    strictly increasing in preference; a value model's gaps over the two
    extremes start its false-position steps.  Endpoint shortcut: within
    the model's indifference band of an extreme, that extreme's level is
    returned outright.
    """
    rows = lottery_rows(xs, ctx.model.n_outcomes)
    model = ctx.model
    kx = model.keys(rows)
    gaps, sides = _in_range(ctx, rows, kx)
    out = np.where(sides[_BEST] == 0, 1.0, 0.0)
    inner = np.flatnonzero((sides != 0).all(axis=0))

    # Gaps steer the brackets; the indifference band grants only the
    # endpoint shortcuts above, since banded exits would cap a value
    # model's accuracy at eps_pref, well short of tol_t.
    def gap_at(s, k_in):
        return model.gaps(k_in, _chord_keys(ctx, s))

    # The chord point is the worst extreme at level 0 and the best at 1.
    ends = gaps[::-1, inner] if isinstance(model, ValueModel) else None
    lo, hi = _bisect(
        gap_at, (kx[inner],), 0.0, 1.0, ctx.tol_t, ctx.max_iter, "level", ends=ends,
        where=lambda j: {"row": tuple(rows[inner[j]].tolist())},
    )
    out[inner] = 0.5 * (lo + hi)
    return out


def solve_mixing(ctx: RepresentationContext, x: Lottery, t: float) -> tuple[float, bool]:
    """A one-row :func:`solve_mixing_many`."""
    weights, used_worst = solve_mixing_many(ctx, [x], [t])
    return float(weights[0]), bool(used_worst[0])


def solve_mixing_many(ctx: RepresentationContext, xs, ts) -> tuple[np.ndarray, np.ndarray]:
    """Weights making mixtures of paired lotteries ``xs`` and the opposite
    extreme sit on the chord at levels ``ts``.

    At an interior level ``t``, pick the anchor extreme on the far side
    of the chord point from ``x`` (worst if ``x`` is weakly preferred to
    the chord point, best otherwise) and search the mixture weight
    (:func:`_bisect`) until ``w*x + (1-w)*anchor`` is indifferent to the
    chord point.  Returns ``(weights, used_worst)``, each ``w`` in (0, 1]
    and ``used_worst`` True where the worst extreme is the anchor;
    ``w = 1`` exactly when ``x`` itself is indifferent to the chord point.
    The extremes themselves skip the search: mixing an extreme with the
    other extreme lands on the chord, so the weight is ``t`` (for the best
    lottery) or ``1 - t`` (for the worst) in closed form.
    """
    rows = lottery_rows(xs, ctx.model.n_outcomes)
    ts = _interior_levels(_as_levels(rows, ts))
    weights, signs = _solve_mixing_rows(ctx, rows, ts, ctx.model.keys(rows), _chord_keys(ctx, ts))
    return weights, signs >= 0.0


def _chord_keys(ctx: RepresentationContext, ts) -> np.ndarray:
    """Comparison keys of the chord points at levels ``ts``."""
    return ctx.model.keys(mix_rows(ts, ctx._ends[_BEST], ctx._ends[_WORST]))


def _solve_mixing_rows(
    ctx: RepresentationContext,
    rows: np.ndarray,
    ts: np.ndarray,
    kx: np.ndarray,
    k_chord: np.ndarray,
    k_floor: np.ndarray | None = None,
    across: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray | None, np.ndarray]:
    """Mixing solves of paired rows and interior levels, given the rows'
    keys ``kx`` and the keys ``k_chord`` of their chord points.

    Returns ``(weights, signs)``.  ``signs`` holds the sign of the
    residual ``u(x, t) - t``, read off the comparison of ``x`` with its
    chord point alone: 0 on the chord, where ``w = 1`` and ``u = t``; +1
    above it, where ``u = t / w > t``; -1 below it, where
    ``u = 1 - (1-t) / w < t``.  The worst extreme is the anchor exactly
    where ``signs >= 0``.  A bisected weight is a bracket midpoint, so it
    lies strictly inside (0, 1).  The best extreme counts as above the
    chord and the worst as below, as their closed forms give.

    Given ``k_floor``, the call settles only the :data:`MU_FLOOR` verdict
    and returns ``None`` for the weights, while ``signs`` and the verdict
    stay exact.  ``k_floor`` holds each row's keys of its floor probes
    ``0.5 ** _FLOOR_STEPS * x + (1 - 0.5 ** _FLOOR_STEPS) * anchor``
    toward the best (column 0) and the worst extreme (column 1), from
    :func:`_floor_keys`: the probe depends on the lottery and the anchor
    alone, so a caller solving one lottery at many levels keys it once.
    A row whose gap is >= 0 at the probe weight, which its bisection
    passes while its gaps are negative, clears the floor by then, so only
    rows failing the probe bisect (all rows, if ``max_iter`` is too short
    to get there), and a call whose rows all clear it returns at once.

    ``across``, if given, is ``(table, col)``: ``table`` holds the best
    (row 0) and worst (row 1) extremes' gaps over chord points, NaN until
    a row needs them, and ``col[i]`` is the column of row ``i``'s chord
    point.  The gaps depend only on the level, so calls and rows sharing
    the table compare each pair of an extreme and a level once.
    """
    model = ctx.model
    to_chord = model.gaps(kx, k_chord)
    side = classify(to_chord, model.eps_pref)
    # The extremes solve in closed form: their mixture with the opposite
    # extreme is the chord point at the mixing weight itself.
    is_best = (rows == ctx._ends[_BEST]).all(axis=1)
    is_worst = (rows == ctx._ends[_WORST]).all(axis=1)
    signs = np.where(is_best, 1.0, np.where(is_worst, -1.0, side))
    inner = np.flatnonzero(~((side == 0) | is_best | is_worst))
    up = side[inner] > 0
    anchor = np.where(up, _WORST, _BEST)
    # A positive steered gap puts a point on the anchor's side of the
    # chord point, where the crossing lies at a larger weight.
    steer = np.where(up, -1.0, 1.0)
    k_target = k_chord[inner]
    # The steered gaps at weight 0, the anchor itself.
    if across is None:
        start = steer * model.gaps(ctx._end_keys[anchor], k_target)
    else:
        table, col = across
        cell = (anchor, col[inner])
        # One row per (extreme, level) pair still missing; rows sharing a
        # level share its chord key, so any of them will do.
        need = np.full(table.shape, -1)
        need[cell] = np.arange(len(inner))
        fresh = np.nonzero((need >= 0) & np.isnan(table))
        table[fresh] = model.gaps(ctx._end_keys[fresh[0]], k_target[need[fresh]])
        start = steer * table[cell]
    blocked = np.flatnonzero(start <= 0.0)
    if blocked.size:
        j = inner[blocked[0]]
        raise NoCrossing(
            f"at level {float(ts[j])!r} the opposite extreme does not sit "
            f"strictly across the chord point; the model violates chord monotonicity",
            level=float(ts[j]),
            row=tuple(rows[j].tolist()),
        )

    def gap_at(lam, x_rows, anchor_rows, steer, k_target):
        return steer * model.gaps(model.keys(mix_rows(lam, x_rows, anchor_rows)), k_target)

    floor, ends = math.inf, None
    if k_floor is not None:
        floor = MU_FLOOR
        if ctx.max_iter >= _FLOOR_STEPS:
            failed = np.flatnonzero(steer * model.gaps(k_floor[inner, anchor], k_target) < 0.0)
            if not failed.size:
                return None, signs
            inner, anchor, steer = inner[failed], anchor[failed], steer[failed]
            k_target = k_target[failed]
    elif isinstance(model, ValueModel):
        # A value model's full solve starts its false-position steps from
        # the steered gaps at weight 0 and at weight 1, x itself.
        ends = (start, steer * to_chord[inner])
    # The lottery and anchor rows live only in the bisection's own arrays.
    lo, hi = _bisect(
        gap_at, (rows[inner], ctx._ends[anchor], steer, k_target), 0.0, 1.0, ctx.tol_t,
        ctx.max_iter, "mixing", floor, ends,
        lambda j: {"level": float(ts[inner[j]]), "row": tuple(rows[inner[j]].tolist())},
    )
    solved = 0.5 * (lo + hi)
    collapsed = inner[solved <= MU_FLOOR]
    if collapsed.size:
        j = collapsed[0]
        raise NoCrossing(
            "mixing weight collapsed to zero; no interior crossing exists",
            level=float(ts[j]),
            row=tuple(rows[j].tolist()),
        )
    if k_floor is not None:
        return None, signs
    weights = np.where(is_best, ts, np.where(is_worst, 1.0 - ts, 1.0))
    weights[inner] = solved
    return weights, signs


def _floor_keys(ctx: RepresentationContext, rows: np.ndarray) -> np.ndarray:
    """Keys of each row's :data:`MU_FLOOR` probes, its mixtures at weight
    ``0.5 ** _FLOOR_STEPS`` with the best (column 0) and the worst extreme
    (column 1), in one batch: see :func:`_solve_mixing_rows`."""
    probes = mix_rows(0.5**_FLOOR_STEPS, rows[:, None, :], ctx._ends[None, :, :])
    return ctx.model.keys(probes.reshape(-1, ctx.model.n_outcomes)).reshape(len(rows), 2)


def implicit_utility(ctx: RepresentationContext, x: Lottery, t: float) -> float:
    """A one-row :func:`implicit_utility_many`."""
    return float(implicit_utility_many(ctx, [x], [t])[0])


def implicit_utility_many(ctx: RepresentationContext, xs, ts) -> np.ndarray:
    """``u(x, t)`` of paired lotteries ``xs`` and levels ``ts``: local
    utility inside (0, 1), class indicators at the ends.

    At ``t = 0`` the value is 0 for lotteries indifferent to the worst
    extreme and 1 otherwise; at ``t = 1`` it is 1 for lotteries
    indifferent to the best extreme and 0 otherwise.  Indifference is
    judged by the model's own band.
    """
    rows = lottery_rows(xs, ctx.model.n_outcomes)
    ts = _as_levels(rows, ts)
    if not ((ts >= 0.0) & (ts <= 1.0)).all():
        raise ValueError("levels must lie in [0, 1]")
    kx = ctx.model.keys(rows)
    out = np.empty(len(rows))
    at0 = ts == 0.0
    at1 = ts == 1.0
    out[at0] = _sides(ctx, kx[at0], _WORST) != 0
    out[at1] = _sides(ctx, kx[at1], _BEST) == 0
    inner = ~(at0 | at1)
    if inner.any():
        t_in = ts[inner]
        weights, signs = _solve_mixing_rows(
            ctx, rows[inner], t_in, kx[inner], _chord_keys(ctx, t_in)
        )
        out[inner] = _local_values(t_in, weights, signs >= 0.0)
    return out


def utility_fixed_point(ctx: RepresentationContext, x: Lottery) -> float:
    """A one-row :func:`utility_fixed_point_many`."""
    return float(utility_fixed_point_many(ctx, [x])[0])


def utility_fixed_point_many(ctx: RepresentationContext, xs) -> np.ndarray:
    """The level solving ``t = u(x, t)`` for each of ``xs``, lottery rows or
    a Lottery list, located without :func:`solve_utility_many`.

    A lottery outside the extremes' range raises
    :class:`NonMonotoneChord`, as in :func:`solve_utility_many`.  Scans
    1000 uniform levels (endpoints included) per lottery, verifies the
    residual ``u(x, t) - t`` crosses zero once, then bisects the
    bracketing cell down to the context tolerance.  The endpoint
    indicators force the residual to start >= 0 and end <= 0, so it
    crosses once exactly when its signs never rise: positive ones, at
    most one run of zeros, then negative ones.  A genuine second fixed
    point shows up on the scan as a rise and raises
    :class:`MultipleFixedPoints`, whose ``row`` holds the first offending
    lottery in input order.  A zero run that touches an end of the scan
    gives that end's level, as the endpoint shortcut of
    :func:`solve_utility_many` does.

    The search needs only the residual's sign, and at an interior level
    that is the side of the chord point that ``x`` lies on (the ``signs``
    of :func:`_solve_mixing_rows`).  So every level, on the scan and at
    the plateau edges alike, costs one comparison in place of a full
    mixing solve (:func:`_residual_signs`).
    The checks those solves made stay: a level whose opposite extreme does
    not sit strictly across the chord point raises :class:`NoCrossing`,
    and so does one whose weight collapses to :data:`MU_FLOOR` at the
    evaluation tolerance, two digits tighter than ``tol_t`` (at least
    1e-12), which decides when a weight counts as collapsed; a
    ``max_iter`` too small to clear the floor raises
    :class:`IterationLimit`.  Each lottery's two floor probes, its
    mixtures toward the best and the worst extreme, are keyed once per
    call and serve every level, on the scan and at the plateau edges; a
    level whose row clears its probe needs no bisection.  One table of the
    extremes' gaps over the scan levels serves the whole call, each pair
    of an extreme and a level compared once (:func:`_solve_mixing_rows`).

    The scan takes whole lotteries in batches of about :data:`_SCAN_ROWS`
    rows, one per lottery and level, which bounds its working set.  A
    batch that raises is scanned again one lottery at a time, so the
    error, whichever of the checks above raised it, names the first
    failing lottery in input order.

    Value ties within ``eps_pref`` count as on-chord, which makes the
    residual exactly zero on a short plateau around the fixed point (a
    run of scan levels, where the band is coarse against the scan).  A
    single bisection would stop anywhere on that plateau, so the search
    brackets both plateau edges of every lottery, in one batched
    bisection, and returns their midpoint; an edge still wider than
    ``tol_t`` after ``max_iter`` steps raises :class:`IterationLimit`.
    """
    rows = lottery_rows(xs, ctx.model.n_outcomes)
    model, m = ctx.model, _SCAN_LEVELS - 2
    eval_ctx = replace(ctx, tol_t=min(ctx.tol_t, max(0.01 * ctx.tol_t, 1e-12)))
    ts = np.linspace(0.0, 1.0, _SCAN_LEVELS)
    kx = model.keys(rows)
    _, sides = _in_range(ctx, rows, kx)
    k_floor = _floor_keys(eval_ctx, rows)
    # The endpoint signs follow the indicators of implicit_utility.
    first = np.where(sides[_WORST] == 0, 0.0, 1.0)
    last = np.where(sides[_BEST] == 0, 0.0, -1.0)
    # A full batch's levels, chord keys and columns of the extremes' gap
    # table, lottery by lottery; a shorter batch takes their head.
    per_batch = max(1, _SCAN_ROWS // m)
    levels = np.tile(ts[1:-1], per_batch)
    k_chord = np.tile(_chord_keys(eval_ctx, ts[1:-1]), per_batch)
    cols = np.tile(np.arange(m), per_batch)
    table = np.full((2, m), np.nan)

    def scan(lots):
        """The residual signs of lotteries ``lots`` at every scan level,
        one row per lottery; raises :class:`MultipleFixedPoints` naming the
        first whose signs rise."""
        r = len(lots) * m
        inner = _residual_signs(
            eval_ctx, np.repeat(rows[lots], m, axis=0), levels[:r], np.repeat(kx[lots], m),
            k_chord[:r], np.repeat(k_floor[lots], m, axis=0), (table, cols[:r]),
        )
        sign = np.concatenate((first[lots, None], inner.reshape(-1, m), last[lots, None]), axis=1)
        rising = np.flatnonzero((np.diff(sign, axis=1) > 0.0).any(axis=1))
        if rising.size:
            probs = tuple(rows[lots[rising[0]]].tolist())
            raise MultipleFixedPoints(
                f"the residual u(x, t) - t crosses zero more than once for "
                f"Lottery(probs={probs!r})",
                row=probs,
            )
        return sign

    positive, zeros = np.empty(len(rows), dtype=int), np.empty(len(rows), dtype=int)
    for start in range(0, len(rows), per_batch):
        lots = np.arange(start, min(start + per_batch, len(rows)))
        try:
            sign = scan(lots)
        except Exception:
            for j in range(len(lots)):
                scan(lots[j : j + 1])
            raise
        positive[lots] = np.count_nonzero(sign > 0.0, axis=1)
        zeros[lots] = np.count_nonzero(sign == 0.0, axis=1)
    spans = positive + zeros == _SCAN_LEVELS
    # Best first, as solve_utility's shortcut, should a run span the scan.
    out = np.where(spans, 1.0, 0.0)
    # Lotteries whose fixed point lies strictly inside a scan cell, from
    # the last positive residual to the first negative one.
    inside = np.flatnonzero((zeros == 0) | ((positive > 0) & ~spans))
    cell_lo, cell_hi = ts[positive[inside] - 1], ts[(positive + zeros)[inside]]

    # Each lottery contributes two rows: the lower plateau edge (even
    # rows, which move up on a positive residual) and the upper one (odd
    # rows, which also move up on a zero residual, through ``tie``).
    def gap_at(mid, edge_rows, k_edge, k_edge_floor, tie):
        g = _residual_signs(
            eval_ctx, edge_rows, mid, k_edge, _chord_keys(eval_ctx, mid), k_edge_floor
        )
        return np.where(g == 0.0, tie, g)

    edges = np.repeat(inside, 2)
    lo, hi = _bisect(
        gap_at, (rows[edges], kx[edges], k_floor[edges], np.tile([-1.0, 1.0], len(inside))),
        np.repeat(cell_lo, 2), np.repeat(cell_hi, 2), ctx.tol_t, ctx.max_iter, "plateau edge",
        where=lambda j: {"row": tuple(rows[edges[j]].tolist())},
    )
    out[inside] = 0.25 * (lo[0::2] + hi[0::2] + lo[1::2] + hi[1::2])
    return out


def _residual_signs(
    ctx: RepresentationContext, rows, ts, kx, k_chord, k_floor, across=None
) -> np.ndarray:
    """Signs of ``u(x, t) - t`` for paired rows and interior levels: the
    ``signs`` of :func:`_solve_mixing_rows` with only its :data:`MU_FLOOR`
    verdict settled, from the rows' floor-probe keys ``k_floor``, so its
    checks still raise."""
    return _solve_mixing_rows(ctx, rows, ts, kx, k_chord, k_floor, across)[1]


def one_sided_limits(ctx: RepresentationContext, x: Lottery) -> dict:
    """Report ``u(x, t)`` at 1e-4 inside the endpoint levels, next to the
    endpoint indicator values.

    The endpoints are pinned to indicators of the extreme indifference
    classes; nothing in the construction forces the interior values to
    approach them, so both sides are reported without asserting equality.
    """
    return _one_sided_limits_many(ctx, [x])[0]


def _one_sided_limits_many(ctx: RepresentationContext, xs) -> list[dict]:
    """:func:`one_sided_limits` of each of ``xs`` from one
    :func:`implicit_utility_many` call, bit for bit as one call each."""
    rows = lottery_rows(xs, ctx.model.n_outcomes)
    levels = np.tile([0.0, _LIMIT_DELTA, 1.0 - _LIMIT_DELTA, 1.0], len(rows))
    values = implicit_utility_many(ctx, np.repeat(rows, 4, axis=0), levels)
    names = ("at_zero", "near_zero", "near_one", "at_one")
    return [dict(zip(names, four)) for four in values.reshape(-1, 4).tolist()]
