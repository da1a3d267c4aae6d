"""Lotteries over a finite outcome set and the convex structure around them.

Everything here is immutable and purely functional: lotteries are tuples of
doubles summing to one, and all constructors validate their inputs up front.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import combinations

import numpy as np

from .errors import IterationLimit

#: Maximum tolerated drift of a probability vector's sum away from one.
SUM_TOL = 1e-12

#: Largest-component distance within which :meth:`Polytope.contains`
#: counts a point as inside the hull, the default primal feasibility
#: tolerance of LP solvers such as HiGHS.
HULL_TOL = 1e-7


#: The lexicographic ratio test counts ratios within this relative amount
#: of the least as tied, so rounding does not choose among exact ties, and
#: pivots only on basis coefficients above this share of the largest.
_TIE_TOL = 1e-12


def _eliminate(a: np.ndarray) -> np.ndarray:
    """Gauss-Jordan elimination with partial pivoting, in place, of each
    matrix of the stack ``a``, which leaves its leading square block
    diagonal; returns the sign of each one's row permutation.  It divides
    by the pivot, never by its reciprocal, so where every other row is a
    unit row the last row gives ``x = (r - sum of the fixed terms) / a``
    bit for bit."""
    (k, n), sign = a.shape[:2], np.ones(len(a))
    for col in range(n):
        piv = col + np.abs(a[:, col:, col]).argmax(axis=1)
        if (piv != col).any():
            sign[piv != col] *= -1.0
            swap = np.stack([np.full(k, col), piv], axis=1)
            a[np.arange(k)[:, None], swap] = a[np.arange(k)[:, None], swap[:, ::-1]]
        f = a[:, :, col] / a[:, col, col, None]
        f[:, col] = 0.0
        a -= f[..., None] * a[:, col, None]
    return sign


def _solve(m: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``m @ x = b`` for each of the stacked square systems, by
    :func:`_eliminate`."""
    a = np.concatenate([m, b[..., None]], axis=2)
    _eliminate(a)
    return a[..., -1] / np.diagonal(a, axis1=1, axis2=2)


def _leaving(inv, rows, member, sign, bound, top: int) -> tuple[np.ndarray, np.ndarray]:
    """The lexicographic ratio test of the dual simplex step of
    :func:`linprog` that brings ``rows`` (as ``<=`` rows) into the bases
    ``member``, whose inverses are ``inv``.

    Returns the basis position that leaves, -1 where none can (the row then
    proves its program infeasible) and n where the row is the ``bound`` of a
    coefficient whose other bound leaves; and for each ``c_i = 0``
    position, the side of ``c_i`` that leaves (+1: ``c_i <= 0`` stays)."""
    (r, n), tinv = member.shape, np.swapaxes(inv, 1, 2)
    # The entering row in terms of the basis rows: a row or bound leaves only
    # where its coefficient is positive.
    zero, eye, dual = member < n, np.eye(n), (tinv @ rows[..., None])[..., 0]
    side = np.where(zero, np.sign(dual), 1.0)
    u = np.concatenate([side * dual, bound[:, None] * 1.0], axis=1)
    can = np.concatenate([zero | (member >= top), bound[:, None]], axis=1)
    can &= u > _TIE_TOL * np.abs(u).max(axis=1)[:, None]
    if (can.sum(axis=1) > 1).any():
        # The costs (the L1 norm's sign[i], then e_i, on each coefficient
        # not held at 0) in terms of the basis rows, then those of the bounds.
        held = (member[:, :, None] == np.arange(n)).any(axis=1)
        costs = np.concatenate([-sign[..., None], np.broadcast_to(-eye, (r, n, n))], axis=2)
        lam = np.zeros((r, n + 1, n + 1))
        lam[:, :n] = side[..., None] * (tinv @ (costs * ~held[..., None]))
        lam[:, :n, 0] += zero
        lam[:, :n, 1:] -= (zero * side)[..., None] * eye[np.minimum(member, n - 1)]
        lam[:, n, 0] = 2.0
        for col in range(n + 1):
            ratio = np.where(can, lam[..., col] / np.where(can, u, 1.0), np.inf)
            low = ratio.min(axis=1)[:, None]
            can &= ratio <= low + _TIE_TOL * (1.0 + np.abs(low))
    return np.where(can.any(axis=1), can.argmax(axis=1), -1), side


@lru_cache(maxsize=16)
def _start(n: int, eq: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The basis, signs and solution of :func:`linprog` once the equalities
    ``eq`` (rows of n coefficients and a right-hand side) entered, starting
    from ``c = 0`` with every coefficient held at 0.  They depend on the
    equalities alone, so they are computed once for each; callers copy
    them before changing them.  An equality takes the place of a ``c_i =
    0`` row, at position ``i``."""
    eq = np.frombuffer(eq).reshape(-1, n + 1)
    normal, h = np.vstack([np.eye(n), eq[:, :n]]), np.concatenate([np.zeros(n), eq[:, n]])
    basis, sign = np.arange(n)[None], np.zeros((1, n))
    for e in range(n, len(h)):
        inv = np.linalg.inv(normal[basis])
        turn = -1.0 if normal[e] @ (inv @ h[basis, None])[0, :, 0] < h[e] else 1.0
        (pos,), side = _leaving(inv, turn * normal[e, None], basis, sign, np.zeros(1, bool), len(h))
        sign[0, pos], basis[0, pos] = -side[0, pos], e
    return basis[0], sign[0], _solve(normal[basis], h[basis])[0]


def _farkas(normal, top, rows, eq_rows, fixed, basis, enter) -> tuple[np.ndarray, np.ndarray]:
    """The Farkas ray ``(y, z)`` of :func:`linprog` on a program whose
    constraint ``enter`` no constraint of ``basis`` could make room for;
    ``normal`` holds the program's constraints, its ``rows`` from ``top``
    on.  By Cramer's rule the entering row is ``sum_r w_r * row_r`` over
    the basis rows, ``w_r`` the determinant of the basis with row ``r``
    replaced by it over that of the basis.  ``y`` weights the entering
    row by 1 and each basis row by ``-w_r``, both scaled by the basis's
    absolute determinant, so with one free coefficient the weights of rows
    ``i`` and ``j`` are exactly ``a_j`` and ``-a_i``; ``z`` then cancels
    the coefficients the equalities fix."""
    own = np.flatnonzero(basis >= top)
    mats = np.repeat(normal[basis][None], 1 + len(own), axis=0)
    mats[np.arange(1, 1 + len(own)), own] = normal[enter]
    with np.errstate(divide="ignore", invalid="ignore"):  # 0 / 0 only where det is 0
        det = np.nan_to_num(_eliminate(mats) * np.diagonal(mats, axis1=1, axis2=2).prod(axis=1))
    y = np.zeros(len(rows))
    y[np.r_[enter, basis[own]] - top] = np.maximum(np.sign(det[0]) * np.r_[det[0], -det[1:]], 0.0)
    y /= y.sum()
    return y, np.linalg.solve(eq_rows[:, fixed].T, -(rows.T @ y)[fixed])


def linprog(rows, rhs, eq_rows: np.ndarray, eq_rhs: np.ndarray) -> list:
    """The least-L1-norm solution of each program ``rows[j] @ c <= rhs[j]``,
    ``eq_rows @ c == eq_rhs``, or a Farkas ray proving it has none.

    Among the feasible ``c`` of least ``sum(|c_i|)`` the lexicographically
    least is returned, so the solution is unique.  Returns per program
    ``(c, None)``, or ``(None, ray)`` where ``ray()`` gives weights ``y >=
    0`` on ``rows[j]``, summing to 1, and ``z`` on the equalities, such that
    ``rows[j].T @ y + eq_rows.T @ z`` vanishes and ``rhs[j] @ y + eq_rhs @
    z`` is negative.  ``y`` weights at most ``len(c) - len(eq_rows) + 1``
    rows (Helly), by cofactors of the rows it weights.

    A lexicographic dual simplex solves all programs in lockstep.  It
    starts from ``c = 0``, dual feasible as the costs (the L1 norm, then
    ``c_0``, ``c_1``, ...) are nonnegative, enters the equalities, then the
    missed row with the largest miss per unit L1 norm on the coefficients
    the equalities leave free (rows with none first).  A row counts as
    missed once its miss exceeds the rounding of evaluating it, so the
    solution meets every row to that rounding, with no other tolerance; it
    is solved from the rows it makes active by :func:`_solve`.  The first
    missed row that no basis row can make room for yields the ray.
    """
    k, (q, n) = len(rows), np.shape(eq_rows)
    top, sizes = n + q, np.array([len(a) for a in rows], dtype=int)
    # Constraint ids: c_i = 0 for each i, the equalities, then each
    # program's rows, padded by 0 <= 1.  A basis holds n of them; c_i = 0
    # stands for both bounds of c_i, and where it is absent sign[:, i] says
    # which of them, c_i >= 0 (+1) or c_i <= 0 (-1), is active.
    filled = np.arange(max(sizes, default=0)) < sizes[:, None]
    normal, h = np.zeros((k, top + filled.shape[1], n)), np.ones((k, top + filled.shape[1]))
    normal[:, :n], h[:, :n], normal[:, n:top], h[:, n:top] = np.eye(n), 0.0, eq_rows, eq_rhs
    normal[:, top:][filled] = np.concatenate([np.zeros((0, n)), *rows])
    h[:, top:][filled] = np.concatenate([np.zeros(0), *rhs])
    start, signs, c = _start(n, np.column_stack([eq_rows, eq_rhs]).tobytes())
    fixed = start >= n
    basis, sign, c = np.tile(start, (k, 1)), np.tile(signs, (k, 1)), np.tile(c, (k, 1))
    rounding = (n + 2) * np.finfo(float).eps
    scale, slack = rounding * np.abs(normal).sum(axis=2), rounding * np.abs(h)
    norm = np.maximum(np.abs(normal) @ ~fixed, 2.0 ** -1000)  # rows with no free coefficient first
    # The constraints that may enter: each c_i = 0 not in the basis (for
    # its bound on the wrong side of 0) and each program's own rows.
    free = np.concatenate([np.tile(fixed, (k, 1)), np.zeros((k, q), bool), filled], axis=1)
    rays, limit = {}, 4 * h.shape[1] + 8
    for _ in range(limit):
        miss = (normal @ c[..., None])[..., 0] - h
        miss[:, :n] *= -sign
        want = (miss > scale * np.abs(c).max(axis=1)[:, None] + slack) & free
        run = np.flatnonzero(want.any(axis=1))
        if not len(run):
            break
        enter = np.where(want[run], miss[run] / norm[run], -np.inf).argmax(axis=1)
        turn = np.where(enter < n, -sign[run, np.minimum(enter, n - 1)], 1.0)[:, None]
        inv = np.linalg.inv(normal[run[:, None], basis[run]])
        pos, side = _leaving(inv, turn * normal[run, enter], basis[run], sign[run], enter < n, top)
        for j, e in zip(run[pos < 0], enter[pos < 0]):
            rays[j] = partial(_farkas, normal[j], top, rows[j], eq_rows, fixed, basis[j].copy(), e)
        free[run[pos < 0]] = False
        # A coefficient past 0 whose other bound leaves changes side.
        sign[run[pos == n], enter[pos == n]] *= -1.0
        step = (pos >= 0) & (pos < n)
        go, pos, enter, side = run[step], pos[step], enter[step], side[step]
        out = basis[go, pos]
        sign[go[out < n], out[out < n]] = -side[out < n, pos[out < n]]
        free[go, out], free[go, enter], basis[go, pos] = True, False, enter
        if len(go):
            c[go] = _solve(normal[go[:, None], basis[go]], h[go[:, None], basis[go]])
    else:
        raise IterationLimit("the simplex did not terminate", what="simplex", iterations=limit)
    return [(None, rays[j]) if j in rays else (c[j], None) for j in range(k)]


@dataclass(frozen=True, order=True)
class Lottery:
    """A probability distribution over finitely many outcomes.

    Components must be nonnegative and sum to one within ``SUM_TOL``.
    Instances are hashable and ordered lexicographically by components,
    which gives every enumeration in the package a canonical order.
    """

    probs: tuple[float, ...]

    def __post_init__(self):
        if not self.probs:
            raise ValueError("lottery needs at least one outcome")
        if any((not math.isfinite(p)) or p < 0.0 for p in self.probs):
            raise ValueError(f"lottery components must be finite and >= 0, got {self.probs}")
        total = math.fsum(self.probs)
        if abs(total - 1.0) > SUM_TOL:
            raise ValueError(f"lottery components must sum to 1 within {SUM_TOL}, got {total!r}")

    @classmethod
    def _trusted(cls, probs: tuple[float, ...]) -> "Lottery":
        """A lottery over ``probs`` built without validation.

        Only for rows known to be lotteries: checked by :func:`lottery_rows`
        or mixed by :func:`mix_rows` from such rows.
        """
        obj = object.__new__(cls)
        object.__setattr__(obj, "probs", probs)
        return obj

    @property
    def n_outcomes(self) -> int:
        return len(self.probs)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.probs, dtype=float)


def lottery(values) -> Lottery:
    """Build a Lottery from any iterable of numbers."""
    return Lottery(tuple(float(v) for v in values))


def degenerate(i: int, n: int) -> Lottery:
    """The lottery putting all mass on outcome ``i`` of ``n``."""
    if n < 1:
        raise ValueError(f"need at least one outcome, got n={n}")
    if not 0 <= i < n:
        raise ValueError(f"outcome index {i} out of range for n={n}")
    return Lottery(tuple(1.0 if j == i else 0.0 for j in range(n)))


def mix(lam: float, x: Lottery, y: Lottery) -> Lottery:
    """The convex combination ``lam * x + (1 - lam) * y``.

    ``lam`` outside [0, 1] is rejected: extrapolation silently leaves the
    simplex and every caller in this package relies on staying inside it.
    The sum is renormalized only when accumulated drift exceeds ``SUM_TOL``.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"mixing weight must lie in [0, 1], got {lam!r}")
    if x.n_outcomes != y.n_outcomes:
        raise ValueError("cannot mix lotteries over different outcome sets")
    if x.probs == y.probs:
        return x
    probs = tuple(mix_rows(lam, x.probs, y.probs).tolist())
    total = math.fsum(probs)
    if abs(total - 1.0) > SUM_TOL:
        probs = tuple(p / total for p in probs)
    return Lottery(probs)


def mix_rows(lam, xs, ys) -> np.ndarray:
    """:func:`mix`'s arithmetic over arrays of lottery rows, unvalidated.

    ``lam`` is one weight or one per row, and ``xs`` and ``ys`` broadcast
    against each other.  Each row equals the probs of ``mix(lam, x, y)``
    unless ``mix`` leaves the arithmetic: it returns ``x`` itself when
    ``y`` equals it, and renormalizes a sum drifting past ``SUM_TOL``.
    """
    lam = np.asarray(lam, dtype=float)[..., None]
    return lam * xs + (1.0 - lam) * ys


def lottery_rows(rows, n: int) -> np.ndarray:
    """``rows`` (an array, or a list of Lotteries and plain rows) as a float
    ``(k, n)`` array whose rows are all lotteries.

    The array counterpart of :class:`Lottery` validation: every row must be
    finite, nonnegative and sum to one within ``SUM_TOL``.  Raises
    ``ValueError`` naming the first offending row.
    """
    if not isinstance(rows, np.ndarray):
        rows = [x.probs if isinstance(x, Lottery) else x for x in rows]
    rows = np.asarray(rows, dtype=float)
    if rows.shape == (0,):  # an empty list
        rows = rows.reshape(0, n)
    if rows.ndim != 2 or rows.shape[1] != n:
        raise ValueError(f"expected (k, {n}) lottery rows, got shape {rows.shape}")
    with np.errstate(invalid="ignore"):
        bad = ~np.isfinite(rows).all(axis=1) | (rows < 0.0).any(axis=1)
        miss = np.abs(rows.sum(axis=1) - 1.0)
        # A sum within numpy's rounding of the edge is decided by fsum, as Lottery decides it.
        for i in np.flatnonzero(np.abs(miss - SUM_TOL) <= n * np.finfo(float).eps):
            miss[i] = abs(math.fsum(rows[i].tolist()) - 1.0)
        bad |= ~(miss <= SUM_TOL)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise ValueError(
            f"row {i} is not a lottery (finite, >= 0, summing to 1 within {SUM_TOL}): "
            f"{tuple(rows[i].tolist())}"
        )
    return rows


def grid(n: int, resolution: int) -> list[Lottery]:
    """All lotteries on ``n`` outcomes with components that are multiples
    of ``1 / resolution``.

    The enumeration is duplicate-free with exactly
    ``math.comb(resolution + n - 1, n - 1)`` entries.
    """
    if n < 1:
        raise ValueError(f"need at least one outcome, got n={n}")
    if resolution < 1:
        raise ValueError(f"resolution must be >= 1, got {resolution}")
    out = []
    # Stars and bars: each choice of bar positions is one composition.
    for bars in combinations(range(resolution + n - 1), n - 1):
        counts = []
        prev = -1
        for b in bars:
            counts.append(b - prev - 1)
            prev = b
        counts.append(resolution + n - 2 - prev)
        out.append(Lottery(tuple(c / resolution for c in counts)))
    return out


@dataclass(frozen=True)
class Polytope:
    """A convex polytope given by a finite list of generating lotteries.

    Duplicate generators are permitted: they do not change the hull.
    """

    vertices: tuple[Lottery, ...]

    def __post_init__(self):
        if not self.vertices:
            raise ValueError("polytope needs at least one vertex")
        n = self.vertices[0].n_outcomes
        if any(v.n_outcomes != n for v in self.vertices):
            raise ValueError("polytope vertices live on different outcome sets")

    @property
    def n_outcomes(self) -> int:
        return self.vertices[0].n_outcomes

    def vertex_array(self) -> np.ndarray:
        return np.asarray([v.probs for v in self.vertices], dtype=float)

    def contains(self, x: Lottery) -> bool:
        """Hull membership to within ``HULL_TOL`` in the largest component.

        ``x`` lies outside the hull exactly when some functional puts every
        vertex at least 1 below it, and the least L1 norm of such a
        functional is 1 over the largest-component distance from ``x`` to
        the hull.  So ``x`` counts as inside when :func:`linprog` finds no
        such functional, or only one of norm ``1 / HULL_TOL`` or more.
        Every lottery lies in the simplex, so a polytope generated by all
        the degenerate lotteries contains it without a program.
        """
        n = self.n_outcomes
        if x.n_outcomes != n:
            raise ValueError("point lives on a different outcome set")
        generators = {v.probs for v in self.vertices}
        if x.probs in generators or all(degenerate(i, n).probs in generators for i in range(n)):
            return True
        rows = self.vertex_array() - x.as_array()
        ((c, _),) = linprog([rows], [np.full(len(rows), -1.0)], np.zeros((0, n)), np.zeros(0))
        return c is None or float(np.abs(c).sum()) >= 1.0 / HULL_TOL
