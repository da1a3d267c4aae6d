"""Lotteries over a finite outcome set and the convex structure around them.

Everything here is immutable and purely functional: lotteries are tuples of
doubles summing to one, and all constructors validate their inputs up front.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

#: Maximum tolerated drift of a probability vector's sum away from one.
SUM_TOL = 1e-12


def linprog(*args, **kwargs):
    """:func:`scipy.optimize.linprog`, imported on the first call: every
    HiGHS call of the package goes through here, so only a command that
    solves a program with HiGHS pays the half second ``scipy.optimize``
    takes to load.  Those are separation programs with two or more free
    coefficients, or with rows missed only within HiGHS's feasibility
    tolerance (one free coefficient is solved, or proved infeasible, in
    closed form, see :func:`betweenu.separation._closed_form`), and
    :meth:`Polytope.contains` on a polytope without every degenerate
    lottery."""
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


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
    """``rows`` as a float ``(k, n)`` array whose rows are all lotteries.

    The array counterpart of :class:`Lottery` validation: every row must be
    finite, nonnegative and sum to one within ``SUM_TOL``.  Raises
    ``ValueError`` naming the first offending row.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.shape == (0,):  # an empty list
        rows = rows.reshape(0, n)
    if rows.ndim != 2 or rows.shape[1] != n:
        raise ValueError(f"expected (k, {n}) lottery rows, got shape {rows.shape}")
    with np.errstate(invalid="ignore"):
        bad = ~np.isfinite(rows).all(axis=1) | (rows < 0.0).any(axis=1)
        bad |= ~(np.abs(rows.sum(axis=1) - 1.0) <= SUM_TOL)
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
        """Numerical hull membership via a small feasibility program.

        Every lottery lies in the simplex, so a polytope generated by all
        the degenerate lotteries contains it without one.
        """
        n = self.n_outcomes
        if x.n_outcomes != n:
            raise ValueError("point lives on a different outcome set")
        generators = {v.probs for v in self.vertices}
        if x.probs in generators or all(degenerate(i, n).probs in generators for i in range(n)):
            return True
        V = self.vertex_array()
        k = len(self.vertices)
        a_eq = np.vstack([V.T, np.ones((1, k))])
        b_eq = np.concatenate([x.as_array(), [1.0]])
        res = linprog(
            c=np.zeros(k),
            A_eq=a_eq,
            b_eq=b_eq,
            bounds=[(0.0, None)] * k,
            method="highs",
        )
        return res.status == 0
