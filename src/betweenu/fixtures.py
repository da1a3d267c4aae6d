"""Planted pathological preferences for exercising the axiom checkers.

Each fixture is a :class:`~betweenu.models.BlackBoxOracle` with one
planted, replayable defect, so the checkers can be tested against ground
truth rather than only against well-behaved models.  A defect can break
more than one axiom; ``betweenu check`` at default flags fails those in
brackets:

* :func:`cyclic_oracle`     transitivity, on one planted triple (Rationality,
  Continuity, Betweenness)
* :func:`jump_oracle`       continuity, with a value jump (Continuity, Betweenness)
* :func:`quadratic_oracle`  betweenness, with bowed indifference sets
  (Betweenness, MixingNeutrality)

The last two, and :func:`oracle_from_value`, are keyed by value
(:class:`_ValueOracle`).  No per-lottery key can hold the cyclic
fixture's planted pair, so it is asked about each pair through its
``compare_fn``.
"""

from __future__ import annotations

import numpy as np

from .models import DEFAULT_EPS_PREF, BlackBoxOracle, Ordering, classify
from .simplex import Lottery, lottery

#: An oracle's gap for each :func:`~betweenu.models.classify` sign, indexed by it.
_ORACLE_GAPS = np.asarray([0.0, np.inf, -np.inf])


class _ValueOracle(BlackBoxOracle):
    """A comparison oracle keyed by value: ``values`` maps a ``(k, n)``
    array of lottery rows to their float64 values, giving each row of a
    batch the value it gives that row alone, and ``compare_fn`` compares
    two lotteries' scalar ``value`` under the band ``eps_pref``, by
    default the one-row case of ``values``."""

    def __init__(self, values, n_outcomes: int, eps_pref: float, value=None):
        if value is None:

            def value(x: Lottery) -> float:
                return float(values(np.asarray([x.probs], dtype=float))[0])

        def compare_fn(x: Lottery, y: Lottery) -> Ordering:
            return Ordering.of_sign(classify(value(x) - value(y), eps_pref))

        super().__init__(compare_fn, n_outcomes, eps_pref)
        self._values = values

    def keys(self, rows: np.ndarray) -> np.ndarray:
        self._check_width(rows)
        return self._values(rows)

    def gaps(self, kx: np.ndarray, ky: np.ndarray) -> np.ndarray:
        # compare_fn's verdicts as gaps: a NaN difference is dispreferred.
        return _ORACLE_GAPS[classify(kx - ky, self.eps_pref)]


def oracle_from_value(
    value_fn,
    n_outcomes: int,
    eps_pref: float = DEFAULT_EPS_PREF,
) -> BlackBoxOracle:
    """Wrap a scalar lottery-value function as a comparison oracle.

    ``compare_fn`` compares two values under the band ``eps_pref``.  The
    solvers' keys are the float64 values: ``value_fn`` runs once per
    distinct row of a batch, in order of first appearance, so the first
    row whose call raises is the first such row of the batch, and rows
    equal as tuples, as their lotteries are, share the one call.  So
    ``value_fn`` must return a real number and give equal lotteries equal
    values; the gaps stay infinite or zero, so the checkers learn no more
    than ``compare`` tells them.
    """

    def values(rows: np.ndarray) -> np.ndarray:
        at = {}  # each distinct row's probs -> its place among them
        index = [at.setdefault(probs, len(at)) for probs in map(tuple, rows.tolist())]
        trusted = Lottery._trusted
        out = np.fromiter((value_fn(trusted(p)) for p in at), dtype=float, count=len(at))
        return out[index]

    return _ValueOracle(values, n_outcomes, eps_pref, value_fn)


#: The planted intransitive triple used by :func:`cyclic_oracle`.  All
#: three lotteries have exact binary-fraction-free coordinates that also
#: appear in ``grid(3, 6)``, so default check grids hit the cycle.
CYCLE: tuple[Lottery, Lottery, Lottery] = (
    lottery((0.0, 1.0 / 3.0, 2.0 / 3.0)),
    lottery((1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)),
    lottery((2.0 / 3.0, 1.0 / 3.0, 0.0)),
)


def cyclic_oracle(eps_pref: float = DEFAULT_EPS_PREF) -> BlackBoxOracle:
    """Expected-utility comparisons with one planted preference cycle.

    The base ordering is expected utility with u = (0, 1/2, 1), valued in
    plain floats as ``0.0 + 0.5 * p1 + p2``.  That is
    ``float(np.dot(x.as_array(), (0.0, 0.5, 1.0)))`` bit for bit without
    building an array: ``ddot`` starts from +0 and adds in index order;
    p0 * 0 is +0 and p2 * 1 is p2, both exact; p1 * 1/2 is exact unless
    it is subnormal, and then rounds the same way on both paths (a fused
    multiply-add onto +0 rounds it once too).  Adding it to +0 is exact, so
    the last addition is the one other rounding, done alike on both paths.
    On the planted triple a > b > c the base order is overridden for the
    single pair (c, a) to c > a, closing a cycle while leaving every other
    comparison intact.  ``compare_fn`` answers in one frame: the oracle
    pass asks it tens of thousands of times.
    """
    a, _, c = (x.probs for x in CYCLE)
    band = float(eps_pref)
    prefers, indifferent, dispreferred = Ordering

    def compare_fn(x: Lottery, y: Lottery) -> Ordering:
        px, py = x.probs, y.probs
        if px == c and py == a:
            return prefers
        if px == a and py == c:
            return dispreferred
        _, x1, x2 = px
        _, y1, y2 = py
        # The two values' difference under classify's band.
        d = (0.0 + 0.5 * x1 + x2) - (0.0 + 0.5 * y1 + y2)
        if abs(d) <= band:
            return indifferent
        return prefers if d > 0.0 else dispreferred

    return BlackBoxOracle(compare_fn, 3, eps_pref)


def jump_oracle(
    threshold: float = 0.5,
    drop: float = 0.2,
    eps_pref: float = DEFAULT_EPS_PREF,
) -> BlackBoxOracle:
    """Two-outcome preference whose value jumps down at a mass threshold.

    The value of (p0, p1) is p1 below the threshold and p1 - drop at and
    above it, so preference flips discontinuously as p1 crosses the
    threshold from below.
    """
    threshold = float(threshold)
    drop = float(drop)
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {threshold!r}")
    if not 0.0 < drop < threshold:
        raise ValueError(f"drop must lie in (0, threshold), got {drop!r}")

    def values(rows: np.ndarray) -> np.ndarray:
        p1 = rows[:, 1]
        return np.where(p1 < threshold, p1, p1 - drop)

    return _ValueOracle(values, 2, eps_pref)


def quadratic_oracle(matrix=None, eps_pref: float = DEFAULT_EPS_PREF) -> BlackBoxOracle:
    """Preference with value x' B x, quadratic in probabilities.

    Quadratic values bow the indifference sets, so mixtures of
    indifferent lotteries are strictly ranked against their components
    and betweenness fails.  The default matrix rewards hedging between
    the first two outcomes.  The value is summed in one fixed order,
    ``(x' B)_j = sum_i x_i B_ij`` over i and then ``x' B x`` over j, by
    elementwise array operations, so a row's value does not depend on the
    batch it comes in (a matrix product's rounding can).
    """
    if matrix is None:
        matrix = [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
    B = np.asarray(matrix, dtype=float)
    if B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise ValueError(f"matrix must be square, got shape {B.shape}")
    if not np.all(np.isfinite(B)):
        raise ValueError("matrix entries must be finite")
    n = len(B)

    def values(rows: np.ndarray) -> np.ndarray:
        # sum() adds left to right, from the first term.
        xb = sum((rows[:, i, None] * B[i] for i in range(1, n)), rows[:, 0, None] * B[0])
        terms = xb * rows
        return sum((terms[:, j] for j in range(1, n)), terms[:, 0])

    return _ValueOracle(values, n, eps_pref)
