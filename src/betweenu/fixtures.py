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

The last two come from :func:`oracle_from_value` and are keyed by value; no
per-lottery key can hold the cyclic fixture's planted pair, so it is asked
about each pair through its ``compare_fn``.
"""

from __future__ import annotations

import numpy as np

from .models import DEFAULT_EPS_PREF, BlackBoxOracle, Ordering, classify
from .simplex import Lottery, lottery

#: An oracle's gap for each :func:`~betweenu.models.classify` sign, indexed by it.
_ORACLE_GAPS = np.asarray([0.0, np.inf, -np.inf])


class _ValueOracle(BlackBoxOracle):
    """A comparison oracle keyed by value: ``value_fn`` runs once per
    distinct row of a batch, in order of first appearance, so the first
    row whose call raises is the first such row of the batch.  Rows equal
    as tuples, as their lotteries are, share the one call."""

    def __init__(self, value_fn, compare_fn, n_outcomes: int, eps_pref: float):
        super().__init__(compare_fn, n_outcomes, eps_pref)
        self.value_fn = value_fn

    def keys(self, rows: np.ndarray) -> np.ndarray:
        at = {}  # each distinct row's probs -> its place among them
        index = [at.setdefault(probs, len(at)) for probs in self._probs(rows)]
        trusted, value_fn = Lottery._trusted, self.value_fn
        values = np.fromiter((value_fn(trusted(p)) for p in at), dtype=float, count=len(at))
        return values[index]

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
    solvers' keys are the float64 values, one ``value_fn`` call per distinct
    lottery of a batch, so ``value_fn`` must return a real number and give
    equal lotteries equal values; the gaps stay infinite or zero, so the
    checkers learn no more than ``compare`` tells them.
    """
    band = float(eps_pref)

    def compare_fn(x: Lottery, y: Lottery) -> Ordering:
        d = value_fn(x) - value_fn(y)
        # classify's band in scalar Python: the cyclic fixture asks once per
        # pair, where a numpy call would cost more than the comparison.
        if abs(d) <= band:
            return Ordering.INDIFFERENT
        return Ordering.STRICTLY_PREFERS if d > 0.0 else Ordering.STRICTLY_DISPREFERRED

    return _ValueOracle(value_fn, compare_fn, n_outcomes, eps_pref)


#: The planted intransitive triple used by :func:`cyclic_oracle`.  All
#: three lotteries have exact binary-fraction-free coordinates that also
#: appear in ``grid(3, 6)``, so default check grids hit the cycle.
CYCLE: tuple[Lottery, Lottery, Lottery] = (
    lottery((0.0, 1.0 / 3.0, 2.0 / 3.0)),
    lottery((1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)),
    lottery((2.0 / 3.0, 1.0 / 3.0, 0.0)),
)


def _cyclic_value(x: Lottery) -> float:
    """Expected utility of ``x`` under u = (0, 1/2, 1), in plain floats.

    It equals ``float(np.dot(x.as_array(), (0.0, 0.5, 1.0)))`` bit for bit
    without building an array.  ``ddot`` starts from +0 and adds in index
    order.  p0 * 0 is +0 and p2 * 1 is p2, both exact; p1 * 1/2 is exact
    unless it is subnormal, and then rounds the same way on both paths (a
    fused multiply-add onto +0 rounds it once too).  Adding it to +0 is
    exact, so the last addition is the one other rounding, done alike on
    both paths.  The leading ``0.0 +`` keeps -0.0 components from giving
    -0.0.
    """
    _, p1, p2 = x.probs
    return 0.0 + 0.5 * p1 + p2


def cyclic_oracle(eps_pref: float = DEFAULT_EPS_PREF) -> BlackBoxOracle:
    """Expected-utility comparisons with one planted preference cycle.

    The base ordering is expected utility with u = (0, 1/2, 1), valued in
    plain floats by :func:`_cyclic_value`.  That value is the ``np.dot`` one
    bit for bit: with these utilities the only roundings are p1 / 2 and the
    last addition, and both paths do them alike.  On the planted triple
    a > b > c the base order is overridden for the single pair (c, a) to
    c > a, closing a cycle while leaving every other comparison intact.
    """
    a, b, c = CYCLE
    base = oracle_from_value(_cyclic_value, 3, eps_pref).compare_fn

    def compare_fn(x: Lottery, y: Lottery) -> Ordering:
        if x.probs == c.probs and y.probs == a.probs:
            return Ordering.STRICTLY_PREFERS
        if x.probs == a.probs and y.probs == c.probs:
            return Ordering.STRICTLY_DISPREFERRED
        return base(x, y)

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

    def value_fn(x: Lottery) -> float:
        p1 = x.probs[1]
        return p1 if p1 < threshold else p1 - drop

    return oracle_from_value(value_fn, 2, eps_pref)


def quadratic_oracle(matrix=None, eps_pref: float = DEFAULT_EPS_PREF) -> BlackBoxOracle:
    """Preference with value x' B x, quadratic in probabilities.

    Quadratic values bow the indifference sets, so mixtures of
    indifferent lotteries are strictly ranked against their components
    and betweenness fails.  The default matrix rewards hedging between
    the first two outcomes.
    """
    if matrix is None:
        matrix = [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
    B = np.asarray(matrix, dtype=float)
    if B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise ValueError(f"matrix must be square, got shape {B.shape}")
    if not np.all(np.isfinite(B)):
        raise ValueError("matrix entries must be finite")

    def value_fn(x: Lottery) -> float:
        p = x.as_array()
        return float(p @ B @ p)

    return oracle_from_value(value_fn, B.shape[0], eps_pref)
