"""Preference relations over lotteries.

Four built-in families share one interface: each assigns every lottery a
real value and compares by value with a symmetric indifference band
``eps_pref``.  A fifth kind wraps an arbitrary comparison callable for
preferences that have no value function at all (or deliberately violate
the axioms; see :mod:`betweenu.fixtures`).

Built-in families, with ``x`` a lottery and ``u`` outcome utilities:

* expected utility            ``V(x) = sum_i x_i u_i``
* weighted utility            ``V(x) = sum_i x_i w_i u_i / sum_i x_i w_i``
* disappointment aversion     the unique ``V`` solving
  ``V = (sum_i x_i u_i + beta * sum_{i: u_i <= V} x_i u_i)
  / (1 + beta * sum_{i: u_i <= V} x_i)``
* implicit kernel             the unique ``t`` solving
  ``t = sum_i x_i phi(i, t)`` for a kernel ``phi`` tabulated on a level
  grid and a contraction in ``t``.

Outcome utilities (and kernel values) are constrained to [0, 1] so the
value scale of every family lines up with the unit normalization used by
the representation engine.  Attaining 0 and 1 is not enforced here: the
engine checks nondegeneracy itself, and constant families are legitimate
negative fixtures for the axiom checkers.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .errors import FixedPointDivergence
from .simplex import Lottery, lottery_rows

#: Default half-width of the indifference band used by ``compare``.
DEFAULT_EPS_PREF = 1e-9

_DA_WIDTH_TOL = 1e-14
_DA_MAX_ITER = 80
_FP_TOL = 1e-13


class Ordering(Enum):
    """Outcome of comparing lottery ``x`` against lottery ``y``."""

    STRICTLY_PREFERS = "strictly_prefers"
    INDIFFERENT = "indifferent"
    STRICTLY_DISPREFERRED = "strictly_dispreferred"

    @property
    def converse(self) -> "Ordering":
        if self is Ordering.STRICTLY_PREFERS:
            return Ordering.STRICTLY_DISPREFERRED
        if self is Ordering.STRICTLY_DISPREFERRED:
            return Ordering.STRICTLY_PREFERS
        return Ordering.INDIFFERENT

    @classmethod
    def of_sign(cls, sign) -> "Ordering":
        """The ordering a sign from :func:`classify` stands for (-1 picks the last)."""
        return (cls.INDIFFERENT, cls.STRICTLY_PREFERS, cls.STRICTLY_DISPREFERRED)[int(sign)]


_GAP = {
    Ordering.STRICTLY_PREFERS: math.inf,
    Ordering.INDIFFERENT: 0.0,
    Ordering.STRICTLY_DISPREFERRED: -math.inf,
}


def classify(gaps, band: float) -> np.ndarray:
    """Signs of preference gaps under the indifference band ``[-band, band]``.

    1 marks a strict preference, -1 a strict dispreference and 0 a gap
    inside the band (see :meth:`Ordering.of_sign`).  An oracle's gaps are
    infinite or zero, so no band changes its signs.
    """
    gaps = np.asarray(gaps, dtype=float)
    return np.where(np.abs(gaps) <= band, 0, np.where(gaps > 0.0, 1, -1))


class PreferenceModel:
    """A total comparison capability over lotteries on ``n_outcomes`` outcomes.

    Solvers compare through one primitive, :meth:`keys` then :meth:`gaps`:
    a key is computed once per lottery row, and the gap of ``kx`` over
    ``ky`` is positive when the ``x`` lottery is strictly preferred,
    negative when it is strictly dispreferred, and zero on a tie.  The
    defaults here serve comparison oracles: a key is the row's
    :class:`Lottery` and a gap is ``+inf``, ``0.0`` or ``-inf`` from
    ``compare(x, y)``, so no indifference band ever changes an oracle's
    verdict.  :class:`ValueModel` keys are values and its gaps are raw
    value differences.
    """

    def __init__(self, n_outcomes: int, eps_pref: float = DEFAULT_EPS_PREF):
        if n_outcomes < 1:
            raise ValueError(f"need at least one outcome, got {n_outcomes}")
        if not (math.isfinite(eps_pref) and eps_pref > 0.0):
            raise ValueError(f"eps_pref must be a positive float, got {eps_pref!r}")
        self.n_outcomes = int(n_outcomes)
        self.eps_pref = float(eps_pref)

    def compare(self, x: Lottery, y: Lottery) -> Ordering:
        raise NotImplementedError

    def keys(self, rows: np.ndarray) -> np.ndarray:
        """Comparison keys for a ``(k, n)`` array of lottery rows."""
        return np.fromiter(
            (Lottery(tuple(row)) for row in rows.tolist()), dtype=object, count=len(rows)
        )

    def gaps(self, kx: np.ndarray, ky: np.ndarray) -> np.ndarray:
        """Preference gaps of keys ``kx`` over keys ``ky``.

        ``ky`` holds one key per ``kx`` key, or a single key for all of them.
        """
        ys = ky.tolist() * len(kx) if len(ky) == 1 else ky.tolist()
        return np.asarray(
            [_GAP[self.compare(x, y)] for x, y in zip(kx.tolist(), ys)], dtype=float
        )

    def _check_dim(self, x: Lottery) -> None:
        if x.n_outcomes != self.n_outcomes:
            raise ValueError(
                f"lottery has {x.n_outcomes} outcomes, model expects {self.n_outcomes}"
            )


class ValueModel(PreferenceModel):
    """A preference represented by a real-valued function on lotteries.

    Subclasses implement ``_values`` on a ``(k, n)`` array of lottery rows.
    Scalar evaluation routes through the same code path (as a one-row
    batch), so scalar and batched results are bitwise identical.
    """

    def _values(self, rows: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def values(self, rows) -> np.ndarray:
        """Values for a ``(k, n)`` array of lottery rows.

        Rows that are not lotteries raise ``ValueError`` (see
        :func:`~betweenu.simplex.lottery_rows`).
        """
        return self._values(lottery_rows(rows, self.n_outcomes))

    def value(self, x: Lottery) -> float:
        self._check_dim(x)
        return float(self._values(np.asarray([x.probs], dtype=float))[0])

    def keys(self, rows: np.ndarray) -> np.ndarray:
        # Solvers pass rows they validated or built themselves, so the
        # hot path skips the row check of the public values().
        return self._values(rows)

    def gaps(self, kx: np.ndarray, ky: np.ndarray) -> np.ndarray:
        return kx - ky

    def compare(self, x: Lottery, y: Lottery) -> Ordering:
        return Ordering.of_sign(classify(self.value(x) - self.value(y), self.eps_pref))


def _check_outcome_utilities(u) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.ndim != 1 or len(u) < 1:
        raise ValueError("outcome utilities must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(u)) or u.min() < 0.0 or u.max() > 1.0:
        raise ValueError(f"outcome utilities must lie in [0, 1], got {u}")
    # Attained endpoints anchor the family's value scale to the
    # representation's own 0..1 normalization.
    if u.min() != 0.0 or u.max() != 1.0:
        raise ValueError(
            f"outcome utilities must attain both 0 and 1, got range "
            f"[{u.min()}, {u.max()}]"
        )
    return u


class ExpectedUtility(ValueModel):
    """Linear-in-probabilities utility: ``V(x) = sum_i x_i u_i``."""

    def __init__(self, u, eps_pref: float = DEFAULT_EPS_PREF):
        u = _check_outcome_utilities(u)
        super().__init__(len(u), eps_pref)
        self.u = u

    def _values(self, rows: np.ndarray) -> np.ndarray:
        return (rows * self.u).sum(axis=1)


class WeightedUtility(ValueModel):
    """Weighted utility: ``V(x) = sum_i x_i w_i u_i / sum_i x_i w_i``, w_i > 0."""

    def __init__(self, u, w, eps_pref: float = DEFAULT_EPS_PREF):
        u = _check_outcome_utilities(u)
        w = np.asarray(w, dtype=float)
        if w.shape != u.shape:
            raise ValueError("utilities and weights must have the same length")
        if not np.all(np.isfinite(w)) or w.min() <= 0.0:
            raise ValueError(f"weights must be finite and strictly positive, got {w}")
        super().__init__(len(u), eps_pref)
        self.u = u
        self.w = w

    def _values(self, rows: np.ndarray) -> np.ndarray:
        return (rows * (self.w * self.u)).sum(axis=1) / (rows * self.w).sum(axis=1)


class DisappointmentAversion(ValueModel):
    """Disappointment-averse utility with elation/disappointment weight ``beta``.

    The defining residual

        g(V) = sum_i x_i u_i - V + beta * sum_i x_i min(u_i - V, 0)

    is continuous and strictly decreasing for beta > -1, with
    g(min u) >= 0 >= g(max u), so the value is found by plain bisection on
    [min u, max u].  Writing the disappointment term through ``min(., 0)``
    keeps the residual exact at the kink points u_i = V.
    """

    def __init__(self, u, beta: float, eps_pref: float = DEFAULT_EPS_PREF):
        u = _check_outcome_utilities(u)
        beta = float(beta)
        if not math.isfinite(beta) or beta <= -1.0:
            raise ValueError(f"beta must be a finite number > -1, got {beta!r}")
        super().__init__(len(u), eps_pref)
        self.u = u
        self.beta = beta

    def _values(self, rows: np.ndarray) -> np.ndarray:
        u, beta = self.u, self.beta
        base = (rows * u).sum(axis=1)
        u_lo, u_hi = float(u.min()), float(u.max())
        if u_hi == u_lo:
            return base
        k = len(rows)
        lo = np.full(k, u_lo)
        hi = np.full(k, u_hi)
        for _ in range(_DA_MAX_ITER):
            active = (hi - lo) > _DA_WIDTH_TOL
            if not active.any():
                break
            mid = 0.5 * (lo + hi)
            slack = (rows * np.minimum(u[None, :] - mid[:, None], 0.0)).sum(axis=1)
            g = base - mid + beta * slack
            go_up = g > 0.0
            lo = np.where(active & go_up, mid, lo)
            hi = np.where(active & ~go_up, mid, hi)
        return 0.5 * (lo + hi)


class ImplicitKernel(ValueModel):
    """Implicitly defined utility ``t = sum_i x_i phi(i, t)``.

    ``phi`` is tabulated on a level grid: ``t_grid`` increases from 0 to 1
    and ``phi_values[i]`` holds the values in [0, 1] for outcome ``i`` on
    that grid, linearly interpolated in between.  Every slope must stay
    below 1, which makes the defining map a contraction with a unique
    fixed point; the largest one is kept as ``lipschitz``.  The fixed
    point is found by plain iteration; failure to converge within
    ``max_fp_iter`` steps raises :class:`FixedPointDivergence`.
    """

    def __init__(self, t_grid, phi_values, eps_pref: float = DEFAULT_EPS_PREF):
        t_grid = np.asarray(t_grid, dtype=float)
        phi_values = np.asarray(phi_values, dtype=float)
        if t_grid.ndim != 1 or len(t_grid) < 2:
            raise ValueError("t_grid must contain at least two level points")
        if t_grid[0] != 0.0 or t_grid[-1] != 1.0 or np.any(np.diff(t_grid) <= 0.0):
            raise ValueError("t_grid must increase strictly from 0 to 1")
        if phi_values.ndim != 2 or phi_values.shape[1] != len(t_grid):
            raise ValueError("phi_values must be shaped (n_outcomes, len(t_grid))")
        if not np.all(np.isfinite(phi_values)) or phi_values.min() < 0.0 or phi_values.max() > 1.0:
            raise ValueError("kernel values must lie in [0, 1]")
        slopes = np.abs(np.diff(phi_values, axis=1) / np.diff(t_grid)[None, :])
        lipschitz = float(slopes.max()) if slopes.size else 0.0
        if lipschitz >= 1.0:
            raise ValueError(
                f"tabulated kernel has Lipschitz constant {lipschitz:.6g}; it must be < 1"
            )
        super().__init__(phi_values.shape[0], eps_pref)
        self.t_grid = t_grid
        self.phi_values = phi_values
        self.lipschitz = lipschitz
        if lipschitz > 0.0:
            guess = int(math.log(_FP_TOL) / math.log(lipschitz)) + 20
        else:
            guess = 60
        self.max_fp_iter = min(max(guess, 60), 20000)

    def _values(self, rows: np.ndarray) -> np.ndarray:
        k = len(rows)
        t = np.full(k, 0.5)
        done = np.zeros(k, dtype=bool)
        # Each element freezes the moment its own step shrinks below
        # tolerance, so results do not depend on what else is in the batch.
        for _ in range(self.max_fp_iter):
            if done.all():
                break
            g = np.zeros(k)
            for i in range(self.n_outcomes):
                g += rows[:, i] * np.interp(t, self.t_grid, self.phi_values[i])
            converged = ~done & (np.abs(g - t) <= _FP_TOL)
            t = np.where(done, t, g)
            done |= converged
        if not done.all():
            raise FixedPointDivergence(
                f"kernel fixed point did not converge within {self.max_fp_iter} iterations"
            )
        return t


class BlackBoxOracle(PreferenceModel):
    """A preference given only through a comparison callable.

    ``compare_fn(x, y)`` must return an :class:`Ordering`.  The oracle is
    assumed deterministic.  Exceptions raised by the callable propagate to
    the caller (the axiom checkers record them as completeness failures).
    """

    def __init__(self, compare_fn, n_outcomes: int, eps_pref: float = DEFAULT_EPS_PREF):
        super().__init__(n_outcomes, eps_pref)
        self.compare_fn = compare_fn

    def compare(self, x: Lottery, y: Lottery) -> Ordering:
        self._check_dim(x)
        self._check_dim(y)
        out = self.compare_fn(x, y)
        if not isinstance(out, Ordering):
            raise TypeError(f"oracle returned {out!r}, expected an Ordering")
        return out
