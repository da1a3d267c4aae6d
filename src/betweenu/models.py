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

Outcome utilities must lie in [0, 1] and attain both ends, so the value
scale of the first three families lines up with the unit normalization
used by the representation engine and none of them is constant; a
constant preference (a negative fixture for the nondegeneracy check) is
built as an oracle with :func:`~betweenu.fixtures.oracle_from_value`.
Kernel values must lie in [0, 1] but need not attain either end, so a
kernel table can be constant; the engine checks nondegeneracy itself.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .simplex import Lottery, lottery_rows

#: Default half-width of the indifference band used by ``compare``.
DEFAULT_EPS_PREF = 1e-9


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


_PREFERS, _INDIFFERENT, _DISPREFERRED = (
    Ordering.STRICTLY_PREFERS,
    Ordering.INDIFFERENT,
    Ordering.STRICTLY_DISPREFERRED,
)


def classify(gaps, band: float) -> np.ndarray:
    """Signs of preference gaps under the indifference band ``[-band, band]``.

    1 marks a strict preference, -1 a strict dispreference and 0 a gap
    inside the band (see :meth:`Ordering.of_sign`), and a NaN gap is -1.
    An oracle's gaps are infinite or zero, so no band changes its signs.
    """
    gaps = np.asarray(gaps, dtype=float)
    return np.where(np.abs(gaps) <= band, 0, np.where(gaps > 0.0, 1, -1))


class PreferenceModel:
    """A total comparison capability over lotteries on ``n_outcomes`` outcomes.

    Solvers compare through one primitive, :meth:`keys` then :meth:`gaps`:
    a key is computed once per lottery row, and the gap of ``kx`` over
    ``ky`` is positive when the ``x`` lottery is strictly preferred,
    negative when it is strictly dispreferred, and zero on a tie.
    :class:`ValueModel` keys are values and its gaps are raw value
    differences; :class:`BlackBoxOracle` gaps are infinite or zero, and its
    keys are lotteries, or values for an oracle keyed by value
    (:class:`~betweenu.fixtures._ValueOracle`).

    Validation happens once, where data enters: :meth:`compare` and the
    public value methods check what they are given, and the solvers check
    their input rows (:func:`~betweenu.simplex.lottery_rows`).  ``keys``
    and ``gaps`` trust their arguments: every row reaching ``keys`` is
    such a checked row or a :func:`~betweenu.simplex.mix_rows` mixture of
    them, and every key reaching ``gaps`` came from ``keys``.
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
        raise NotImplementedError

    def gaps(self, kx: np.ndarray, ky: np.ndarray) -> np.ndarray:
        """Preference gaps of keys ``kx`` over keys ``ky``.

        ``ky`` holds one key per ``kx`` key, or a single key for all of them.
        """
        raise NotImplementedError

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
    g(min u) >= 0 >= g(max u), and linear in V between two neighbouring
    distinct utilities ``c_j < c_j+1`` (Gul, Econometrica 59(3), 1991).  So
    the value is solved exactly: on the cell of the last cut with
    ``g(c_j) >= 0`` it is ``(sum_i x_i u_i + beta * S_j) / (1 + beta * P_j)``,
    where ``S_j`` and ``P_j`` are the utility and probability mass at or
    below ``c_j``, and ``c_j`` itself where ``g(c_j) == 0``.  On a lottery
    ``g(c) = gain(c) - (1 + beta) * loss(c)``, with ``gain`` the expected
    excess of ``u`` over ``c`` and ``loss`` the expected shortfall, and the
    sign of g is read by comparing ``gain / (1 + beta)`` with ``loss``: both
    are exact at a kink ``u_i = c``, and neither underflows to a false tie,
    so a degenerate lottery is worth its outcome's utility exactly.
    """

    def __init__(self, u, beta: float, eps_pref: float = DEFAULT_EPS_PREF):
        u = _check_outcome_utilities(u)
        beta = float(beta)
        if not math.isfinite(beta) or beta <= -1.0:
            raise ValueError(f"beta must be a finite number > -1, got {beta!r}")
        super().__init__(len(u), eps_pref)
        self.u = u
        self.beta = beta
        cuts = np.unique(u)
        at_or_below = u[None, :] <= cuts[:, None]
        self._cuts = cuts
        self._gains = np.maximum(u[None, :] - cuts[:, None], 0.0)
        self._losses = np.maximum(cuts[:, None] - u[None, :], 0.0)
        self._mass = at_or_below.astype(float)
        self._mass_u = np.where(at_or_below, u, 0.0)

    def _values(self, rows: np.ndarray) -> np.ndarray:
        cuts = self._cuts
        gain = (rows[:, None, :] * self._gains).sum(axis=2) / (1.0 + self.beta)
        loss = (rows[:, None, :] * self._losses).sum(axis=2)
        # g is decreasing with g(min u) >= 0, so the value lies in the cell
        # starting at the last cut where g is still nonnegative.
        j = len(cuts) - 1 - np.argmax((gain >= loss)[:, ::-1], axis=1)
        s = (rows * self._mass_u[j]).sum(axis=1)
        p = (rows * self._mass[j]).sum(axis=1)
        v = ((rows * self.u).sum(axis=1) + self.beta * s) / (1.0 + self.beta * p)
        # Rounding can put the root an ulp outside the cell where g changes sign.
        v = np.clip(v, cuts[j], cuts[np.minimum(j + 1, len(cuts) - 1)])
        r = np.arange(len(rows))
        return np.where(gain[r, j] == loss[r, j], cuts[j], v)


class ImplicitKernel(ValueModel):
    """Implicitly defined utility ``t = sum_i x_i phi(i, t)``.

    ``phi`` is tabulated on a level grid: ``t_grid`` increases from 0 to 1
    and ``phi_values[i]`` holds the values in [0, 1] for outcome ``i`` on
    that grid, linearly interpolated in between.  Every slope must stay
    below 1, which makes the defining map a contraction with a unique
    fixed point; the largest one is kept as ``lipschitz``.  The residual
    ``h(t) = sum_i x_i phi(i, t) - t`` is linear on each grid cell and
    strictly decreasing, so the fixed point is solved exactly: it is the
    root of the linear residual on the cell of the last grid level with
    ``h >= 0`` (the final cell at most), or that level itself where ``h`` is
    exactly 0 there.
    """

    def __init__(self, t_grid, phi_values, eps_pref: float = DEFAULT_EPS_PREF):
        t_grid = np.asarray(t_grid, dtype=float)
        phi_values = np.asarray(phi_values, dtype=float)
        if t_grid.ndim != 1 or len(t_grid) < 2:
            raise ValueError("t_grid must contain at least two level points")
        # Every comparison is False on NaN, so a non-finite entry fails here.
        if t_grid[0] != 0.0 or t_grid[-1] != 1.0 or not np.all(np.diff(t_grid) > 0.0):
            raise ValueError("t_grid must increase strictly from 0 to 1")
        if phi_values.ndim != 2 or phi_values.shape[1] != len(t_grid):
            raise ValueError("phi_values must be shaped (n_outcomes, len(t_grid))")
        if not np.all(np.isfinite(phi_values)) or phi_values.min() < 0.0 or phi_values.max() > 1.0:
            raise ValueError("kernel values must lie in [0, 1]")
        slopes = np.abs(np.diff(phi_values, axis=1) / np.diff(t_grid)[None, :])
        lipschitz = float(slopes.max()) if slopes.size else 0.0
        if not lipschitz < 1.0:
            raise ValueError(
                f"tabulated kernel has Lipschitz constant {lipschitz:.6g}; it must be < 1"
            )
        super().__init__(phi_values.shape[0], eps_pref)
        self.t_grid = t_grid
        self.phi_values = phi_values
        self.lipschitz = lipschitz
        self._phi_by_level = np.ascontiguousarray(phi_values.T)

    def _values(self, rows: np.ndarray) -> np.ndarray:
        t = self.t_grid
        h = (rows[:, None, :] * self._phi_by_level).sum(axis=2) - t
        last = len(t) - 1 - np.argmax(h[:, ::-1] >= 0.0, axis=1)
        j = np.minimum(last, len(t) - 2)
        r = np.arange(len(rows))
        h_lo, h_hi = h[r, j], h[r, j + 1]
        root = t[j] + (t[j + 1] - t[j]) * h_lo / (h_lo - h_hi)
        return np.where(h[r, last] == 0.0, t[last], root)


class BlackBoxOracle(PreferenceModel):
    """A preference given only through a comparison callable.

    ``compare_fn(x, y)`` must return an :class:`Ordering`.  The oracle is
    assumed deterministic.  Exceptions raised by the callable propagate to
    the caller: :func:`~betweenu.axioms.check_rationality` records them as
    completeness failures, and the other checks and the solvers raise them.

    :meth:`compare` checks both lotteries' outcome counts and the return
    type on every call.  The solvers' path does the same work once per
    batch instead: :meth:`keys` checks the rows' width and wraps each
    trusted row in a :class:`Lottery` without validating it again, and
    :meth:`gaps` calls ``compare_fn`` once per pair and rejects a return
    that is not an :class:`Ordering` with the same ``TypeError``.
    """

    def __init__(self, compare_fn, n_outcomes: int, eps_pref: float = DEFAULT_EPS_PREF):
        super().__init__(n_outcomes, eps_pref)
        self.compare_fn = compare_fn

    def compare(self, x: Lottery, y: Lottery) -> Ordering:
        self._check_dim(x)
        self._check_dim(y)
        out = self.compare_fn(x, y)
        if not isinstance(out, Ordering):
            raise _not_an_ordering(out)
        return out

    def keys(self, rows: np.ndarray) -> np.ndarray:
        self._check_width(rows)
        probs = map(tuple, rows.tolist())
        return np.fromiter(map(Lottery._trusted, probs), dtype=object, count=len(rows))

    def _check_width(self, rows: np.ndarray) -> None:
        if rows.shape[1] != self.n_outcomes:
            raise ValueError(
                f"rows have {rows.shape[1]} outcomes, model expects {self.n_outcomes}"
            )

    def gaps(self, kx: np.ndarray, ky: np.ndarray) -> np.ndarray:
        compare_fn = self.compare_fn
        ys = ky.tolist() * len(kx) if len(ky) == 1 else ky.tolist()
        out = []
        for x, y in zip(kx.tolist(), ys):
            verdict = compare_fn(x, y)
            # Identity tests: the fastest map from the three members to gaps.
            if verdict is _PREFERS:
                out.append(math.inf)
            elif verdict is _INDIFFERENT:
                out.append(0.0)
            elif verdict is _DISPREFERRED:
                out.append(-math.inf)
            else:
                raise _not_an_ordering(verdict)
        return np.asarray(out, dtype=float)


def _not_an_ordering(out) -> TypeError:
    return TypeError(f"oracle returned {out!r}, expected an Ordering")
