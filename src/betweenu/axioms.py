"""Sampled verification of the preference axioms, with counterexamples.

Five checks cover rationality (completeness + transitivity),
nondegeneracy, continuity, betweenness, and mixing neutrality (mixtures
of indifferent lotteries stay indifferent).  Each returns an
:class:`AxiomReport` whose witnesses replay the violation through plain
``compare`` calls; nothing is proved, only checked at the sampled
resolution, and the reports say so.

Each check keys its samples once and compares through the model's
batched primitive (:meth:`~betweenu.models.PreferenceModel.keys` and
``gaps``); mixtures are keyed one weight at a time.  Two tolerance
layers keep the verdicts honest for value-backed models: a violation is
flagged only when it persists both under the model's own indifference
band and under a band twice as wide, both read from the same gaps.
Borderline numeric ties therefore pass, while planted violations (see
:mod:`betweenu.fixtures`) remain robustly flagged.  A comparison-only
oracle's gaps are infinite or zero, so no band changes its orderings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .models import Ordering, PreferenceModel, classify
from .simplex import Lottery, degenerate, lottery_rows, mix, mix_rows

#: Steps of the coarse approach in :func:`check_continuity`: the weights
#: toward the limit run down to ``0.5 ** _APPROACH_STEPS``.
_APPROACH_STEPS = 10

#: Above this many sampled triples, :func:`check_rationality` draws the
#: triples it checks for transitivity.
_MAX_TRIPLES = 20000


@dataclass(frozen=True)
class Witness:
    """One replayable counterexample: the lotteries involved, the mixing
    weight if a mixture was formed, and the orderings actually observed.

    A Betweenness or MixingNeutrality witness's third lottery is the
    mixture row that was keyed and compared: the probs of
    ``mix(lam, x, y)`` unless ``mix`` would return ``x`` for equal parents
    or renormalize a sum drifting past ``SUM_TOL``.
    """

    lotteries: tuple[Lottery, ...]
    lam: float | None
    observed: tuple[Ordering, ...]
    note: str

    def to_dict(self) -> dict:
        return {
            "lotteries": [list(x.probs) for x in self.lotteries],
            "lam": self.lam,
            "observed": [o.value for o in self.observed],
            "note": self.note,
        }

    def sort_key(self):
        return (
            tuple([x.probs for x in self.lotteries]),
            -1.0 if self.lam is None else self.lam,
            self.note,
        )


@dataclass(frozen=True)
class AxiomReport:
    axiom: str
    passed: bool
    witnesses: tuple[Witness, ...]
    samples_checked: int
    seed: int | None = None
    note: str = ""

    def __post_init__(self):
        if self.passed and self.witnesses:
            raise ValueError("a passing report cannot carry witnesses")

    def to_dict(self) -> dict:
        return {**vars(self), "witnesses": [w.to_dict() for w in self.witnesses]}


def _finish(axiom, witnesses, samples_checked, seed=None, note="") -> AxiomReport:
    witnesses = tuple(sorted(witnesses, key=Witness.sort_key))
    return AxiomReport(
        axiom=axiom,
        passed=not witnesses,
        witnesses=witnesses,
        samples_checked=samples_checked,
        seed=seed,
        note=note,
    )


def _keyed(model: PreferenceModel, samples) -> tuple[list, np.ndarray, np.ndarray]:
    """The samples as a list, their rows, and one comparison key per row."""
    samples = list(samples)
    rows = lottery_rows(samples, model.n_outcomes)
    return samples, rows, model.keys(rows)


def _signs(model: PreferenceModel, gaps) -> tuple[np.ndarray, np.ndarray]:
    """Observed signs (band ``eps_pref``) and robust signs (band ``2 * eps_pref``).

    A robust sign is nonzero only where the observed sign is the same.
    """
    return classify(gaps, model.eps_pref), classify(gaps, 2.0 * model.eps_pref)


def _orderings(*signs) -> tuple[Ordering, ...]:
    return tuple(Ordering.of_sign(s) for s in signs)


def _pair_signs(model: PreferenceModel, keys: np.ndarray):
    """Index arrays of every pair ``i < j`` in enumeration order, and the
    observed sign of sample ``i`` against sample ``j``."""
    first, second = np.triu_indices(len(keys), 1)
    return first, second, classify(model.gaps(keys[first], keys[second]), model.eps_pref)


def _pair_gaps(model: PreferenceModel, rows: np.ndarray, first, second):
    """Gaps of every pair in both directions, and the failures by pair index.

    One batched pass; only if it raises are the pairs replayed one at a
    time to find the failing ones, whose gaps stay NaN.
    """
    try:
        keys = model.keys(rows)
        return model.gaps(keys[first], keys[second]), model.gaps(keys[second], keys[first]), {}
    except Exception:
        pass
    gaps, failed = np.full((2, len(first)), np.nan), {}
    for p, pair in enumerate(zip(first.tolist(), second.tolist())):
        try:
            keys = model.keys(rows[list(pair)])
            gaps[:, p] = model.gaps(keys, keys[::-1])
        except Exception as exc:
            failed[p] = exc
    return gaps[0], gaps[1], failed


def _transitive(s_xy, s_yz, s_xz) -> np.ndarray:
    """Whether sign triples fit a total preorder: opposite strict signs on
    xy and yz allow any xz, otherwise xz takes the sign of their sum."""
    return (s_xy * s_yz < 0) | (s_xz == np.sign(s_xy + s_yz))


def _triples(k: int, seed: int) -> tuple[np.ndarray, str]:
    """The index triples i < j < l among ``k`` samples that
    :func:`check_rationality` checks, in lexicographic order, and its note:
    all of them up to 20,000, else the distinct ones among 20,000 draws
    with ``seed``."""
    total = math.comb(k, 3)
    if total <= _MAX_TRIPLES:
        return np.asarray(list(combinations(range(k), 3))), ""
    rng = np.random.default_rng(seed)
    draws = np.sort(rng.integers(0, k, size=(_MAX_TRIPLES, 3)), axis=1)
    distinct = (draws[:, 0] < draws[:, 1]) & (draws[:, 1] < draws[:, 2])
    # np.unique(draws[distinct], axis=0) from one code per row: codes sort
    # as the rows do.  Sorting them is faster than sorting a structured view
    # of the rows, and unlike np.unique(codes), which hashes them on numpy
    # 2.3 and later, it leaves no larger heap behind.
    shape = (k, k, k)
    codes = np.ravel_multi_index(draws.T, shape)[distinct]
    codes.sort()
    first = np.ones(len(codes), dtype=bool)
    first[1:] = codes[1:] != codes[:-1]
    triples = np.stack(np.unravel_index(codes[first], shape), axis=1)
    return triples, f"transitivity subsampled from {total} triples with seed {seed}"


def check_rationality(model: PreferenceModel, samples, seed: int = 0) -> AxiomReport:
    """Completeness and transitivity over the sampled lotteries.

    Completeness: every ordered pair compares without error and the two
    directions are converses.  Transitivity: no sampled triple shows an
    ordering pattern inconsistent with a total preorder.  Above 20,000
    triples, 20,000 draws with the given seed pick the triples checked:
    draws of three distinct samples, deduplicated and checked in
    lexicographic order.  The pair check always runs in full.
    ``samples_checked`` counts pairs plus triples examined.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed!r}")
    samples = list(samples)
    k = len(samples)
    if k < 3:
        raise ValueError(f"rationality needs at least 3 samples, got {k}")
    rows = lottery_rows(samples, model.n_outcomes)
    first, second = np.triu_indices(k, 1)
    fwd, rev, failed = _pair_gaps(model, rows, first, second)
    witnesses = [
        Witness(
            (samples[first[p]], samples[second[p]]),
            None,
            (),
            f"comparison failed: {type(exc).__name__}: {exc}",
        )
        for p, exc in failed.items()
    ]
    fwd_signs, rev_signs = classify(np.stack([fwd, rev]), model.eps_pref)
    valid = np.ones(len(first), dtype=bool)
    valid[list(failed)] = False
    for p in np.flatnonzero(valid & (rev_signs != -fwd_signs)):
        witnesses.append(
            Witness(
                (samples[first[p]], samples[second[p]]),
                None,
                _orderings(fwd_signs[p], rev_signs[p]),
                "swapped comparison is not the converse",
            )
        )
        valid[p] = False

    triples, note = _triples(k, seed)
    # Forward gaps by sample indices, NaN where a pair was not ordered.
    gaps = np.full((k, k), np.nan)
    gaps[first[valid], second[valid]] = fwd[valid]
    i, j, l = triples.T
    tri = np.stack([gaps[i, j], gaps[j, l], gaps[i, l]])
    counted = ~np.isnan(tri).any(axis=0)
    observed, robust = _signs(model, tri)
    for t in np.flatnonzero(counted & ~_transitive(*observed) & ~_transitive(*robust)):
        witnesses.append(
            Witness(
                tuple(samples[s] for s in triples[t]),
                None,
                _orderings(*observed[:, t]),
                "intransitive triple",
            )
        )
    return _finish(
        "Rationality",
        witnesses,
        samples_checked=int(valid.sum()) + int(counted.sum()),
        seed=seed,
        note=note,
    )


def check_nondegeneracy(model: PreferenceModel, samples) -> AxiomReport:
    """Passes when any sampled pair is strict.

    ``samples_checked`` counts the pairs in enumeration order up to and
    including the first strict one, or all of them when none is.
    """
    samples, _, keys = _keyed(model, samples)
    if not samples:
        raise ValueError("nondegeneracy needs at least one sample")
    strict = np.flatnonzero(_pair_signs(model, keys)[2])
    if strict.size:
        return _finish("Nondegeneracy", [], samples_checked=int(strict[0]) + 1)
    return AxiomReport(
        axiom="Nondegeneracy",
        passed=False,
        witnesses=(),
        samples_checked=math.comb(len(samples), 2),
        note="every sampled pair is indifferent; no strict preference found",
    )


def _weights(lambdas) -> list[float]:
    lambdas = [float(l) for l in lambdas]
    if any(not 0.0 < l < 1.0 for l in lambdas):
        raise ValueError("mixture weights must lie strictly inside (0, 1)")
    return lambdas


#: The :class:`Ordering` of each :func:`~betweenu.models.classify` sign, indexed by it.
_BY_SIGN = tuple(map(Ordering.of_sign, (0, 1, -1)))


def _mixture_witnesses(samples, hits, xs, ys, lam: float, mixed, signs, note: str) -> list:
    """The witnesses of the pairs ``xs[hits]``, ``ys[hits]`` and their keyed
    mixture rows, each with its two observed signs from ``signs``."""
    trusted, of = Lottery._trusted, _BY_SIGN
    columns = (xs[hits].tolist(), ys[hits].tolist(), mixed[hits].tolist(), *signs[:, hits].tolist())
    return [
        Witness((samples[x], samples[y], trusted(tuple(z))), lam, (of[a], of[b]), note)
        for x, y, z, a, b in zip(*columns)
    ]


def check_betweenness(model: PreferenceModel, samples, lambdas) -> AxiomReport:
    """Strict mixtures of strict pairs must stay strictly between them.

    For each sampled pair with ``x`` strictly preferred to ``y`` and each
    interior weight, the mixture must be strictly below ``x`` and
    strictly above ``y``.  A violation is recorded only when the mixture
    robustly escapes the pair's preference interval; a mixture that
    merely ties an endpoint is treated as numeric noise.
    """
    lambdas = _weights(lambdas)
    samples, rows, keys = _keyed(model, samples)
    first, second, side = _pair_signs(model, keys)
    strict = side != 0
    first, second, up = first[strict], second[strict], side[strict] > 0
    # Orient each strict pair so that x is the preferred lottery.
    xs, ys = np.where(up, first, second), np.where(up, second, first)
    witnesses = []
    for lam in lambdas:
        mixed = mix_rows(lam, rows[xs], rows[ys])
        kz = model.keys(mixed)
        gaps = np.stack([model.gaps(keys[xs], kz), model.gaps(kz, keys[ys])])
        observed, robust = _signs(model, gaps)
        hits = np.flatnonzero((robust < 0).any(axis=0))
        why = "mixture escapes the preference interval of its parents"
        witnesses += _mixture_witnesses(samples, hits, xs, ys, lam, mixed, observed, why)
    return _finish("Betweenness", witnesses, samples_checked=len(xs) * len(lambdas))


def check_mixing_neutrality(model: PreferenceModel, samples, lambdas) -> AxiomReport:
    """Mixtures of indifferent lotteries must stay indifferent to both.

    When every sampled pair is indifferent the preference is degenerate
    and the mixture step is skipped as vacuous (noted in the report).
    """
    lambdas = _weights(lambdas)
    samples, rows, keys = _keyed(model, samples)
    first, second, side = _pair_signs(model, keys)
    xs, ys = first[side == 0], second[side == 0]
    if len(xs) and len(xs) == len(side):
        return AxiomReport(
            axiom="MixingNeutrality",
            passed=True,
            witnesses=(),
            samples_checked=len(xs),
            note="all sampled pairs are indifferent; mixture step vacuous on a degenerate preference",
        )
    witnesses = []
    for lam in lambdas:
        mixed = mix_rows(lam, rows[xs], rows[ys])
        kz = model.keys(mixed)
        gaps = np.stack([model.gaps(kz, keys[xs]), model.gaps(kz, keys[ys])])
        observed, robust = _signs(model, gaps)
        hits = np.flatnonzero((robust != 0).any(axis=0))
        why = "mixture of an indifferent pair is not indifferent to a parent"
        witnesses += _mixture_witnesses(samples, hits, xs, ys, lam, mixed, observed, why)
    note = "" if len(xs) else "no indifferent pairs among samples"
    return _finish(
        "MixingNeutrality", witnesses, samples_checked=len(xs) * len(lambdas), note=note
    )


def check_continuity(model: PreferenceModel, samples) -> AxiomReport:
    """Finite-resolution consistency of comparisons under limits.

    For each sample ``x``, walk a sequence toward it along segments from
    each simplex vertex (weights on the vertex ``0.5 ** k`` up to
    ``k = 10``), comparing the steps against each reference sample ``y``.
    If the comparisons settle on one strict ordering along the tail of
    the sequence (``k = 7`` to ``10``) but the limit point compares
    strictly the other way, a discontinuity may have been observed.  Each
    anchor's nearest step is compared with every ``y`` first, in one batch
    per sample, the rest of the tail only for the (anchor, ``y``) pairs
    where it reverses the limit robustly.  A reversal is recorded only if
    a far finer approach toward the same anchor still settles on that
    side: a continuous preference whose value gap to ``y`` is smaller
    than the last coarse step is then back on the limit's side.
    The axiom is topological, so a passing report means only
    "consistent at tested resolution".
    """
    samples, rows, keys = _keyed(model, samples)
    if not samples:
        raise ValueError("continuity needs at least one sample")
    m, n = len(samples), model.n_outcomes
    vertices = [degenerate(i, n) for i in range(n)]
    last = 0.5**_APPROACH_STEPS
    coarse_lams = np.asarray([0.5**k for k in range(_APPROACH_STEPS - 3, _APPROACH_STEPS)])
    fine_lams = np.asarray([0.5**k for k in range(37, 41)])
    witnesses = []
    checked = 0
    for xi, x in enumerate(samples):
        at_limit, limit_robust = _signs(model, model.gaps(keys[[xi] * m], keys))
        anchors = [z for z in vertices if z.probs != x.probs]
        z_rows = np.asarray([z.probs for z in anchors]).reshape(-1, n)
        checked += len(anchors) * m
        # Every anchor's nearest step against every reference, one row each.
        kp = model.keys(mix_rows(last, z_rows, rows[xi]))
        gaps = model.gaps(np.repeat(kp, m), np.tile(keys, len(anchors))).reshape(-1, m)
        settled, near_robust = _signs(model, gaps)
        zs, ys = np.nonzero((settled != 0) & (limit_robust == -settled) & (near_robust == settled))
        # The coarser tail steps, then the finer approach, must agree with
        # the nearest step; only the (anchor, reference) pairs left are compared.
        for lams in (coarse_lams, fine_lams):
            if zs.size:
                kp = model.keys(mix_rows(lams, z_rows[zs, None], rows[xi]).reshape(-1, n))
                gaps = model.gaps(kp, np.repeat(keys[ys], len(lams))).reshape(-1, len(lams))
                steady = (classify(gaps, model.eps_pref) == settled[zs, ys, None]).all(axis=1)
                zs, ys = zs[steady], ys[steady]
        witnesses += [
            Witness(
                (x, anchors[zi], samples[yi], mix(last, anchors[zi], x)),
                last,
                _orderings(settled[zi, yi], at_limit[yi]),
                "strict comparison reverses at the limit of the approach",
            )
            for zi, yi in zip(zs, ys)
        ]
    return _finish(
        "Continuity",
        witnesses,
        samples_checked=checked,
        note="consistent at tested resolution" if not witnesses else "",
    )


def run_all_checks(model: PreferenceModel, samples, lambdas, seed: int = 0) -> list[AxiomReport]:
    """All five axiom checks on one sample set, in a fixed order."""
    return [
        check_rationality(model, samples, seed=seed),
        check_nondegeneracy(model, samples),
        check_continuity(model, samples),
        check_betweenness(model, samples, lambdas),
        check_mixing_neutrality(model, samples, lambdas),
    ]
