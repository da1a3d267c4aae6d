"""Sampled verification of the preference axioms, with counterexamples.

Five checks cover rationality (completeness + transitivity),
nondegeneracy, continuity, betweenness, and mixing neutrality (mixtures
of indifferent lotteries stay indifferent).  Each returns an
:class:`AxiomReport` whose witnesses replay the violation through plain
``compare`` calls; nothing is proved, only checked at the sampled
resolution, and the reports say so.

Two tolerance layers keep the verdicts honest for value-backed models: a
violation is flagged only when it persists both under the model's own
indifference band and under a band twice as wide.  Borderline numeric
ties therefore pass, while planted violations (see
:mod:`betweenu.fixtures`) remain robustly flagged.  A comparison-only
oracle's gaps are infinite or zero, so no band changes its orderings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .models import Ordering, PreferenceModel
from .simplex import Lottery, degenerate, mix


@dataclass(frozen=True)
class Witness:
    """One replayable counterexample: the lotteries involved, the mixing
    weight if a mixture was formed, and the orderings actually observed."""

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
            tuple(x.probs for x in self.lotteries),
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
        return {
            "axiom": self.axiom,
            "passed": self.passed,
            "witnesses": [w.to_dict() for w in self.witnesses],
            "samples_checked": self.samples_checked,
            "seed": self.seed,
            "note": self.note,
        }


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


def _banded(model: PreferenceModel, x: Lottery, y: Lottery) -> Ordering:
    """Ordering under the widened tie band of ``2 * eps_pref``.

    An oracle's gap is infinite or zero, so its verdict is ``compare``'s.
    """
    keys = model.keys(np.asarray([x.probs, y.probs]))
    gap = model.gaps(keys[:1], keys[1:])[0]
    if abs(gap) <= 2.0 * model.eps_pref:
        return Ordering.INDIFFERENT
    return Ordering.STRICTLY_PREFERS if gap > 0.0 else Ordering.STRICTLY_DISPREFERRED


def _consistent_patterns() -> frozenset:
    """All (r_xy, r_yz, r_xz) ordering triples realizable by real scores.

    Scores in {0, 1, 2} realize every weak order of three elements, so
    enumerating them enumerates exactly the transitive patterns.
    """
    def sgn(d: int) -> Ordering:
        if d > 0:
            return Ordering.STRICTLY_PREFERS
        if d < 0:
            return Ordering.STRICTLY_DISPREFERRED
        return Ordering.INDIFFERENT

    out = set()
    for a in range(3):
        for b in range(3):
            for c in range(3):
                out.add((sgn(a - b), sgn(b - c), sgn(a - c)))
    return frozenset(out)


_CONSISTENT = _consistent_patterns()


def check_rationality(
    model: PreferenceModel,
    samples,
    max_triples: int = 20000,
    seed: int = 0,
) -> AxiomReport:
    """Completeness and transitivity over the sampled lotteries.

    Completeness: every ordered pair compares without error and the two
    directions are converses.  Transitivity: no sampled triple shows an
    ordering pattern inconsistent with a total preorder.  Above
    ``max_triples`` the triples are subsampled with the given seed; the
    pair check always runs in full.  ``samples_checked`` counts pairs
    plus triples examined.
    """
    samples = list(samples)
    k = len(samples)
    if k < 3:
        raise ValueError(f"rationality needs at least 3 samples, got {k}")
    witnesses = []
    orderings: dict[tuple[int, int], Ordering] = {}
    for i, j in combinations(range(k), 2):
        try:
            fwd = model.compare(samples[i], samples[j])
            rev = model.compare(samples[j], samples[i])
        except Exception as exc:
            witnesses.append(
                Witness(
                    (samples[i], samples[j]),
                    None,
                    (),
                    f"comparison failed: {type(exc).__name__}: {exc}",
                )
            )
            continue
        if rev is not fwd.converse:
            witnesses.append(
                Witness(
                    (samples[i], samples[j]),
                    None,
                    (fwd, rev),
                    "swapped comparison is not the converse",
                )
            )
            continue
        orderings[(i, j)] = fwd

    total = math.comb(k, 3)
    if total <= max_triples:
        triples = combinations(range(k), 3)
        note = ""
    else:
        rng = np.random.default_rng(seed)
        draws = rng.integers(0, k, size=(max_triples, 3))
        triples = (
            tuple(sorted(row)) for row in draws.tolist() if len(set(row)) == 3
        )
        note = f"transitivity subsampled from {total} triples with seed {seed}"

    n_triples = 0
    seen = None if total <= max_triples else set()
    for i, j, l in triples:
        if seen is not None:
            if (i, j, l) in seen:
                continue
            seen.add((i, j, l))
        a = orderings.get((i, j))
        b = orderings.get((j, l))
        c = orderings.get((i, l))
        if a is None or b is None or c is None:
            continue
        n_triples += 1
        if (a, b, c) in _CONSISTENT:
            continue
        banded = (
            _banded(model, samples[i], samples[j]),
            _banded(model, samples[j], samples[l]),
            _banded(model, samples[i], samples[l]),
        )
        if banded in _CONSISTENT:
            continue
        witnesses.append(
            Witness(
                (samples[i], samples[j], samples[l]),
                None,
                (a, b, c),
                "intransitive triple",
            )
        )
    return _finish(
        "Rationality",
        witnesses,
        samples_checked=len(orderings) + n_triples,
        seed=seed,
        note=note,
    )


def check_nondegeneracy(model: PreferenceModel, samples) -> AxiomReport:
    """Passes as soon as any sampled pair is strict."""
    samples = list(samples)
    if not samples:
        raise ValueError("nondegeneracy needs at least one sample")
    checked = 0
    for i, j in combinations(range(len(samples)), 2):
        checked += 1
        if model.compare(samples[i], samples[j]) is not Ordering.INDIFFERENT:
            return _finish("Nondegeneracy", [], samples_checked=checked)
    return AxiomReport(
        axiom="Nondegeneracy",
        passed=False,
        witnesses=(),
        samples_checked=checked,
        note="every sampled pair is indifferent; no strict preference found",
    )


def check_betweenness(model: PreferenceModel, samples, lambdas) -> AxiomReport:
    """Strict mixtures of strict pairs must stay strictly between them.

    For each sampled pair with ``x`` strictly preferred to ``y`` and each
    interior weight, the mixture must be strictly below ``x`` and
    strictly above ``y``.  A violation is recorded only when the mixture
    robustly escapes the pair's preference interval; a mixture that
    merely ties an endpoint is treated as numeric noise.
    """
    samples = list(samples)
    lambdas = [float(l) for l in lambdas]
    if any(not 0.0 < l < 1.0 for l in lambdas):
        raise ValueError("mixture weights must lie strictly inside (0, 1)")
    witnesses = []
    checked = 0
    for i, j in combinations(range(len(samples)), 2):
        side = model.compare(samples[i], samples[j])
        if side is Ordering.INDIFFERENT:
            continue
        if side is Ordering.STRICTLY_PREFERS:
            x, y = samples[i], samples[j]
        else:
            x, y = samples[j], samples[i]
        for lam in lambdas:
            checked += 1
            z = mix(lam, x, y)
            above = model.compare(x, z)
            below = model.compare(z, y)
            bad_above = (
                above is Ordering.STRICTLY_DISPREFERRED
                and _banded(model, x, z) is Ordering.STRICTLY_DISPREFERRED
            )
            bad_below = (
                below is Ordering.STRICTLY_DISPREFERRED
                and _banded(model, z, y) is Ordering.STRICTLY_DISPREFERRED
            )
            if bad_above or bad_below:
                witnesses.append(
                    Witness(
                        (x, y, z),
                        lam,
                        (above, below),
                        "mixture escapes the preference interval of its parents",
                    )
                )
    return _finish("Betweenness", witnesses, samples_checked=checked)


def check_mixing_neutrality(model: PreferenceModel, samples, lambdas) -> AxiomReport:
    """Mixtures of indifferent lotteries must stay indifferent to both.

    When every sampled pair is indifferent the preference is degenerate
    and the mixture step is skipped as vacuous (noted in the report).
    """
    samples = list(samples)
    lambdas = [float(l) for l in lambdas]
    if any(not 0.0 < l < 1.0 for l in lambdas):
        raise ValueError("mixture weights must lie strictly inside (0, 1)")
    pairs = []
    any_strict = False
    for i, j in combinations(range(len(samples)), 2):
        if model.compare(samples[i], samples[j]) is Ordering.INDIFFERENT:
            pairs.append((samples[i], samples[j]))
        else:
            any_strict = True
    if pairs and not any_strict:
        return AxiomReport(
            axiom="MixingNeutrality",
            passed=True,
            witnesses=(),
            samples_checked=len(pairs),
            note="all sampled pairs are indifferent; mixture step vacuous on a degenerate preference",
        )
    witnesses = []
    checked = 0
    for x, y in pairs:
        for lam in lambdas:
            checked += 1
            z = mix(lam, x, y)
            to_x = model.compare(z, x)
            to_y = model.compare(z, y)
            bad_x = (
                to_x is not Ordering.INDIFFERENT
                and _banded(model, z, x) is not Ordering.INDIFFERENT
            )
            bad_y = (
                to_y is not Ordering.INDIFFERENT
                and _banded(model, z, y) is not Ordering.INDIFFERENT
            )
            if bad_x or bad_y:
                witnesses.append(
                    Witness(
                        (x, y, z),
                        lam,
                        (to_x, to_y),
                        "mixture of an indifferent pair is not indifferent to a parent",
                    )
                )
    note = "" if pairs else "no indifferent pairs among samples"
    return _finish("MixingNeutrality", witnesses, samples_checked=checked, note=note)


def check_continuity(model: PreferenceModel, samples, n_steps: int = 10) -> AxiomReport:
    """Finite-resolution consistency of comparisons under limits.

    For each sample ``x``, walk a sequence toward it along segments from
    each simplex vertex, comparing every step against each reference
    sample ``y``.  If the comparisons settle on one strict ordering along
    the tail of the sequence but the limit point compares strictly the
    other way, a discontinuity may have been observed.  It is recorded
    only if a far finer approach toward the same anchor still settles
    on that side: a continuous preference whose value gap to ``y`` is
    smaller than the last coarse step is then back on the limit's side.
    The axiom is topological, so a passing report means only
    "consistent at tested resolution".
    """
    samples = list(samples)
    if not samples:
        raise ValueError("continuity needs at least one sample")
    n_steps = int(n_steps)
    if n_steps < 5:
        raise ValueError(f"need at least 5 steps for a tail, got {n_steps}")
    n = model.n_outcomes
    anchors = [degenerate(i, n) for i in range(n)]
    lams = [0.5**k for k in range(1, n_steps + 1)]
    fine_lams = [0.5**k for k in range(37, 41)]
    witnesses = []
    checked = 0
    for x in samples:
        for z in anchors:
            if z.probs == x.probs:
                continue
            approach = [mix(lam, z, x) for lam in lams]
            for y in samples:
                checked += 1
                tail = [model.compare(p, y) for p in approach[-4:]]
                settled = tail[0]
                if settled is Ordering.INDIFFERENT or any(r is not settled for r in tail):
                    continue
                at_limit = model.compare(x, y)
                if at_limit is not settled.converse:
                    continue
                if _banded(model, x, y) is not settled.converse:
                    continue
                if _banded(model, approach[-1], y) is not settled:
                    continue
                if any(model.compare(mix(lam, z, x), y) is not settled for lam in fine_lams):
                    continue
                witnesses.append(
                    Witness(
                        (x, z, y, approach[-1]),
                        lams[-1],
                        (settled, at_limit),
                        "strict comparison reverses at the limit of the approach",
                    )
                )
    return _finish(
        "Continuity",
        witnesses,
        samples_checked=checked,
        note="consistent at tested resolution" if not witnesses else "",
    )


def run_all_checks(
    model: PreferenceModel,
    samples,
    lambdas,
    max_triples: int = 20000,
    seed: int = 0,
) -> list[AxiomReport]:
    """All five axiom checks on one sample set, in a fixed order."""
    return [
        check_rationality(model, samples, max_triples=max_triples, seed=seed),
        check_nondegeneracy(model, samples),
        check_continuity(model, samples),
        check_betweenness(model, samples, lambdas),
        check_mixing_neutrality(model, samples, lambdas),
    ]
