import itertools
import math

import numpy as np
import pytest

from betweenu import (
    AxiomReport,
    BlackBoxOracle,
    Ordering,
    WeightedUtility,
    Witness,
    check_betweenness,
    check_continuity,
    check_mixing_neutrality,
    check_nondegeneracy,
    check_rationality,
    cyclic_oracle,
    degenerate,
    grid,
    jump_oracle,
    lottery,
    mix,
    oracle_from_value,
    quadratic_oracle,
    run_all_checks,
)
from betweenu import axioms
from betweenu.axioms import _finish, _keyed, _orderings, _signs, _triples
from betweenu.models import classify
from betweenu.simplex import mix_rows

from conftest import solver_models

LAMBDAS = tuple(k / 10 for k in range(1, 10))


def samples3():
    return sorted(grid(3, 6))


def samples2():
    return sorted(grid(2, 8))


class TestReportInvariants:
    def test_passed_requires_no_witnesses(self):
        w = Witness(lotteries=(), lam=None, observed=(), note="x")
        with pytest.raises(ValueError):
            AxiomReport(axiom="Rationality", passed=True, witnesses=(w,), samples_checked=1)

    def test_witness_serializates(self):
        w = Witness(
            lotteries=(sorted(grid(2, 2))[0],),
            lam=0.5,
            observed=(Ordering.INDIFFERENT,),
            note="n",
        )
        d = w.to_dict()
        assert d["observed"] == ["indifferent"]
        assert d["lam"] == 0.5


class TestCleanFamiliesPass:
    def test_all_checks_pass(self, family_model):
        for report in run_all_checks(family_model, samples3(), LAMBDAS):
            assert report.passed, (report.axiom, report.witnesses[:2])

    def test_report_order_and_names(self, eu_model):
        names = [r.axiom for r in run_all_checks(eu_model, samples3(), LAMBDAS)]
        assert names == [
            "Rationality",
            "Nondegeneracy",
            "Continuity",
            "Betweenness",
            "MixingNeutrality",
        ]


class TestRationality:
    def test_cyclic_oracle_flagged(self):
        report = check_rationality(cyclic_oracle(), samples3())
        assert not report.passed
        assert report.witnesses

    def test_witnesses_replay(self):
        model = cyclic_oracle()
        report = check_rationality(model, samples3())
        for w in report.witnesses[:5]:
            assert len(w.lotteries) == 3
            a, b, c = w.lotteries
            replay = (
                model.compare(a, b),
                model.compare(b, c),
                model.compare(a, c),
            )
            assert replay == w.observed

    def test_raising_oracle_records_failed_pair(self):
        pts = samples3()
        a, b = pts[3], pts[10]
        base = oracle_from_value(lambda x: x.probs[2], 3).compare_fn

        def compare_fn(x, y):
            if (x, y) == (a, b):
                raise RuntimeError("oracle down")
            return base(x, y)

        report = check_rationality(BlackBoxOracle(compare_fn, 3), pts)
        assert [w.to_dict() for w in report.witnesses] == [
            Witness((a, b), None, (), "comparison failed: RuntimeError: oracle down").to_dict()
        ]
        k = len(pts)
        # The failed pair drops out of the pair count and of every triple.
        assert report.samples_checked == math.comb(k, 2) - 1 + math.comb(k, 3) - (k - 2)

    def test_pair_strict_both_ways_is_recorded(self):
        pts = samples3()
        a, b = pts[3], pts[10]
        base = oracle_from_value(lambda x: x.probs[2], 3).compare_fn

        def compare_fn(x, y):
            if {x.probs, y.probs} == {a.probs, b.probs}:
                return Ordering.STRICTLY_PREFERS
            return base(x, y)

        report = check_rationality(BlackBoxOracle(compare_fn, 3), pts)
        both = (Ordering.STRICTLY_PREFERS, Ordering.STRICTLY_PREFERS)
        assert [w.to_dict() for w in report.witnesses] == [
            Witness((a, b), None, both, "swapped comparison is not the converse").to_dict()
        ]
        k = len(pts)
        # The pair drops out of the pair count and of every triple.
        assert report.samples_checked == math.comb(k, 2) - 1 + math.comb(k, 3) - (k - 2)

    def test_needs_three_samples(self, eu_model):
        with pytest.raises(ValueError):
            check_rationality(eu_model, samples3()[:2])

    def test_negative_seed_rejected_up_front(self, eu_model):
        # 28 samples give 3,276 triples, so the seed would never be drawn from.
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            check_rationality(eu_model, samples3(), seed=-1)

    def test_subsampling_is_seeded_and_reported(self, eu_model):
        pts = sorted(grid(3, 9))  # 26,235 triples
        r1 = check_rationality(eu_model, pts, seed=7)
        r2 = check_rationality(eu_model, pts, seed=7)
        assert "seed 7" in r1.note and "subsampled" in r1.note
        assert r1.samples_checked == r2.samples_checked
        assert r1.witnesses == r2.witnesses


def unique_draws(k: int, seed: int) -> np.ndarray:
    """``np.unique(draws, axis=0)`` over the rows of three distinct sample
    indices among 20,000 sorted draws with ``seed``."""
    rng = np.random.default_rng(seed)
    draws = np.sort(rng.integers(0, k, size=(20000, 3)), axis=1)
    draws = draws[(draws[:, 0] < draws[:, 1]) & (draws[:, 1] < draws[:, 2])]
    return np.unique(draws, axis=0)


class TestTransitivitySubsample:
    @pytest.mark.parametrize("k", [51, 55, 80])
    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_triples_are_the_unique_draws_in_row_order(self, k, seed):
        triples, note = _triples(k, seed)
        expected = unique_draws(k, seed)
        assert triples.dtype == expected.dtype
        assert triples.shape == expected.shape
        assert np.array_equal(triples, expected)
        assert note == f"transitivity subsampled from {math.comb(k, 3)} triples with seed {seed}"

    @pytest.mark.parametrize("k", [51, 55, 80])
    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_check_rationality_checks_the_unique_draws(self, monkeypatch, eu_model, k, seed):
        samples = sorted(grid(3, 12))[:k]
        keys = eu_model.keys(np.asarray([x.probs for x in samples]))
        i, j, l = unique_draws(k, seed).T
        # Each triple's forward gaps (ij, jl, il), in the expected row order.
        expected = np.stack([keys[i] - keys[j], keys[j] - keys[l], keys[i] - keys[l]])
        seen = []

        def spy(model, gaps):
            seen.append(gaps)
            return _signs(model, gaps)

        monkeypatch.setattr(axioms, "_signs", spy)
        report = check_rationality(eu_model, samples, seed=seed)
        assert len(seen) == 1 and np.array_equal(seen[0], expected)
        assert report.passed
        assert report.note == f"transitivity subsampled from {math.comb(k, 3)} triples with seed {seed}"
        assert report.samples_checked == math.comb(k, 2) + len(i)

    def test_fifty_samples_are_checked_exhaustively(self, eu_model):
        samples = sorted(grid(3, 9))[:50]  # 19,600 triples
        triples, note = _triples(50, 0)
        assert note == ""
        assert triples.tolist() == [list(t) for t in itertools.combinations(range(50), 3)]
        report = check_rationality(eu_model, samples, seed=7)
        assert report.note == ""
        assert report.samples_checked == math.comb(50, 2) + math.comb(50, 3)


class TestNondegeneracy:
    def test_constant_preference_flagged(self):
        flat = oracle_from_value(lambda x: 0.0, 3)
        report = check_nondegeneracy(flat, samples3())
        assert not report.passed
        assert "no strict preference" in report.note

    def test_any_strict_pair_passes(self, eu_model):
        assert check_nondegeneracy(eu_model, samples3()).passed


class TestBetweenness:
    def test_quadratic_oracle_flagged_with_replayable_witnesses(self):
        model = quadratic_oracle()
        report = check_betweenness(model, samples3(), LAMBDAS)
        assert not report.passed
        for w in report.witnesses[:5]:
            x, y, z = w.lotteries
            above, below = w.observed
            bad_above = model.compare(x, z) is Ordering.STRICTLY_DISPREFERRED
            bad_below = model.compare(z, y) is Ordering.STRICTLY_DISPREFERRED
            assert bad_above or bad_below
            assert (model.compare(x, z), model.compare(z, y)) == (above, below)

    def test_lambdas_validated(self, eu_model):
        with pytest.raises(ValueError):
            check_betweenness(eu_model, samples3(), (0.0, 0.5))


class TestMixtureWitnesses:
    """A mixture witness holds the row that was keyed and compared; on the
    CLI's grids that row is ``mix(lam, x, y)`` bit for bit."""

    @pytest.mark.parametrize(
        "model, resolution",
        [(quadratic_oracle(), 6), (quadratic_oracle(), 9), (jump_oracle(), 6), (cyclic_oracle(), 6)],
        ids=["quadratic-6", "quadratic-9", "jump-6", "cyclic-6"],
    )
    def test_third_lottery_is_the_mixture(self, model, resolution):
        samples = sorted(grid(model.n_outcomes, resolution))
        witnesses = [
            w
            for check in (check_betweenness, check_mixing_neutrality)
            for w in check(model, samples, LAMBDAS).witnesses
        ]
        assert witnesses
        for w in witnesses:
            x, y, z = w.lotteries
            assert [p.hex() for p in z.probs] == [p.hex() for p in mix(w.lam, x, y).probs]


class TestMixingNeutrality:
    def test_vacuous_on_degenerate_preference(self):
        flat = oracle_from_value(lambda x: 0.0, 3)
        report = check_mixing_neutrality(flat, samples3(), LAMBDAS)
        assert report.passed
        assert "vacuous" in report.note

    def test_quadratic_oracle_flagged(self):
        report = check_mixing_neutrality(quadratic_oracle(), samples3(), LAMBDAS)
        assert not report.passed

    def test_quadratic_witnesses_replay(self):
        model = quadratic_oracle()
        report = check_mixing_neutrality(model, samples3(), LAMBDAS)
        assert report.witnesses
        for w in report.witnesses:
            x, y, z = w.lotteries
            assert model.compare(x, y) is Ordering.INDIFFERENT
            assert z == mix(w.lam, x, y)
            assert (model.compare(z, x), model.compare(z, y)) == w.observed
            assert w.observed != (Ordering.INDIFFERENT, Ordering.INDIFFERENT)


class TestContinuity:
    def test_jump_oracle_flagged(self):
        report = check_continuity(jump_oracle(), samples2())
        assert not report.passed
        assert report.witnesses

    def test_jump_witnesses_replay(self):
        model = jump_oracle()
        report = check_continuity(model, samples2())
        for w in report.witnesses:
            x, _anchor, y, near = w.lotteries
            settled, at_limit = w.observed
            assert model.compare(near, y) is settled
            assert model.compare(x, y) is at_limit
            assert at_limit is settled.converse

    def test_smooth_model_passes(self, da_model):
        assert check_continuity(da_model, samples3()).passed

    def test_value_gap_below_last_step_passes(self):
        # Some sampled value gaps here (4.2e-4) are smaller than the value
        # moved by the last approach step (4.5e-4 at 2^-10); only the finer
        # confirmation tells the continuous model from a jump.
        model = WeightedUtility((0.0, 0.3, 0.7, 1.0), (1.0, 2.0, 0.5, 1.5))
        assert check_continuity(model, sorted(grid(4, 6))).passed


def four_step_continuity(model, samples) -> dict:
    """The continuity rule that compares all four tail steps with every
    reference sample, as ``check_continuity`` did before it compared the
    nearest step first."""
    samples, rows, keys = _keyed(model, samples)
    m = len(samples)
    tail_lams = np.asarray([0.5**k for k in range(7, 11)])
    fine_lams = np.asarray([0.5**k for k in range(37, 41)])

    def gaps_along(lams, z, x_row, ky):
        kp = model.keys(mix_rows(lams, z.as_array(), x_row))
        gaps = model.gaps(np.repeat(kp, len(ky)), np.tile(ky, len(lams)))
        return gaps.reshape(len(lams), len(ky))

    witnesses, checked = [], 0
    for xi, x in enumerate(samples):
        at_limit, limit_robust = _signs(model, model.gaps(keys[[xi] * m], keys))
        for i in range(model.n_outcomes):
            z = degenerate(i, model.n_outcomes)
            if z.probs == x.probs:
                continue
            checked += m
            tail, tail_robust = _signs(model, gaps_along(tail_lams, z, rows[xi], keys))
            settled = tail[0]
            suspects = np.flatnonzero(
                (settled != 0)
                & (tail == settled).all(axis=0)
                & (limit_robust == -settled)
                & (tail_robust[-1] == settled)
            )
            if suspects.size:
                fine = classify(gaps_along(fine_lams, z, rows[xi], keys[suspects]), model.eps_pref)
                suspects = suspects[(fine == settled[suspects]).all(axis=0)]
            witnesses += [
                Witness(
                    (x, z, samples[yi], mix(0.5**10, z, x)),
                    0.5**10,
                    _orderings(settled[yi], at_limit[yi]),
                    "strict comparison reverses at the limit of the approach",
                )
                for yi in suspects
            ]
    note = "consistent at tested resolution" if not witnesses else ""
    return _finish("Continuity", witnesses, samples_checked=checked, note=note).to_dict()


def continuity_models() -> dict:
    return {
        **solver_models(),
        "quadratic": quadratic_oracle(),
        "jump": jump_oracle(),
    }


def pocket_oracle(width: float) -> BlackBoxOracle:
    """Two outcomes, valued ``p1 - 0.2`` except on the pocket ``0.5 - width
    < p1 < 0.5``, which is worth 1.  Approaching (0.5, 0.5) from (1, 0)
    with weight ``lam`` on the vertex lands at ``p1 = 0.5 - lam / 2``, so
    a pocket of width ``2 ** -10`` holds only the nearest tail step and
    one of width ``2 ** -7`` holds all four."""

    def value(x):
        p1 = x.probs[1]
        return 1.0 if 0.5 - width < p1 < 0.5 else p1 - 0.2

    return oracle_from_value(value, 2)


#: The limit (0.5, 0.5) is worth 0.3 and the reference (0.3, 0.7) 0.5.
POCKET_SAMPLES = (lottery((0.3, 0.7)), lottery((0.5, 0.5)))


class TestNearestStepFirst:
    @pytest.mark.parametrize("name", sorted(continuity_models()))
    def test_matches_four_step_rule(self, name):
        model = continuity_models()[name]
        samples = sorted(grid(model.n_outcomes, 6))
        assert check_continuity(model, samples).to_dict() == four_step_continuity(model, samples)

    def test_reversal_at_the_nearest_step_alone_is_no_witness(self):
        model = pocket_oracle(0.5**10)
        x, y = POCKET_SAMPLES[1], POCKET_SAMPLES[0]
        z = degenerate(0, 2)
        assert model.compare(mix(0.5**10, z, x), y) is Ordering.STRICTLY_PREFERS
        assert model.compare(mix(0.5**9, z, x), y) is Ordering.STRICTLY_DISPREFERRED
        report = check_continuity(model, POCKET_SAMPLES)
        assert report.passed
        assert report.to_dict() == four_step_continuity(model, POCKET_SAMPLES)

    def test_reversal_along_the_whole_tail_is_a_witness(self):
        model = pocket_oracle(0.5**7)
        report = check_continuity(model, POCKET_SAMPLES)
        x, y = POCKET_SAMPLES[1], POCKET_SAMPLES[0]
        assert [w.lotteries for w in report.witnesses] == [
            (x, degenerate(0, 2), y, mix(0.5**10, degenerate(0, 2), x))
        ]
        assert report.to_dict() == four_step_continuity(model, POCKET_SAMPLES)

    def test_cyclic_oracle_call_count(self):
        # The four-step rule made 9,880 comparisons here.
        oracle = cyclic_oracle()
        answer, calls = oracle.compare_fn, []

        def counted(x, y):
            calls.append(None)
            return answer(x, y)

        oracle.compare_fn = counted
        check_continuity(oracle, sorted(grid(3, 6)))
        assert len(calls) == 3094


class TestDeterminism:
    def test_witness_lists_are_sorted_and_stable(self):
        model = quadratic_oracle()
        r1 = check_betweenness(model, samples3(), LAMBDAS)
        r2 = check_betweenness(model, samples3(), LAMBDAS)
        assert [w.to_dict() for w in r1.witnesses] == [w.to_dict() for w in r2.witnesses]
        keys = [w.sort_key() for w in r1.witnesses]
        assert keys == sorted(keys)
