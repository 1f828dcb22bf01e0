"""Randomized statement checking: battery composition, determinism, replay records."""

import json
import math
import random
from fractions import Fraction

import pytest

from dualrisk import (
    DomainError,
    DualPower,
    Identity,
    Quadratic,
    SignClass,
    THEOREMS,
    converse_check,
    converse_witness_search,
    direct_battery,
    direct_check,
    dt_value,
    eval_h,
    finite_difference,
    finite_difference_sign,
    preference_direction,
    random_base,
    random_mixed_tabulated,
    random_pair,
    rebuild_pair,
    run_theorem,
    PairProvenance,
    Polynomial,
    Tabulated,
)
from dualrisk.weighting import difference_grid

from oracles import aligned_windows_mixed, converse_witness_windows, direct_battery_rebuild, interp_linear_scan

F = Fraction


def _reference_window(knots, m: int, j: int, n: int) -> Fraction:
    """Delta^m_{1/n} h(j/n) for the piecewise-linear h through knots."""
    return sum(
        (-1) ** (m - k) * math.comb(m, k) * interp_linear_scan(knots, F(j + k, n)) for k in range(m + 1)
    )


class TestBattery:
    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_composition(self, m):
        battery = direct_battery(m)
        relations = [rel for _, rel in battery]
        assert relations.count("le") == 2
        assert (DualPower(m), "ge") in battery
        assert (Identity(), "eq") in battery
        # every lower-order dual power is a zero-derivative control
        for j in range(1, m):
            assert (DualPower(j), "eq") in battery

    def test_rng_adds_a_mixture(self):
        plain = direct_battery(3)
        seeded = direct_battery(3, random.Random(0))
        assert len(seeded) == len(plain) + 1

    def test_order_one_rejected(self):
        with pytest.raises(DomainError):
            direct_battery(1)

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_mutating_a_battery_leaves_the_next_unchanged(self, m):
        first = direct_battery(m, random.Random(1))
        expected = list(first)
        first.clear()
        again = direct_battery(m, random.Random(1))
        assert again == expected
        again.append((Identity(), "le"))
        again[0] = (Identity(), "le")
        assert direct_battery(m, random.Random(1)) == expected
        assert direct_battery(m) == [entry for i, entry in enumerate(expected) if i != 7 - m]

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_seeded_batteries_differ_only_in_the_mixture(self, m):
        rng = random.Random(40 + m)
        a, b = direct_battery(m, rng), direct_battery(m, rng)
        assert len(a) == len(b)
        differing = [i for i, (x, y) in enumerate(zip(a, b)) if x != y]
        assert differing == [7 - m]  # the mixture follows DualPower(m..6)
        assert a[7 - m][1] == b[7 - m][1] == "ge"
        assert isinstance(a[7 - m][0], Polynomial)

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 8, 9])
    def test_order_matches_a_fresh_build(self, m):
        assert direct_battery(m, random.Random(m)) == direct_battery_rebuild(m, random.Random(m))

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 8, 9])
    def test_battery_is_honest_on_a_known_pair(self, m):
        # the battery's stated relations must themselves hold on a clean
        # minimal-gap pair, otherwise direct runs would flag good pairs
        rng = random.Random(m)
        pair = random_pair(rng, m)
        assert direct_check(pair, rng) == []


class TestRandomSources:
    def test_random_base_shape(self):
        rng = random.Random(7)
        for m in (2, 3, 4, 5):
            base = random_base(rng, m)
            assert base.n >= m
            gaps = [b - a for a, b in zip(base.outcomes, base.outcomes[1:])]
            assert all(g >= 1 for g in gaps)

    def test_random_pair_is_rankable_and_valid(self):
        rng = random.Random(13)
        for m in (2, 3, 4, 5):
            pair = random_pair(rng, m)
            assert pair.order == m
            assert list(pair.c.outcomes) == sorted(pair.c.outcomes)
            assert list(pair.d.outcomes) == sorted(pair.d.outcomes)

    def test_random_mixed_tabulated_certificate(self):
        rng = random.Random(3)
        for m in (3, 4):
            w = random_mixed_tabulated(rng, m)
            cert = finite_difference_sign(w, m, 256)
            assert cert.kind is SignClass.MIXED


class TestConverse:
    def test_vacuous_for_right_sign_weighting(self):
        record = converse_check(DualPower(3), 3)
        assert record["status"] == "vacuous"
        assert record["certificate"] == "non-negative"

    def test_vacuous_for_zero_derivative(self):
        record = converse_check(Quadratic(F(1, 2)), 3)
        assert record["status"] == "vacuous"

    def test_violation_record_replays(self):
        rng = random.Random(5)
        w = random_mixed_tabulated(rng, 3)
        record = converse_check(w, 3)
        assert record["status"] == "violation"
        assert record["direction"] == -1
        pair = rebuild_pair(PairProvenance.from_json(json.dumps(record["pair"])))
        assert dt_value(pair.d, w) < dt_value(pair.c, w)

    def test_witness_search_finds_the_window(self):
        rng = random.Random(9)
        w = random_mixed_tabulated(rng, 4)
        found = converse_witness_search(difference_grid(w, 4, 256), 4)
        assert found is not None
        n, j, window = found
        assert window > 0
        assert finite_difference(w, 4, F(j, n), F(1, n)) == window

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_witness_has_the_fewest_states(self, m):
        rng = random.Random(70 + m)
        for _ in range(6):
            w = random_mixed_tabulated(rng, m)
            record = converse_check(w, m)
            assert record["status"] == "violation", record
            n = record["n"]
            assert n <= len(w.knots) - 1
            for d in range(max(m, 2), n):
                if 256 % d:
                    continue
                for j in range(d - m + 1):
                    window = _reference_window(w.knots, m, j, d)
                    assert not ((window < 0) if m % 2 == 1 else (window > 0)), (d, j, window)
            pair = rebuild_pair(PairProvenance.from_json(json.dumps(record["pair"])))
            assert record["direction"] == preference_direction(pair, w) == -1

    def test_witness_search_none_for_clean_weighting(self):
        assert converse_witness_search(difference_grid(DualPower(4), 4, 256), 4) is None


def _draw_knots(rng: random.Random):
    """(Tabulated, K): one candidate drawn as random_mixed_tabulated draws it."""
    k = rng.choice((8, 16, 32))
    knots = [(F(0), F(0))]
    knots += [(F(i, k), F(i, k) + F(rng.randint(-4, 4), 32 * k)) for i in range(1, k)]
    return Tabulated((*knots, (F(1), F(1)))), k


class TestOneGrid:
    """The draw, the certificate and the witness search read one evaluated grid."""

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_draw_acceptance_matches_the_aligned_window_rule(self, m):
        # seeded draws are nearly always Mixed; the knots of DualPower(5)
        # and of the diagonal, bare or with one knot raised, are the
        # draws the rule must turn down or may accept
        rng = random.Random(100 + m)
        candidates = [_draw_knots(rng) for _ in range(40)]
        for k in (8, 16, 32):
            diagonal = [(F(i, k), F(i, k)) for i in range(k + 1)]
            candidates.append((Tabulated(tuple(diagonal)), k))
            candidates.append((Tabulated(tuple((p, eval_h(DualPower(5), p)) for p, _ in diagonal)), k))
            for i in (1, k // 2, k - 1):
                bumped = list(diagonal)
                bumped[i] = (F(i, k), F(i, k) + F(1, 8 * k))
                candidates.append((Tabulated(tuple(bumped)), k))
        seen = set()
        for w, k in candidates:
            mixed = finite_difference_sign(w, m, k).kind is SignClass.MIXED
            assert mixed == aligned_windows_mixed(w, m, k)
            seen.add(mixed)
        assert seen == {True, False}

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_draws_are_the_first_candidates_the_window_rule_accepts(self, m):
        rng, shadow = random.Random(200 + m), random.Random(200 + m)
        for _ in range(8):
            w = random_mixed_tabulated(rng, m)
            candidate, k = _draw_knots(shadow)
            while not aligned_windows_mixed(candidate, m, k):
                candidate, k = _draw_knots(shadow)
            assert w == candidate

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_witness_search_matches_the_window_by_window_search(self, m):
        rng = random.Random(400 + m)
        for w in [DualPower(m)] + [random_mixed_tabulated(rng, m) for _ in range(10)]:
            assert converse_witness_search(difference_grid(w, m, 256), m) == converse_witness_windows(w, m, 256)

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_converse_check_evaluates_h_once_per_grid_point(self, m, monkeypatch):
        import dualrisk.weighting as weighting

        calls = []
        real = weighting.eval_h

        def counted(w, p):
            calls.append(p)
            return real(w, p)

        w = random_mixed_tabulated(random.Random(300 + m), m)
        monkeypatch.setattr(weighting, "eval_h", counted)
        assert converse_check(w, m)["status"] == "violation"
        assert len(calls) == 257 + m + 1  # the grid, then the survival-form window
        calls.clear()
        assert converse_check(DualPower(m), m)["status"] == "vacuous"
        assert len(calls) == 257


class TestRunTheorem:
    @pytest.mark.parametrize("theorem", sorted(THEOREMS))
    def test_small_runs_pass(self, theorem):
        kind, orders = THEOREMS[theorem]
        reports = run_theorem(theorem, trials=4, seed=20)
        assert [r.order for r in reports] == list(orders)
        for report in reports:
            assert report.kind == kind
            assert report.theorem == theorem
            assert report.trials == 4
            assert report.passed
            assert report.failures == ()

    def test_deterministic_given_seed(self):
        a = run_theorem(5, trials=3, seed=77)
        b = run_theorem(5, trials=3, seed=77)
        assert a == b

    def test_seed_changes_the_draws(self):
        rng_a, rng_b = random.Random(1 * 1000003 + 3), random.Random(2 * 1000003 + 3)
        assert random_pair(rng_a, 3) != random_pair(rng_b, 3)

    def test_unknown_statement_number(self):
        with pytest.raises(DomainError):
            run_theorem(7, trials=1, seed=0)
