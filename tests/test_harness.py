"""Randomized statement checking: battery composition, determinism, replay records."""

import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualrisk import (
    ApportionmentPair,
    DomainError,
    DualPower,
    EqualProbLottery,
    Identity,
    Quadratic,
    SignClass,
    THEOREMS,
    converse_check,
    converse_witness_search,
    direct_battery,
    dual_power_mixture,
    direct_check,
    dt_value,
    eval_h,
    finite_difference_sign,
    format_lottery_text,
    format_weighting,
    hbar_finite_difference,
    make_block,
    make_pair,
    make_parsimonious_pair,
    preference_direction,
    random_base,
    random_mixed_tabulated,
    random_pair,
    run_theorem,
    Polynomial,
    Power,
    Prelec,
    Tabulated,
)
from dualrisk import apportionment as apportionment_module
from dualrisk import harness as harness_module
from dualrisk import valuation as valuation_module
from dualrisk.cli import main as cli_main
from dualrisk.harness import run_trials
from dualrisk.weighting import _integer_coeffs, difference_grid, difference_sign

from oracles import (
    aligned_windows_mixed,
    converse_witness_windows,
    direct_battery_rebuild,
    finite_difference,
    interp_linear_scan,
)

F = Fraction


def _kernel_signs(pair, rows) -> list[int]:
    """The battery kernel's sign for each integer row (hs, scale) on pair."""
    jumps, d, _, top = pair._gap_jumps
    return valuation_module._poly_signs(rows, jumps, d, top)


def _reference_window(knots, m: int, j: int, n: int) -> Fraction:
    """Delta^m_{1/n} h(j/n) for the piecewise-linear h through knots."""
    return sum(
        (-1) ** (m - k) * math.comb(m, k) * interp_linear_scan(knots, F(j + k, n)) for k in range(m + 1)
    )


class TestBattery:
    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_composition(self, m):
        battery = direct_battery(m, random.Random(m))
        relations = [rel for _, rel in battery]
        assert relations.count("le") == 2
        assert (DualPower(m), "ge") in battery
        assert (Identity(), "eq") in battery
        # every lower-order dual power is a zero-derivative control
        for j in range(1, m):
            assert (DualPower(j), "eq") in battery

    def test_order_one_rejected(self):
        with pytest.raises(DomainError):
            direct_battery(1, random.Random(0))

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
        for seed in (m, *range(8)):
            battery = direct_battery(m, random.Random(seed))
            rebuilt = direct_battery_rebuild(m, random.Random(seed))
            assert battery == rebuilt
            assert [(format_weighting(w), rel) for w, rel in battery] == [
                (format_weighting(w), rel) for w, rel in rebuilt
            ]

    @given(st.integers(0, 2**64), st.integers(2, 10))
    @settings(max_examples=200, deadline=None)
    def test_any_seed_matches_a_fresh_build(self, seed, m):
        # the mixture's int weights take the draws the Fraction build took,
        # so both rngs end in the same state
        rng, twin = random.Random(seed), random.Random(seed)
        battery = direct_battery(m, rng)
        rebuilt = direct_battery_rebuild(m, twin)
        assert battery == rebuilt
        assert [(format_weighting(w), rel) for w, rel in battery] == [
            (format_weighting(w), rel) for w, rel in rebuilt
        ]
        assert rng.getstate() == twin.getstate()

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 8, 9])
    def test_battery_is_honest_on_a_known_pair(self, m):
        # the battery's stated relations must themselves hold on a clean
        # minimal-gap pair, otherwise direct runs would flag good pairs
        rng = random.Random(m)
        pair = random_pair(rng, m)
        assert direct_check(pair, rng) == ()


class TestBatteryKernel:
    """direct_check ranks its whole battery from one power-sum sweep per
    pair (valuation._poly_signs); each sign is the one preference_direction
    reads off that member alone."""

    EXTRA = (
        Identity(),
        Quadratic(F(1, 3)),
        Power(4),
        *(DualPower(j) for j in (1, 2, 7, 12)),
        Polynomial((F(0), F(5, 3), F(-2, 3))),
        dual_power_mixture({2: F(1, 3), 9: F(2, 3)}),
    )

    @given(st.integers(0, 2**64), st.integers(2, 10))
    @settings(max_examples=150, deadline=None)
    def test_every_member_and_extra_row_matches_preference_direction(self, seed, m):
        rng = random.Random(seed)
        pair = random_pair(rng, m)
        battery, _ = harness_module._battery(m, rng)
        members = [(w, row) for w, _, row in battery] + [(w, _integer_coeffs(w)) for w in self.EXTRA]
        assert _kernel_signs(pair, [row for _, row in members]) == [
            preference_direction(pair, w) for w, _ in members
        ]

    @pytest.mark.parametrize("m", range(2, 11))
    def test_monomials_nest_at_the_pair_order(self, m):
        # the pair keeps every gap under p^j, j < m, at 0 and ranks D strictly
        # by the sign (-1)^(m-1) of the m-th derivative of p^m
        rng = random.Random(900 + m)
        rows = [([0] * j + [1], 1) for j in range(1, m + 1)]
        want = [0] * (m - 1) + [(-1) ** (m - 1)]
        for _ in range(30):
            pair = random_pair(rng, m)
            assert _kernel_signs(pair, rows) == want
            assert [preference_direction(pair, Power(j)) for j in range(1, m + 1)] == want

    def test_direct_check_makes_no_per_member_ranking(self, monkeypatch):
        calls = []
        real = valuation_module._ratio
        monkeypatch.setattr(apportionment_module, "_ratio", lambda *args: calls.append(args) or real(*args))
        rng = random.Random(3)
        assert direct_check(random_pair(rng, 3), rng) == ()
        assert calls == []  # preference_direction's kernel call, made for no member


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

    @pytest.mark.parametrize("m", [6, 7, 8])
    def test_random_pair_redraws_a_draw_that_breaks_the_ranking(self, m):
        # block entries reach 20 times an amplitude of up to 1/32 at order 8,
        # enough to reverse two base states one apart (seeds 1-4 draw such
        # configurations within 100 pairs); they are redrawn, not raised
        for seed in range(5):
            rng = random.Random(seed)
            for _ in range(100):
                pair = random_pair(rng, m)
                assert pair.order == m
                assert list(pair.d.outcomes) == sorted(pair.d.outcomes)

    # sha256 over the provenance JSON and the C and D lottery files of 50
    # random_pair draws per seed and order, recorded from the Fraction build
    # that the integer build replaced: the draw stream may not move
    STREAM_DIGESTS = {
        (7, 2): "9a7c1f03a624f03e4e0b13002ffb0a9c3a12cb2ada9a3ba01dbeed7098956bde",
        (7, 3): "5bebf110ecade984b01e5ce2592899f6906b146839bc4c5706cab5162ea3952f",
        (7, 4): "746d94b6be0a594469fed52f200ffa0c6e23f9bc108ca7340d7ab18726bb920e",
        (7, 5): "f4cffcca4b51a9b4075fad48b964b9bcd356b210a0a6c0c4f7ca5670e635f75a",
        (23, 2): "7684d9edd7194d9ebc6cdff55f0a3fd0c7fd5fed14dfecbe7746f0b91377b48e",
        (23, 3): "232a33291d6014bfd04dc8fcb3ed43ef8e283147142703834106cb3c3fb1c7d0",
        (23, 4): "bd979cfc82353f34838de58fa4e9c0a5d0adee13256d50ec88abc2329e55d56d",
        (23, 5): "b2a5e5ad64d107d3caa2e0d71f1ec152ae61fa66419da2310ee5543dd78986cf",
    }

    @pytest.mark.parametrize("seed,m", sorted(STREAM_DIGESTS))
    def test_random_pair_draw_stream_is_pinned(self, seed, m):
        rng = random.Random(seed)
        digest = hashlib.sha256()
        for _ in range(50):
            pair = random_pair(rng, m)
            digest.update(pair.to_json().encode())
            digest.update(format_lottery_text(pair.c).encode())
            digest.update(format_lottery_text(pair.d).encode())
        assert digest.hexdigest() == self.STREAM_DIGESTS[seed, m]

    # sha256 over the direction of every member of the seeded battery, and the
    # probe's moved-state gap, for 50 pairs per order drawn as
    # run_trials draws them at seed 7; recorded from the build that
    # read each sign off a Fraction gap: the integer kernels may not move
    # one sign
    DIRECTION_DIGESTS = {
        2: "8bc2c89e7d7ced7294027637437bf41a8d5416b81f0148474c2d39378c4b7b6e",
        3: "8e003ae2840fba8ad729e10cfddb18411c920b1313cdd098d7f823459dec0e4d",
        4: "75b8d49f0733b78a51851d2f51e52a67478eddd0b88ba66d838e0ce7651245ac",
        5: "ead1e0364fcc170899af3f2b77a0df39947a40cffb910fb831395aeac7b83d29",
        6: "6bc041f6d4b71e46de9a6b773c81951c9014deb4dda2900c082364ab7c3417aa",
        7: "3a2e4f5412b2d5a395783e6aaf8c317058854c18a7b853e4423d04b89410373c",
        8: "ec5529ae97ebaf3d8ffdc573565f312ec5189729e8af4874c2d371b4c258948b",
    }

    @pytest.mark.parametrize("m", sorted(DIRECTION_DIGESTS))
    def test_direct_check_directions_are_pinned(self, m):
        rng = random.Random(7 * 1000003 + m)
        digest = hashlib.sha256()
        for _ in range(50):
            pair = random_pair(rng, m)
            twin = random.Random()
            twin.setstate(rng.getstate())
            battery, probe = harness_module._battery(m, twin)
            assert direct_check(pair, rng) == ()
            directions = [preference_direction(pair, w) for w, _, _ in battery]
            assert _kernel_signs(pair, [row for _, _, row in battery]) == directions
            gap = apportionment_module.moved_state_gap(pair, probe)
            digest.update(f"{directions} {gap}\n".encode())
        assert digest.hexdigest() == self.DIRECTION_DIGESTS[m]

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
        pair = ApportionmentPair.from_json(json.dumps(record["pair"]))
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
            pair = ApportionmentPair.from_json(json.dumps(record["pair"]))
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
        assert len(calls) == 257  # the grid alone: the witness gap reads no h
        calls.clear()
        assert converse_check(DualPower(m), m)["status"] == "vacuous"
        assert len(calls) == 257


class TestExhaustiveSmallGrid:
    """The equivalence on every weighting of a small universe: each
    monotone Tabulated on the grid 1/6 with values in {0, 1/6, ..., 1}.
    At each order m = 2..5, some aligned parsimonious pair at n in
    {2, 3, 6}, n >= m, is ranked against the direct direction exactly
    when the knot certificate has a wrong-sign witness (negative at odd
    m, positive at even m), and every Mixed certificate yields a converse
    violation on the same grid."""

    def test_every_table_on_the_grid(self):
        k = 6
        pairs = {
            m: [
                make_parsimonious_pair(tuple(range(1, n + 1)), j, m, 2 ** (m + 1))
                for n in (2, 3, 6)
                if n >= m
                for j in range(n - m + 1)
            ]
            for m in range(2, 6)
        }
        tables = [(0, *inner, k) for inner in itertools.combinations_with_replacement(range(k + 1), k - 1)]
        assert len(tables) == math.comb(2 * k - 1, k - 1) == 462
        rankings = mixed = 0
        for values in tables:
            w = Tabulated(tuple((F(i, k), F(v, k)) for i, v in enumerate(values)))
            for m, ms_pairs in pairs.items():
                cert = finite_difference_sign(w, m, k)
                wrong = cert.negative if m % 2 else cert.positive
                against = [preference_direction(pair, w) < 0 for pair in ms_pairs]
                rankings += len(against)
                assert any(against) == (wrong is not None), (values, m)
                if cert.kind is SignClass.MIXED:
                    mixed += 1
                    assert converse_check(w, m, k)["status"] == "violation", (values, m)
        assert (rankings, mixed) == (8316, 1662)


class TestGeneralPairSweep:
    """Every general pair of a bounded space: three bases of n = m + 3
    states (even 1..n, spreading with gaps 1, 2, 3, ..., clustered with
    gaps 8, 1, 8, ...), gap specs in {1, 2}^(m-2) and amplitudes
    {1, 4}/128 for each block, and every position pair where both attach
    orders fit. Each pair keeps dual moments 1..m-1, as its blocks make it
    do, and passes direct_check. Orders 7 and 8 run as a CI step, where
    some draws break the ranking of the even and clustered bases."""

    COUNTS = {2: 120, 3: 336, 4: 948, 5: 2568, 6: 6552}  # 10,524 pairs, none refused

    @pytest.mark.parametrize("m", sorted(COUNTS))
    def test_every_pair_of_the_space(self, m):
        n = m + 3
        bases = (
            tuple(range(1, n + 1)),
            tuple(itertools.accumulate(range(1, n), initial=1)),
            tuple(itertools.accumulate((8, 1) * n, initial=1))[:n],
        )
        blocks = [(gaps, amp) for gaps in itertools.product((1, 2), repeat=m - 2) for amp in (1, 4)]
        built = 0
        for outcomes in bases:
            base = EqualProbLottery(outcomes)
            for (good_gaps, a), (bad_gaps, b) in itertools.product(blocks, repeat=2):
                good, bad = make_block(m, F(a, 128), good_gaps), make_block(m, F(-b, 128), bad_gaps)
                last = n - max(good.span, bad.span)
                for pos_first, pos_second in itertools.combinations(range(1, last + 1), 2):
                    pair = make_pair(base, good, bad, pos_first, pos_second)
                    assert all(apportionment_module.moved_state_gap(pair, DualPower(j)) == 0 for j in range(1, m))
                    assert direct_check(pair, random.Random(7)) == ()
                    built += 1
        assert built == self.COUNTS[m]


class TestDirectCheckValuesOnlyTheProbe:
    """direct_check values one member, the probe, in full: two dt_value
    calls per pair. Every other member is ranked from the moved states."""

    @staticmethod
    def _count(monkeypatch, module, name: str) -> list:
        calls = []
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: calls.append(args) or real(*args))
        return calls

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_two_dt_value_calls_per_pair(self, m, monkeypatch):
        calls = self._count(monkeypatch, harness_module, "dt_value")
        rng = random.Random(m)
        for _ in range(5):
            pair = random_pair(rng, m)
            twin = random.Random()
            twin.setstate(rng.getstate())
            mixture = direct_battery(m, twin)[7 - m][0]  # the battery direct_check draws next
            calls.clear()
            assert direct_check(pair, rng) == ()
            assert calls == [(pair.d, mixture), (pair.c, mixture)]

    def test_exact_families_make_no_dt_value_call(self, monkeypatch):
        # a full valuation (dt_value, dual_moment) reads a member's jump list
        calls = self._count(monkeypatch, valuation_module, "_jumps")
        pair = random_pair(random.Random(3), 3)
        exact = [w for w, _ in direct_battery(3, random.Random(3))]
        exact += [Quadratic(F(1, 3)), Power(4), Tabulated(((F(0), F(0)), (F(1, 2), F(2, 3)), (F(1), F(1))))]
        for w in exact:
            preference_direction(pair, w)
        assert calls == []
        preference_direction(pair, Prelec(0.65))
        assert calls == []  # a float family is ranked from the moved states too


def _broken_identity(monkeypatch):
    real = harness_module.moved_state_gap
    monkeypatch.setattr(harness_module, "moved_state_gap", lambda pair, w: real(pair, w) + F(1, 7))


class TestIdentityFailure:
    def test_a_mismatch_is_one_identity_record(self, monkeypatch):
        _broken_identity(monkeypatch)
        rng = random.Random(4)
        pair = random_pair(rng, 3)
        (record,) = direct_check(pair, rng)
        assert record["relation"] == "identity"
        assert F(record["moved_state_gap"]) == F(record["gap"]) + F(1, 7)
        assert record["weighting"].startswith("poly:coeffs=")
        assert ApportionmentPair.from_json(json.dumps(record["pair"])) == pair

    def test_verify_exits_1_and_writes_the_record(self, monkeypatch, tmp_path, capsys):
        _broken_identity(monkeypatch)
        code = cli_main(["verify", "--theorem", "1", "--trials", "1", "--seed", "0", "--outdir", str(tmp_path)])
        assert code == 1
        assert "failures=1 FAIL" in capsys.readouterr().out
        payload = json.loads((tmp_path / "theorem1_failures.json").read_text())
        (record,) = payload["reports"][0]["failures"]
        assert record["relation"] == "identity"
        assert record["trial"] == 0
        assert {"gap", "moved_state_gap", "pair", "weighting"} <= set(record)


class TestConverseGapIdentities:
    """converse_check takes its witness gap from the moved-state kernel;
    the identities it no longer re-derives per draw hold here: the gap is
    the full dt_value gap, and the window over M is the reflected window
    of hbar."""

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7, 8])
    def test_violation_gap_is_the_full_valuation_and_the_hbar_window(self, m):
        rng = random.Random(500 + m)
        for _ in range(8 if m <= 5 else 4):
            w = random_mixed_tabulated(rng, m)
            record = converse_check(w, m)
            assert record["status"] == "violation", record
            n, j, big_m = record["n"], record["j"], 2 ** (m + 1)
            pair = ApportionmentPair.from_json(json.dumps(record["pair"]))
            gap = F(record["gap"])
            assert gap == dt_value(pair.d, w) - dt_value(pair.c, w)
            assert gap == hbar_finite_difference(w, m, F(n - j - m, n), F(1, n)) / big_m
            assert gap < 0 and record["direction"] == -1

    def test_converse_check_values_no_member_in_full(self, monkeypatch):
        # dt_value stays in harness for direct_check's probe alone
        calls = []
        monkeypatch.setattr(harness_module, "dt_value", lambda *args: calls.append(args))
        for m in (2, 3, 4, 5):
            assert converse_check(random_mixed_tabulated(random.Random(600 + m), m), m)["status"] == "violation"
        assert calls == []

    def test_a_forced_mismatch_is_a_mismatch_record(self, monkeypatch):
        _broken_identity(monkeypatch)
        w = random_mixed_tabulated(random.Random(5), 3)
        record = converse_check(w, 3)
        assert record["status"] == "mismatch"
        assert F(record["gap"]) == F(record["predicted"]) + F(1, 7)
        pair = ApportionmentPair.from_json(json.dumps(record["pair"]))
        assert F(record["predicted"]) == dt_value(pair.d, w) - dt_value(pair.c, w)

    def test_verify_exits_1_and_writes_the_mismatch_record(self, monkeypatch, tmp_path, capsys):
        _broken_identity(monkeypatch)
        code = cli_main(["verify", "--theorem", "2", "--trials", "1", "--seed", "0", "--outdir", str(tmp_path)])
        assert code == 1
        assert "failures=1 FAIL" in capsys.readouterr().out
        payload = json.loads((tmp_path / "theorem2_failures.json").read_text())
        (record,) = payload["reports"][0]["failures"]
        assert record["status"] == "mismatch"
        assert record["trial"] == 0
        assert {"gap", "predicted", "pair", "weighting", "n", "j"} <= set(record)


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

    @pytest.mark.parametrize("theorem", [0, 7, 9])
    def test_run_trials_refuses_an_unknown_statement_number(self, theorem):
        with pytest.raises(DomainError) as exc:
            run_trials(theorem, 3, 1, 7)
        assert str(exc.value) == f"statements are numbered 1..6, got {theorem}"

    @pytest.mark.parametrize("theorem,shown", [(True, "True"), (False, "False"), (1.0, "1.0"), ("1", "'1'")])
    def test_a_bool_or_a_float_is_no_statement_number(self, theorem, shown):
        # True == 1 and 1.0 == 1 are keys of THEOREMS, yet name no statement
        for run in (lambda: run_theorem(theorem, 1, 7), lambda: run_trials(theorem, 3, 1, 7)):
            with pytest.raises(DomainError) as exc:
                run()
            assert str(exc.value) == f"statements are numbered 1..6, got {shown}"

    @pytest.mark.parametrize(
        "trials,message",
        [
            (2.0, "trials must be an integer, got 2.0"),
            (True, "trials must be an integer, got True"),
            ("3", "trials must be an integer, got '3'"),
            (0, "trials must be >= 1, got 0"),
            (-1, "trials must be >= 1, got -1"),
        ],
        ids=["float", "bool", "str", "zero", "negative"],
    )
    @pytest.mark.parametrize("theorem", [1, 2])
    def test_run_trials_refuses_a_bad_trial_count_before_any_draw(self, theorem, trials, message, monkeypatch):
        draws = []
        for name in ("random_pair", "random_mixed_tabulated"):
            monkeypatch.setattr(harness_module, name, lambda *args: draws.append(args))
        with pytest.raises(DomainError) as exc:
            run_trials(theorem, 3, trials, 7)
        assert str(exc.value) == message
        assert draws == []


class TestStatementOrder:
    """Every draw and run refuses a bad order with a DomainError before the
    rng moves."""

    DRAWS = {
        "direct_battery": lambda rng, m: direct_battery(m, rng),
        "random_pair": random_pair,
        "random_mixed_tabulated": random_mixed_tabulated,
    }

    @pytest.mark.parametrize("name", sorted(DRAWS))
    @pytest.mark.parametrize(
        "m,message",
        [
            (3.0, "statement order must be an integer, got 3.0"),
            (True, "statement order must be an integer, got True"),
            ("3", "statement order must be an integer, got '3'"),
            (F(3), "statement order must be an integer, got Fraction(3, 1)"),
            (1, "statements start at order 2, got 1"),
            (-4, "statements start at order 2, got -4"),
        ],
        ids=["float", "bool", "str", "fraction", "one", "negative"],
    )
    def test_draws(self, name, m, message):
        rng = random.Random(5)
        state = rng.getstate()
        with pytest.raises(DomainError) as exc:
            self.DRAWS[name](rng, m)
        assert str(exc.value) == message
        assert rng.getstate() == state

    @pytest.mark.parametrize(
        "m,message",
        [
            (3.0, "statement order must be an integer, got 3.0"),
            (False, "statement order must be an integer, got False"),
            (1, "statements start at order 2, got 1"),
        ],
        ids=["float", "bool", "one"],
    )
    @pytest.mark.parametrize("theorem", [1, 2])
    def test_run_trials(self, theorem, m, message):
        with pytest.raises(DomainError) as exc:
            run_trials(theorem, m, 1, 7)
        assert str(exc.value) == message

    @pytest.mark.parametrize("m", [32, 33, 100])
    def test_a_mixed_tabulated_draw_stops_below_the_largest_knot_count(self, m):
        # 33 knots give 33 - m windows of order m, and a Mixed sign needs two
        message = f"mixed tabulated draws reach order 31, below the largest knot count 32, got {m}"
        rng = random.Random(5)
        state = rng.getstate()
        with pytest.raises(DomainError) as exc:
            random_mixed_tabulated(rng, m)
        assert str(exc.value) == message
        assert rng.getstate() == state
        with pytest.raises(DomainError) as exc:
            run_trials(2, m, 1, 7)
        assert str(exc.value) == message

    def test_the_largest_mixed_order_is_drawn(self):
        w = random_mixed_tabulated(random.Random(5), 31)
        assert len(w.knots) == 33
        assert difference_sign([v for _, v in w.knots], 31).kind is SignClass.MIXED
