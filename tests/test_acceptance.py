"""Acceptance gate: one test per shipped claim, exact tolerances, timed budgets.

Run with -v for the one-line-per-criterion report; each test also prints
"criterion N: PASS" on success.
"""

import csv
import io
import itertools
import random
import time
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from dualrisk import (
    DualPower,
    EqualProbLottery,
    Identity,
    Polynomial,
    PortfolioProblem,
    Quadratic,
    QuadraticUtility,
    SelfProtectionProblem,
    TabulatedUtility,
    background_shift_expression,
    build_menu,
    calibrate_exponential,
    calibrate_power_law,
    converse_check,
    dt_value,
    dual_moment,
    dual_power_mixture,
    dual_sd_check,
    eu_value,
    eval_h,
    eval_h_prime,
    make_block,
    make_lottery,
    make_pair,
    mean,
    portfolio_value,
    preference_direction,
    primal_moment,
    random_mixed_tabulated,
    random_pair,
    sp_background_effect,
    sp_foc_lhs,
    sp_solve,
    sp_value,
    supplemented_prices,
    ExponentialEffort,
    LinearEffort,
)
from dualrisk.cli import main

F = Fraction

GOLDEN = Path(__file__).parent / "golden"

LOTTERY_A = make_lottery([(0, F(1, 6)), (3, F(5, 6))])
LOTTERY_B = make_lottery([(1, F(1, 6)), (2, F(1, 2)), (4, F(1, 3))])

ORDERS = (2, 3, 4, 5)
PAIRS_PER_ORDER = 500


@pytest.fixture(scope="module")
def seeded_pairs():
    pairs = {}
    for m in ORDERS:
        rng = random.Random(97 * m + 5)
        pairs[m] = [random_pair(rng, m) for _ in range(PAIRS_PER_ORDER)]
    return pairs


def cdf_accumulation_value(lot, h):
    # plain transcription of the defining sum, independent of dt_value's
    # survival-form evaluation path
    total, prev = F(0), F(0)
    cum = F(0)
    for x, p in zip(lot.outcomes, lot.probabilities):
        cum += p
        total += x * (eval_h(h, cum) - prev)
        prev = eval_h(h, cum)
    return total


def brute_central_moment(lot, k):
    mu = sum(p * x for x, p in zip(lot.outcomes, lot.probabilities))
    return sum(p * (x - mu) ** k for x, p in zip(lot.outcomes, lot.probabilities))


def brute_dual_moment(lot, m):
    total = F(0)
    for combo in itertools.product(range(len(lot.outcomes)), repeat=m):
        weight = F(1)
        for i in combo:
            weight *= lot.probabilities[i]
        total += weight * min(lot.outcomes[i] for i in combo)
    return total


def golden_rows(name):
    with open(GOLDEN / name, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_criterion_1_worked_comparison_exact():
    start = time.perf_counter()
    assert dual_moment(LOTTERY_A, 2) == F(25, 12)
    assert dual_moment(LOTTERY_B, 2) == F(23, 12)
    for beta in (F(0), F(1, 4), F(1, 2), F(1)):
        w = Quadratic(beta)
        oracle_gap = cdf_accumulation_value(LOTTERY_A, w) - cdf_accumulation_value(LOTTERY_B, w)
        assert oracle_gap == beta / 6
        assert dt_value(LOTTERY_A, w) - dt_value(LOTTERY_B, w) == beta / 6
    u = QuadraticUtility(F(1, 8))
    assert eu_value(LOTTERY_A, u) == eu_value(LOTTERY_B, u) == F(25, 16)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"criterion 1: PASS ({elapsed:.3f}s)")


def test_criterion_2_dual_moment_preservation(seeded_pairs):
    start = time.perf_counter()
    for m in ORDERS:
        for pair in seeded_pairs[m]:
            c, d = pair.c.to_lottery(), pair.d.to_lottery()
            for k in range(1, m):
                assert dual_moment(c, k) == dual_moment(d, k)
            assert dual_sd_check(c, d, m).holds
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"criterion 2: PASS ({elapsed:.1f}s, {PAIRS_PER_ORDER} pairs x {len(ORDERS)} orders)")


def flipped_sign_family(m):
    if m % 2 == 0:
        # pure monomials: h^(m) = m! > 0, so (-1)^(m-1) h^(m) < 0 at even m
        return [
            Polynomial((F(0),) * m + (F(1),)),
            Polynomial((F(0),) * (m + 2) + (F(1),)),
        ]
    # h(p) = (1+c) p - c p^m keeps h' >= 0 for c <= 1/(m-1) and has h^(m) < 0
    out = []
    for c in (F(1, m - 1), F(1, 2 * (m - 1))):
        coeffs = [F(0)] * (m + 1)
        coeffs[1] = 1 + c
        coeffs[m] = -c
        out.append(Polynomial(tuple(coeffs)))
    return out


def test_criterion_3_direct_directions(seeded_pairs):
    violations = 0
    for m in ORDERS:
        flipped = flipped_sign_family(m)
        for pair in seeded_pairs[m]:
            for j in range(m, 7):
                if preference_direction(pair, DualPower(j)) < 0:
                    violations += 1
            for w in flipped:
                if preference_direction(pair, w) > 0:
                    violations += 1
    assert violations == 0
    print("criterion 3: PASS (0 violations)")


def test_criterion_4_converse_witness_map():
    for m in (3, 4):
        rng = random.Random(401 + m)
        successes = 0
        for _ in range(100):
            w = random_mixed_tabulated(rng, m)
            record = converse_check(w, m)
            assert record["status"] == "violation", record
            assert record["direction"] == -1
            successes += 1
        assert successes == 100
    print("criterion 4: PASS (100% witness success at orders 3 and 4)")


def test_criterion_5_moment_table():
    base3 = EqualProbLottery((F(1), F(2), F(4)))
    base4 = EqualProbLottery((F(1), F(2), F(4), F(7)))
    pair3 = make_pair(base3, make_block(3, F(1, 6)), make_block(3, F(-1, 6)), 1, 2)
    c3, d3 = pair3.c.to_lottery(), pair3.d.to_lottery()
    pair4 = make_pair(base4, make_block(4, F(1, 4)), make_block(4, F(-1, 4)), 1, 2)
    c4, d4 = pair4.c.to_lottery(), pair4.d.to_lottery()

    # direct-expansion oracles first, then the library values they freeze
    for lot in (c3, d3, c4, d4):
        for k in (2, 3, 4):
            assert primal_moment(lot, k) == brute_central_moment(lot, k)
        for k in (2, 3):
            assert dual_moment(lot, k) == brute_dual_moment(lot, k)

    assert primal_moment(d3, 2) == F(31, 18)
    assert primal_moment(c3, 2) == F(27, 18)
    assert mean(c4) == mean(d4) == F(7, 2)
    assert primal_moment(c4, 2) == primal_moment(d4, 2) == F(89, 16)
    assert primal_moment(d4, 3) == F(27, 8)
    assert primal_moment(c4, 3) == F(63, 8)
    assert dual_moment(c4, 3) == dual_moment(d4, 3) == F(55, 32)
    assert primal_moment(d4, 4) < primal_moment(c4, 4)

    table = {(row[0], row[1]): (row[2], row[3]) for row in golden_rows("sec3.csv")[1:]}
    assert table[("3", "variance")] == ("3/2", "31/18")
    assert table[("4", "variance")] == ("89/16", "89/16")
    assert table[("4", "central_moment_3")] == ("63/8", "27/8")
    assert table[("4", "dual_moment_3")] == ("55/32", "55/32")
    print("criterion 5: PASS")


def test_criterion_6_portfolio():
    stocks = {
        2: EqualProbLottery((F(1), F(3))),
        3: EqualProbLottery((F(1), F(3), F(5), F(7))),
        4: EqualProbLottery(tuple(F(x) for x in range(1, 16, 2))),
    }
    expected_supplemented = {
        2: (F(2), F(2)),
        3: (F(2), F(2), F(4), F(8)),
        4: tuple(F(x) for x in (4, 4, 6, 6, 10, 10, 12, 12)),
    }
    menus = {m: build_menu(m, stock) for m, stock in stocks.items()}
    for m, stock in stocks.items():
        prices = supplemented_prices(stock, menus[m])
        assert prices == EqualProbLottery(expected_supplemented[m])

    pp2 = PortfolioProblem(1, 0, 2, stocks[2])
    assert portfolio_value(pp2, None, DualPower(2)) == F(-1, 4)
    assert portfolio_value(pp2, menus[2], DualPower(2)) == 0

    rng = random.Random(61)
    for m, stock in stocks.items():
        pp = PortfolioProblem(1, 0, mean(stock), stock)
        for _ in range(50):
            raw = [rng.randint(0, 5) for _ in range(4)]
            if sum(raw) == 0:
                raw[0] = 1
            total = sum(raw)
            w = dual_power_mixture({m + i: F(raw[i], total) for i in range(4) if raw[i]})
            assert portfolio_value(pp, menus[m], w) >= portfolio_value(pp, None, w)

    plain = stocks[3].to_lottery()
    supp = supplemented_prices(stocks[3], menus[3]).to_lottery()
    kinked = TabulatedUtility(((F(0), F(0)), (F(2), F(2)), (F(8), F(5))))
    quadratic = QuadraticUtility(F(1, 20))
    assert eu_value(supp, kinked) > eu_value(plain, kinked)
    assert eu_value(plain, quadratic) > eu_value(supp, quadratic)
    print("criterion 6: PASS")


def test_criterion_7_self_protection():
    start = time.perf_counter()
    w3 = DualPower(3)
    reverse_cubic = Polynomial((F(0), F(3, 2), F(0), F(-1, 2)))

    # first-order condition against central differences, all three regimes
    step = 1e-6
    for epsilon in (F(0), F(1, 8), F(2, 3)):
        sp = SelfProtectionProblem(4, 1, epsilon, LinearEffort(F(1, 2), F(1, 2)), (0, F(7, 10)))
        rng = random.Random(int(epsilon * 24) + 7)
        for w in (w3, Quadratic(F(1, 2)), reverse_cubic):
            for _ in range(20):
                e = rng.uniform(0.05, 0.65)
                numeric = (float(sp_value(sp, e + step, w)) - float(sp_value(sp, e - step, w))) / (2 * step)
                analytic = float(sp_foc_lhs(sp, e, w))
                assert abs(analytic - numeric) <= 1e-6 * max(1.0, abs(analytic))

    # calibrated dual-prudent instance: background risk raises effort
    model = calibrate_power_law(F(4, 5), F(1, 2), w3, 1)
    assert model.c == F(1024, 75)
    sp = SelfProtectionProblem(4, 1, F(1, 8), model, (0, F(1, 5)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = sp_background_effect(sp, w3)
    assert report.direction == "more"
    assert report.e_with > report.e_without
    assert abs(report.p_at_opt - 0.5) < 1e-6

    # the marginal-benefit shift at the calibration point, by its stated route
    h14, h12, h34 = (eval_h_prime(w3, q) for q in (F(1, 4), F(1, 2), F(3, 4)))
    assert (h14, h12, h34) == (F(27, 16), F(3, 4), F(3, 16))
    assert -h14 + 2 * h12 - h34 == F(-3, 8)
    assert background_shift_expression(w3, F(1, 2)) == F(-3, 8)
    # halved large-background-case coefficient of the same three slopes
    assert -F(1, 2) * (h14 - 2 * h12 + h34) == F(-3, 16)
    assert report.shift_at_half == F(-3, 8)

    # an h''' <= 0 weighting reverses the direction
    exp_model = calibrate_exponential(F(3, 5), reverse_cubic, 1)
    assert exp_model.k == F(16, 9)
    sp_rev = SelfProtectionProblem(4, 1, F(1, 8), exp_model, (0, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report_rev = sp_background_effect(sp_rev, reverse_cubic)
    assert report_rev.direction == "less"
    assert report_rev.shift_at_half == F(3, 16)

    # linear-h closed forms: smooth exponential case and exact clamp kink
    import math

    spi = SelfProtectionProblem(4, 1, 0, ExponentialEffort(F(3, 5), 2), (0, 1))
    soli = sp_solve(spi, Identity())
    assert abs(soli.e_star - math.log(6 / 5) / 2) <= 1e-8
    spk = SelfProtectionProblem(
        4, 1, 0, LinearEffort(F(4, 5), 2, F(1, 10), F(99, 100)), (0, F(1, 2))
    )
    assert sp_solve(spk, Identity()).e_star == 0.35

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"criterion 7: PASS ({elapsed:.1f}s)")


def test_criterion_8_determinism(tmp_path, capsys):
    args = ["verify", "--theorem", "6", "--trials", "3", "--seed", "17"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first

    for sub in ("one", "two"):
        (tmp_path / sub).mkdir()
        assert main(["paper-repro", "--outdir", str(tmp_path / sub)]) == 0
        capsys.readouterr()
    for name in ("sec22.csv", "sec3.csv", "sec4.csv", "sec5.csv"):
        a = (tmp_path / "one" / name).read_bytes()
        b = (tmp_path / "two" / name).read_bytes()
        assert a == b
        assert a == (GOLDEN / name).read_bytes()
    print("criterion 8: PASS")
