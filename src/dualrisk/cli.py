"""Command-line surface: evaluate, compare, generate, verify, reproduce.

Subcommands:
  eval        value and moment report for a lottery file
  dominance   degree-m dominance check between two lottery files
  pairgen     write a block-construction pair (two lottery files + provenance)
  verify      randomized runs of the six characterization statements
  paper-repro deterministic CSVs with the worked-example numbers
  selfprotect solve a self-protection problem from a config file

Rationals print as p/q next to a 12-significant-digit decimal; CSV cells
hold the p/q form unquoted. Exit codes: 0 success, 1 verification or
dominance-gate failure, 2 usage/parse/validation errors. The default
output directory comes from DUALRISK_OUTDIR when set.

Importing this module runs only dualrisk.errors. Every computation
module is bound below as a deferred module: the module object itself,
whose body runs on the first attribute access. So a command loads only
the modules it calls (``--help`` none of them, ``eval`` no dominance,
pair or application code), and calls go through the module attribute
(``lottery.parse_lottery_text``), which a caller may replace.
"""

from __future__ import annotations

import argparse
import csv
import importlib.util
import io
import json
import math
import os
import sys
import warnings
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError, DualRiskError, FormatError, InputValidationError


def _deferred(name: str):
    """The module dualrisk.<name>, whose body runs on its first attribute
    access; a module already imported is returned as it is."""
    fullname = f"{__package__}.{name}"
    if fullname not in sys.modules:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        sys.modules[fullname] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[fullname])
    return sys.modules[fullname]


# Nothing at module level may read an attribute of these: that would run
# the module's body at import.
applications = _deferred("applications")
apportionment = _deferred("apportionment")
dominance = _deferred("dominance")
harness = _deferred("harness")
lottery = _deferred("lottery")
rationals = _deferred("rationals")
valuation = _deferred("valuation")
weighting = _deferred("weighting")


def _outdir(args) -> str:
    return args.outdir or os.environ.get("DUALRISK_OUTDIR", ".")


def _cell(value) -> str:
    """Exact cell text: p/q for rationals, 12 significant digits for floats."""
    if isinstance(value, (int, float, Fraction)):
        return rationals.format_exact(value)
    return str(value)


def _joined(values) -> str:
    return " ".join(map(rationals.format_exact, values))


def _emit_rows(header: tuple[str, ...], rows: list[tuple], fmt: str, out=None) -> None:
    out = out if out is not None else sys.stdout
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    else:
        table = [header] + [tuple(str(c) for c in row) for row in rows]
        widths = [max(len(row[i]) for row in table) for i in range(len(header))]
        for row in table:
            out.write("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() + "\n")


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise FormatError(f"not UTF-8 text (byte {exc.start}: {exc.reason})", source=path) from None


def _write_text(path: str, text: str) -> None:
    """Write an output file, creating its directory; OSError is an input error."""
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise DomainError(f"cannot write {path}: {exc.strerror or exc}") from None


def _load_lottery(path: str):
    return lottery.parse_lottery_text(_read_text(path), source=path)


# ---------------------------------------------------------------------------
# eval


def cmd_eval(args) -> int:
    lot = _load_lottery(args.lottery)
    w = weighting.parse_weighting(args.weighting)
    value = valuation.dt_value(lot, w)
    mu = lottery.mean(lot)
    decimal = rationals._decimal
    rows: list[tuple] = [("value", _cell(value), decimal(value)), ("mean", _cell(mu), decimal(mu))]
    for m in range(1, 5):
        dm = valuation.dual_moment(lot, m)
        rows.append((f"dual_moment_{m}", _cell(dm), decimal(dm)))
    for k in range(2, 5):
        cm = valuation.primal_moment(lot, k)
        rows.append((f"central_moment_{k}", _cell(cm), decimal(cm)))
    _emit_rows(("quantity", "exact", "decimal"), rows, args.format)
    return 0


# ---------------------------------------------------------------------------
# dominance


def cmd_dominance(args) -> int:
    a = _load_lottery(args.lottery_a)
    b = _load_lottery(args.lottery_b)
    if args.kind == "dual":
        if args.ekern:
            raise DomainError("--ekern applies to primal checks only")
        report = dominance.dual_sd_check(a, b, args.degree)
    else:
        report = dominance.primal_sd_check(a, b, args.degree, ekern=args.ekern)
    rows = [
        ("kind", report.kind),
        ("degree", str(report.degree)),
        ("holds", "true" if report.holds else "false"),
        ("failed_condition", report.failed_condition or "-"),
        ("witness", _cell(report.witness) if report.witness is not None else "-"),
    ]
    _emit_rows(("field", "value"), rows, args.format)
    return 0


# ---------------------------------------------------------------------------
# pairgen


def _delta_pair(base, m: int, big_m: int, seed=None):
    """The general pair with blocks of amplitude ±1/M at positions 1 and 2."""
    delta = Fraction(1, big_m)
    block = apportionment.make_block
    return apportionment.make_pair(base, block(m, delta), block(m, -delta), 1, 2, seed=seed)


def _resolve_base(args, m: int) -> lottery.EqualProbLottery:
    if args.base is not None:
        if os.path.exists(args.base):
            return lottery.equal_prob_from_lottery(_load_lottery(args.base))
        return lottery.EqualProbLottery(tuple(rationals.parse_rational(tok) for tok in args.base.split(",")))
    if args.random:
        import random

        rng = random.Random(args.seed * 1000003 + m)
        return harness.random_base(rng, m, args.n)
    raise DomainError("pairgen needs --base OUTCOMES|FILE or --random")


def cmd_pairgen(args) -> int:
    m = args.order
    base = _resolve_base(args, m)
    big_m = args.M if args.M is not None else 2 ** (m + 1)
    if big_m < 1:
        raise DomainError(f"M must be >= 1, got {big_m}")
    seed = args.seed if args.random else None
    if args.parsimonious:
        j = args.j if args.j is not None else 0
        pair = apportionment.make_parsimonious_pair(base.outcomes, j, m, big_m, seed=seed)
    else:
        if args.j is not None:
            raise DomainError("--j positions the parsimonious bold block; add --parsimonious")
        pair = _delta_pair(base, m, big_m, seed)
    prefix = args.prefix or f"order{m}"
    outdir = _outdir(args)
    written = []
    for tag, member in (("c", pair.c), ("d", pair.d)):
        path = os.path.join(outdir, f"{prefix}_{tag}.txt")
        _write_text(path, lottery.format_lottery_text(member))
        written.append(path)
    prov_path = os.path.join(outdir, f"{prefix}_provenance.json")
    _write_text(prov_path, pair.provenance.to_json() + "\n")
    written.append(prov_path)
    for path in written:
        print(path)
    return 0


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    if args.trials < 1:
        raise DomainError(f"trials must be >= 1, got {args.trials}")
    reports = harness.run_theorem(args.theorem, args.trials, args.seed)
    failed = False
    all_failures = []
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        print(
            f"theorem {rep.theorem} ({rep.kind}, order {rep.order}): "
            f"trials={rep.trials} failures={len(rep.failures)} {status}"
        )
        if not rep.passed:
            failed = True
            all_failures.append(
                {"order": rep.order, "kind": rep.kind, "failures": list(rep.failures)}
            )
    if failed:
        replay = os.path.join(_outdir(args), f"theorem{args.theorem}_failures.json")
        record = {"theorem": args.theorem, "seed": args.seed, "reports": all_failures}
        _write_text(replay, json.dumps(record, indent=2) + "\n")
        print(f"replay records: {replay}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# paper-repro


def _sec22_rows() -> list[tuple]:
    a = lottery.make_lottery([(0, Fraction(1, 6)), (3, Fraction(5, 6))])
    b = lottery.make_lottery([(1, Fraction(1, 6)), (2, Fraction(1, 2)), (4, Fraction(1, 3))])
    rows: list[tuple] = [
        ("outcomes", "0 3", "1 2 4", ""),
        ("probabilities", "1/6 5/6", "1/6 1/2 1/3", ""),
        ("mean", _cell(lottery.mean(a)), _cell(lottery.mean(b)), ""),
        ("variance", _cell(valuation.primal_moment(a, 2)), _cell(valuation.primal_moment(b, 2)), ""),
        ("dual_moment_2", _cell(valuation.dual_moment(a, 2)), _cell(valuation.dual_moment(b, 2)), ""),
    ]
    u = valuation.QuadraticUtility(Fraction(1, 8))
    eu_a, eu_b = valuation.eu_value(a, u), valuation.eu_value(b, u)
    rows.append(("eu_quadratic_c_1/8", _cell(eu_a), _cell(eu_b), ""))
    for beta in (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1)):
        w = weighting.Quadratic(beta)
        va, vb = valuation.dt_value(a, w), valuation.dt_value(b, w)
        rows.append((f"value_quadratic_beta_{_cell(beta)}", _cell(va), _cell(vb), _cell(va - vb)))
    return rows


_SEC3_CASES = ((2, (1, 2), 4), (3, (1, 2, 4), 6), (4, (1, 2, 4, 7), 4))


def _sec3_rows() -> list[tuple]:
    rows: list[tuple] = []
    for m, outcomes, big_m in _SEC3_CASES:
        base = lottery.EqualProbLottery(outcomes)
        pair = _delta_pair(base, m, big_m)
        c, d = pair.c, pair.d

        def put(name, fc, fd):
            rows.append((str(m), name, _cell(fc), _cell(fd)))

        rows.append((str(m), "base_outcomes", _joined(base.outcomes), ""))
        rows.append((str(m), "M", str(big_m), ""))
        put("outcomes", _joined(c.outcomes), _joined(d.outcomes))
        put("mean", lottery.mean(c), lottery.mean(d))
        put("variance", valuation.primal_moment(c, 2), valuation.primal_moment(d, 2))
        if m >= 3:
            put("central_moment_3", valuation.primal_moment(c, 3), valuation.primal_moment(d, 3))
            put("dual_moment_2", valuation.dual_moment(c, 2), valuation.dual_moment(d, 2))
        if m >= 4:
            put("central_moment_4", valuation.primal_moment(c, 4), valuation.primal_moment(d, 4))
            put("dual_moment_3", valuation.dual_moment(c, 3), valuation.dual_moment(d, 3))
    return rows


# order -> the stock's equally likely outcomes
_SEC4_STOCKS = {2: (1, 3), 3: (1, 3, 5, 7), 4: tuple(range(1, 16, 2))}


def _sec4_rows() -> list[tuple]:
    rows: list[tuple] = []
    for m, outcomes in _SEC4_STOCKS.items():
        stock = lottery.EqualProbLottery(outcomes)
        menu = applications.build_menu(m, stock)
        prices = applications.supplemented_prices(stock, menu)
        s0 = lottery.mean(stock)
        pp = applications.PortfolioProblem(Fraction(1), Fraction(0), s0, stock)
        w = weighting.DualPower(m)
        v_plain = applications.portfolio_value(pp, None, w)
        v_supp = applications.portfolio_value(pp, menu, w)

        def put(name, value):
            rows.append((str(m), name, _cell(value)))

        put("stock", _joined(stock.outcomes))
        put("payoffs", _joined(menu.payoff(s) for s in stock.outcomes))
        put("premium", menu.premium(stock))
        put("portfolio_states", _joined(prices.outcomes))
        support = lottery.canonical_distribution(prices)
        put("portfolio_support", _joined(x for x, _ in support.states))
        put("s0", s0)
        put(f"value_plain_dualpower_{m}", v_plain)
        put(f"value_supplemented_dualpower_{m}", v_supp)
        put("value_gain", v_supp - v_plain)
        put("dominance_holds", "true" if dominance.dual_sd_check(stock, prices, m) else "false")
    return rows


def _sec5_rows() -> list[tuple]:
    rows: list[tuple] = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        w = weighting.DualPower(3)
        model = applications.calibrate_power_law(Fraction(4, 5), Fraction(1, 2), w, Fraction(1))
        sp = applications.SelfProtectionProblem(
            Fraction(4), Fraction(1), Fraction(1, 8), model, (Fraction(0), Fraction(1, 5))
        )
        rep = applications.sp_background_effect(sp, w)

        def put(instance, name, value):
            rows.append((instance, name, _cell(value)))

        put("calibrated_powerlaw", "effort_model", applications.format_effort(model))
        put("calibrated_powerlaw", "e_with_background", rep.e_with)
        put("calibrated_powerlaw", "e_without_background", rep.e_without)
        put("calibrated_powerlaw", "direction", rep.direction)
        put("calibrated_powerlaw", "p_at_opt", rep.p_at_opt)
        put("calibrated_powerlaw", "h_prime_1/4", weighting.eval_h_prime(w, Fraction(1, 4)))
        put("calibrated_powerlaw", "h_prime_1/2", weighting.eval_h_prime(w, Fraction(1, 2)))
        put("calibrated_powerlaw", "h_prime_3/4", weighting.eval_h_prime(w, Fraction(3, 4)))
        put("calibrated_powerlaw", "shift_at_half", rep.shift_at_half)
        put("calibrated_powerlaw", "shift_at_opt", rep.shift_at_opt)

        wrev = weighting.Polynomial((Fraction(0), Fraction(3, 2), Fraction(0), Fraction(-1, 2)))
        exp_model = applications.calibrate_exponential(Fraction(3, 5), wrev, Fraction(1))
        sprev = applications.SelfProtectionProblem(
            Fraction(4), Fraction(1), Fraction(1, 8), exp_model, (Fraction(0), Fraction(1))
        )
        reprev = applications.sp_background_effect(sprev, wrev)
        put("reverse_cubic", "effort_model", applications.format_effort(exp_model))
        put("reverse_cubic", "e_with_background", reprev.e_with)
        put("reverse_cubic", "e_without_background", reprev.e_without)
        put("reverse_cubic", "direction", reprev.direction)
        put("reverse_cubic", "shift_at_half", reprev.shift_at_half)

        exp2 = applications.ExponentialEffort(Fraction(3, 5), Fraction(2))
        spi = applications.SelfProtectionProblem(
            Fraction(4), Fraction(1), Fraction(0), exp2, (Fraction(0), Fraction(1))
        )
        soli = applications.sp_solve(spi, weighting.Identity())
        closed = math.log(float(exp2.p0) * float(exp2.k)) / float(exp2.k)
        put("identity_exponential", "e_star", soli.e_star)
        put("identity_exponential", "closed_form", closed)
        put("identity_exponential", "abs_gap", abs(soli.e_star - closed))

        kink = applications.LinearEffort(
            Fraction(4, 5), Fraction(2), p_min=Fraction(1, 10), p_max=Fraction(99, 100)
        )
        spk = applications.SelfProtectionProblem(
            Fraction(4), Fraction(1), Fraction(0), kink, (Fraction(0), Fraction(1, 2))
        )
        solk = applications.sp_solve(spk, weighting.Identity())
        put("linear_kink", "e_star", solk.e_star)
        put("linear_kink", "kink_point", Fraction(7, 20))
    return rows


def cmd_paper_repro(args) -> int:
    sections = (
        ("sec22.csv", ("quantity", "lottery_a", "lottery_b", "gap"), _sec22_rows()),
        ("sec3.csv", ("order", "quantity", "c", "d"), _sec3_rows()),
        ("sec4.csv", ("order", "quantity", "value"), _sec4_rows()),
        ("sec5.csv", ("instance", "quantity", "value"), _sec5_rows()),
    )
    outdir = _outdir(args)
    for name, header, rows in sections:
        path = os.path.join(outdir, name)
        buffer = io.StringIO()
        _emit_rows(header, rows, "csv", out=buffer)
        _write_text(path, buffer.getvalue())
        print(path)
    return 0


# ---------------------------------------------------------------------------
# selfprotect


def cmd_selfprotect(args) -> int:
    sp, w = applications.parse_problem_config(_read_text(args.config), source=args.config)
    # the background comparison solves the problem as given on its way
    rep = applications.sp_background_effect(sp, w) if sp.epsilon > 0 else None
    sol = rep.solution if rep else applications.sp_solve(sp, w)
    rows: list[tuple] = [
        ("e_star", _cell(sol.e_star)),
        ("value", _cell(sol.value)),
        ("p_at_opt", _cell(sol.diagnostics.p_at_opt)),
        ("interior", "true" if sol.diagnostics.interior else "false"),
        ("at_bound", sol.diagnostics.at_bound or "-"),
        ("concave_on_grid", "true" if sol.diagnostics.concave_on_grid else "false"),
        ("foc_sign_change", "true" if sol.diagnostics.foc_sign_change else "false"),
    ]
    if rep:
        rows += [
            ("e_without_background", _cell(rep.e_without)),
            ("background_direction", rep.direction),
            ("shift_at_half", _cell(rep.shift_at_half)),
            ("shift_at_opt", _cell(rep.shift_at_opt)),
        ]
    _emit_rows(("quantity", "value"), rows, args.format)
    return 0


# ---------------------------------------------------------------------------
# parser plumbing


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: parse_args reads the parser and returns a
    # fresh namespace, so in-process calls share no state through it.
    parser = argparse.ArgumentParser(
        prog="dualrisk",
        description="Dual-theory lottery evaluation, dominance, and pair construction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="value and moment report for a lottery file")
    p.add_argument("lottery", help="lottery file (one '<outcome> <probability>' per line)")
    p.add_argument("--weighting", default="identity", help="weighting spec, e.g. quadratic:beta=1")
    p.add_argument("--format", choices=("csv", "table"), default="table")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("dominance", help="stochastic dominance check between two lottery files")
    p.add_argument("lottery_a")
    p.add_argument("lottery_b")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--kind", choices=("primal", "dual"), default="dual")
    p.add_argument("--ekern", action="store_true", help="equal raw moments variant of the primal check")
    p.add_argument("--format", choices=("csv", "table"), default="table")
    p.set_defaults(func=cmd_dominance)

    p = sub.add_parser("pairgen", help="write a C/D pair and its provenance record")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--base", help="base lottery: file path or comma-separated outcomes (1,2,4)")
    p.add_argument("--random", action="store_true", help="draw a random base lottery")
    p.add_argument("--n", type=int, default=None, help="state count for --random bases")
    p.add_argument("--M", type=int, default=None, help="block amplitude denominator (default 2^(order+1))")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--parsimonious", action="store_true", help="keep C = base; bold block at --j")
    p.add_argument("--j", type=int, default=None, help="states strictly before the bold block")
    p.add_argument("--prefix", default=None, help="output file prefix (default order<m>)")
    p.add_argument("--outdir", default=None)
    p.set_defaults(func=cmd_pairgen)

    p = sub.add_parser("verify", help="randomized checks of the characterization statements")
    p.add_argument("--theorem", type=int, required=True, choices=range(1, 7))
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--outdir", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("paper-repro", help="write the worked-example CSVs")
    p.add_argument("--outdir", default=None)
    p.set_defaults(func=cmd_paper_repro)

    p = sub.add_parser("selfprotect", help="solve a self-protection problem from a config file")
    p.add_argument("config", help="key = value problem file")
    p.add_argument("--format", choices=("csv", "table"), default="table")
    p.set_defaults(func=cmd_selfprotect)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except InputValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DualRiskError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
