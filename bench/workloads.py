"""The three workloads: seeded inputs, one operation at a time, output checks.

A workload runs in rounds. ``run_op(i)`` performs operation i (timed by
the caller); ``check(i, result)`` runs after the timed loop and returns
None or a failure (``Failure.wrong`` marks a wrong answer, as opposed to
an operation that raised out of the program).
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import reference as ref

GOLDEN = ("sec22.csv", "sec3.csv", "sec4.csv", "sec5.csv")
EVAL_SIZES = (8, 64, 256)
# 27 state counts log-spaced over (8, 256), so that request costs cover
# the range without gaps and latency percentiles sit in dense regions
SPREAD_SIZES = tuple(round(8 * 32 ** ((k + 0.5) / 27)) for k in range(27))
DENOMINATORS = (1, 2, 3, 4, 6, 8)  # outcome denominators of the six eval groups
# eval and dominance requests come in COPIES sets with fresh values, so a
# run's latency percentiles average over more draws from the seed
COPIES = 2


@dataclass(frozen=True)
class Failure:
    wrong: bool
    message: str


def _raised(result) -> Failure | None:
    if isinstance(result, Exception):
        return Failure(False, f"raised {type(result).__name__}: {result}")
    return None


# ---------------------------------------------------------------------------
# converse and direct: the randomized statement harness


class Converse:
    """Statements 2, 4, 6: one mixed tabulated draw plus one converse check at grid 256."""

    name = "converse"
    orders = (3, 4, 2, 5)
    round_len = len(orders)

    def __init__(self, seed: int, api, work: Path):
        self.seed, self.api = seed, api
        self.reset()

    def reset(self) -> None:
        self.rng = random.Random(f"converse-{self.seed}")

    def run_op(self, i: int):
        m = self.orders[i % self.round_len]
        w = self.api.random_mixed_tabulated(self.rng, m)
        return m, w, self.api.converse_check(w, m, 256)

    def witness_states_mean(self, results) -> float:
        found = [r[2]["n"] for r in results if isinstance(r, tuple) and "n" in r[2]]
        return sum(found) / len(found) if found else 0.0

    def check(self, i: int, result) -> Failure | None:
        if (bad := _raised(result)) is not None:
            return bad
        m, w, record = result
        if record.get("status") != "violation":
            return Failure(True, f"order {m}: status {record.get('status')}")
        prov = record["pair"]
        base = [Fraction(x) for x in prov["base_outcomes"]]
        moved = list(base)
        for pos, entries in ((prov["pos_first"], prov["good_entries"]), (prov["pos_second"], prov["bad_entries"])):
            for offset, value in entries:
                moved[pos - 1 + offset] += Fraction(value)
        gap = ref.equal_prob_gap(base, moved, ref.tabulated(w.knots).h)
        if not gap < 0 or gap != Fraction(record["gap"]) or record["direction"] != -1:
            return Failure(True, f"order {m}: reference gap {gap}, reported {record['gap']}")
        return None


class Direct(Converse):
    """Statements 1, 3, 5: one random pair plus one direct-statement sweep."""

    name = "direct"

    def reset(self) -> None:
        self.rng = random.Random(f"direct-{self.seed}")

    def run_op(self, i: int):
        m = self.orders[i % self.round_len]
        pair = self.api.random_pair(self.rng, m)
        return m, self.api.direct_check(pair, self.rng)

    def check(self, i: int, result) -> Failure | None:
        if (bad := _raised(result)) is not None:
            return bad
        m, failures = result
        return Failure(True, f"order {m}: {failures[0]}") if failures else None

    def witness_states_mean(self, results) -> float:
        return 0.0


# ---------------------------------------------------------------------------
# queries: the command line over generated files


@dataclass
class Request:
    kind: str
    argv: list[str]  # "{out}" stands for a directory of the operation's own
    exit_code: int = 0
    check: Callable[[str, Path | None], str | None] | None = None

    @property
    def per_op(self) -> bool:
        return any("{out}" in a for a in self.argv)


def _lottery_text(lot) -> str:
    return "".join(f"{x} {p}\n" for x, p in lot)


def _read_lottery(path) -> list[tuple[Fraction, Fraction]]:
    rows = [line.split() for line in Path(path).read_text(encoding="utf-8").splitlines() if line.strip()]
    return [(Fraction(x), Fraction(p)) for x, p in rows]


def _rows(stdout: str, sep: str | None) -> dict[str, list[str]]:
    lines = stdout.splitlines()[1:]
    if sep == ",":
        return {r[0]: r[1:] for r in (line.split(",") for line in lines)}
    return {r[0]: r[1:] for r in (line.split(None, 1) for line in lines)}


def _random_lottery(rng: random.Random, n: int, den: int = 4) -> list[tuple[Fraction, Fraction]]:
    xs, cur = [], rng.randint(0, 4)
    for _ in range(n):
        xs.append(Fraction(cur, den))
        cur += rng.randint(1, 8)
    weights = [rng.randint(1, 9) for _ in range(n)]
    total = sum(weights)
    return [(x, Fraction(w, total)) for x, w in zip(xs, weights)]


def _ranked_base(rng: random.Random, n: int) -> list[Fraction]:
    out = [Fraction(rng.randint(1, 4))]
    for _ in range(n - 1):
        out.append(out[-1] + Fraction(rng.randint(2, 8), 2))
    return out


def _pair(rng: random.Random, m: int, n: int):
    """Apportionment pair (C, D) of order m: good block before bad in D."""
    delta = Fraction(rng.randint(1, 3), 2 ** (m + 1))
    good = [(k, (-1) ** k * math.comb(m - 2, k) * delta) for k in range(m - 1)]
    bad = [(k, -v) for k, v in good]
    base = _ranked_base(rng, n)
    pos1 = rng.randint(0, n - m)
    pos2 = rng.randint(pos1 + 1, n - m + 1)
    members = []
    for first, second in ((bad, good), (good, bad)):
        xs = list(base)
        for pos, block in ((pos1, first), (pos2, second)):
            for k, v in block:
                xs[pos + k] += v
        assert xs == sorted(xs), "pair construction broke the ranking"
        members.append([(x, Fraction(1, n)) for x in xs])
    return members


def _weightings(rng: random.Random, g: int) -> list[ref.Weighting]:
    """One weighting of each family; group g (0..5) fixes the parameters that
    set the cost (degree, knot count), the seed draws the rest."""
    knot_count = (8, 16, 32)[g % 3]
    steps = [rng.randint(1, 6) for _ in range(knot_count)]
    total, cum, knots = sum(steps), 0, [(Fraction(0), Fraction(0))]
    for i, s in enumerate(steps, start=1):
        cum += s
        knots.append((Fraction(i, knot_count), Fraction(cum, total)))
    orders = ((1, 3), (2, 4), (1, 5), (2, 3), (3, 5), (1, 4))[g]
    lam = Fraction(rng.randint(1, 7), 8)
    coeffs = [Fraction(0)] * (max(orders) + 1)
    for k, weight in zip(orders, (lam, 1 - lam)):
        for i in range(1, k + 1):
            coeffs[i] -= weight * math.comb(k, i) * (-1) ** i
    return [
        ref.identity(),
        ref.quadratic(Fraction(rng.randint(1, 8), 8)),
        ref.power(Fraction(2 + g % 3)),
        ref.power(Fraction(1 + 2 * (g % 3), 2)),
        ref.dualpower(2 + g % 5),
        ref.tk(f"0.{rng.randint(50, 95)}"),
        ref.prelec(f"0.{rng.randint(50, 90)}", rng.choice(("0.8", "0.9", "1", "1.1"))),
        ref.tabulated(knots),
        ref.poly(coeffs),
    ]


class Queries:
    """In-process ``dualrisk.cli.main`` over files generated from the seed."""

    name = "queries"

    def __init__(self, seed: int, api, work: Path):
        self.api, self.work = api, work
        work.mkdir(parents=True, exist_ok=True)
        golden_dir = Path(__file__).resolve().parent.parent / "tests" / "golden"
        self.golden = {name: (golden_dir / name).read_bytes() for name in GOLDEN}
        rng = random.Random(f"queries-{seed}")
        self.requests: list[Request] = []
        self._files = 0
        for _ in range(COPIES):
            self._eval_requests(rng)
            self._dominance_requests(rng)
        self._other_requests(rng)
        self._malformed_requests(rng)
        rng.shuffle(self.requests)
        self.round_len = len(self.requests)
        self._first: dict[int, str] = {}

    def reset(self) -> None:
        pass

    def witness_states_mean(self, results) -> float:
        return 0.0

    def _file(self, text: str | bytes, suffix: str = ".txt") -> str:
        self._files += 1
        path = self.work / f"in{self._files}{suffix}"
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text, encoding="utf-8")
        return str(path)

    # -- request mix ---------------------------------------------------------

    def _eval_requests(self, rng) -> None:
        for group in range(6):
            for f, w in enumerate(_weightings(rng, group)):
                n = EVAL_SIZES[group] if group < 3 else SPREAD_SIZES[f + 9 * (group - 3)]
                lot = _random_lottery(rng, n, DENOMINATORS[group])
                argv = ["eval", self._file(_lottery_text(lot)), "--weighting", w.spec, "--format", "csv"]
                self.requests.append(Request("eval", argv, check=_eval_check(lot, w)))

    def _dominance_requests(self, rng) -> None:
        sizes = ((128, 64), (48, 24))  # (pair states, unrelated lottery states)
        for kind, m, (pair_n, other_n) in itertools.product(("dual", "primal"), (2, 3, 4), sizes):
            c, d = _pair(rng, m, pair_n)
            # b has the lower mean, so the mean gate (dual) or the first
            # endpoint gate (primal, degree >= 3) decides: the route, and so
            # the cost, does not depend on the seed
            unrelated = (_random_lottery(rng, other_n), _random_lottery(rng, other_n))
            a, b = sorted(unrelated, key=ref.mean, reverse=True)
            cases = (("forward", c, d, True), ("reversed", d, c, False), ("unrelated", a, b, None))
            for case, lo, hi, expect in cases:
                argv = ["dominance", self._file(_lottery_text(lo)), self._file(_lottery_text(hi)),
                        "--degree", str(m), "--kind", kind]
                expect = expect if kind == "dual" else None
                check = _dominance_check(kind, m, lo, hi, expect)
                self.requests.append(Request(f"dominance-{case}", argv, check=check))

    def _other_requests(self, rng) -> None:
        m = rng.randint(2, 5)
        argv = ["pairgen", "--order", str(m), "--random", "--n", str(m + rng.randint(2, 10)),
                "--seed", str(rng.randint(0, 10**6)), "--outdir", "{out}", "--prefix", "g"]
        self.requests.append(Request("pairgen", argv, check=_pairgen_check(m, None)))
        m = rng.randint(2, 5)
        base = _ranked_base(rng, m + rng.randint(0, 8))
        j = rng.randint(0, len(base) - m)
        argv = ["pairgen", "--order", str(m), "--base", ",".join(map(str, base)), "--parsimonious",
                "--j", str(j), "--outdir", "{out}", "--prefix", "p"]
        self.requests.append(Request("pairgen", argv, check=_pairgen_check(m, base)))
        self.requests.append(Request("paper-repro", ["paper-repro", "--outdir", "{out}"], check=self._repro_check))
        eps = rng.choice(("0", "1/8", "1/16"))
        weighting = rng.choice(("dualpower:m=2", "dualpower:m=3", "dualpower:m=4", "quadratic:beta=1/2"))
        config = (f"wealth = 4\nloss = 1\nepsilon = {eps}\neffort = linear: p0=1/2, k=1/2\n"
                  f"bounds = 0:1/2\nweighting = {weighting}\n")
        argv = ["selfprotect", self._file(config, ".cfg")]
        self.requests.append(Request("selfprotect", argv, check=_selfprotect_check(eps != "0")))

    def _malformed_requests(self, rng) -> None:
        x = rng.randint(1, 9)
        good = self._file(_lottery_text(_random_lottery(rng, 4)))
        bad_texts = (
            f"{x} 1/2\nabc 1/2\n",  # bad literal
            f"{x} 1/3\n{x + 1} 1/3\n",  # mass 2/3
            f"{x} 1/2\n{x + 1} 1/2 7\n",  # three fields
            "# no states\n",
        )
        for text in bad_texts:
            self.requests.append(Request("malformed", ["eval", self._file(text)], exit_code=2))
        negative = self._file(f"-{x} 1/2\n{x} 1/2\n")
        self.requests.append(Request("malformed", ["dominance", negative, good, "--degree", "2"], exit_code=2))
        self.requests.append(Request("malformed", ["eval", good, "--weighting", "quadratic:beta=3/2"], exit_code=2))
        self.requests.append(Request("malformed", ["eval", str(self.work / "missing.txt")], exit_code=2))
        config = self._file("wealth = 4\nloss = one\nepsilon = 0\neffort = linear: p0=1/2, k=1/2\n"
                            "bounds = 0:1/2\nweighting = identity\n", ".cfg")
        self.requests.append(Request("malformed", ["selfprotect", config], exit_code=2))
        latin1 = f"{x} 1/2\n{x + 1} 1/2 # caf\xe9\n".encode("latin-1")
        self.requests.append(Request("malformed-non-utf8", ["eval", self._file(latin1)], exit_code=2))

    # -- running and checking ----------------------------------------------

    def outdir(self, i: int) -> Path:
        return self.work / f"op{i}"

    def run_op(self, i: int):
        req = self.requests[i % self.round_len]
        argv = [a.replace("{out}", str(self.outdir(i))) for a in req.argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.api.cli_main(argv)
        return code, out.getvalue(), err.getvalue()

    def check(self, i: int, result) -> Failure | None:
        if (bad := _raised(result)) is not None:
            return bad
        k = i % self.round_len
        req = self.requests[k]
        code, out, err = result
        if code != req.exit_code:
            return Failure(True, f"{req.kind}: exit {code}, expected {req.exit_code}: {err.strip()}")
        if req.exit_code == 2:
            ok = out == "" and err.startswith("error: ")
            return None if ok else Failure(True, f"{req.kind}: no typed error message")
        if req.per_op:
            msg = req.check(out, self.outdir(i))
        elif k in self._first:
            msg = None if out == self._first[k] else "output differs from the first run of the request"
        else:
            msg = req.check(out, None)
            self._first[k] = out
        return None if msg is None else Failure(True, f"{req.kind} {' '.join(req.argv)}: {msg}")

    def _repro_check(self, out: str, outdir: Path) -> str | None:
        if out.split() != [str(outdir / name) for name in GOLDEN]:
            return f"unexpected paths {out.split()}"
        for name in GOLDEN:
            if (outdir / name).read_bytes() != self.golden[name]:
                return f"{name} differs from tests/golden/{name}"
        return None


def _eval_check(lot, w: ref.Weighting):
    def check(out: str, _) -> str | None:
        rows = _rows(out, ",")
        expected = {"value": ref.dt_value(lot, w.h), "mean": ref.mean(lot)}
        expected.update({f"dual_moment_{k}": ref.expected_min(lot, k) for k in range(1, 5)})
        expected.update({f"central_moment_{k}": ref.central_moment(lot, k) for k in range(2, 5)})
        if sorted(rows) != sorted(expected):
            return f"rows {sorted(rows)}"
        for key, want in expected.items():
            got = rows[key][0]
            if isinstance(want, float):
                if abs(float(got) - want) > ref.FLOAT_RTOL * max(1.0, float(lot[-1][0])):
                    return f"{key} = {got}, reference {want!r}"
            elif Fraction(got) != want:
                return f"{key} = {got}, reference {want}"
        return None

    return check


def _dominance_check(kind: str, m: int, a, b, expect: bool | None):
    def check(out: str, _) -> str | None:
        rows = {k: v[0] for k, v in _rows(out, None).items()}
        holds = rows["holds"] == "true"
        if rows["kind"] != kind or rows["degree"] != str(m):
            return f"report for {rows['kind']} degree {rows['degree']}"
        if expect is not None and holds != expect:
            return f"holds={holds}, expected {expect}"
        failed = None if rows["failed_condition"] == "-" else rows["failed_condition"]
        witness = None if rows["witness"] == "-" else Fraction(rows["witness"])
        return ref.check_dominance(kind, m, a, b, holds, failed, witness)

    return check


def _pairgen_check(m: int, base: list[Fraction] | None):
    def check(out: str, outdir: Path) -> str | None:
        prefix = "g" if base is None else "p"
        paths = [str(outdir / f"{prefix}_{tag}") for tag in ("c.txt", "d.txt", "provenance.json")]
        if out.split() != paths:
            return f"unexpected paths {out.split()}"
        c, d = _read_lottery(paths[0]), _read_lottery(paths[1])
        prov = json.loads(Path(paths[2]).read_text(encoding="utf-8"))
        n = len(c)
        if prov["order"] != m or prov["n"] != n or len(d) != n or c == d:
            return "members do not match the provenance record"
        for lot in (c, d):
            if any(p != Fraction(1, n) for _, p in lot) or [x for x, _ in lot] != sorted(x for x, _ in lot):
                return "member is not a ranked equal-probability lottery"
        for k in range(1, m):
            if ref.expected_min(c, k) != ref.expected_min(d, k):
                return f"expected minimum of {k} differs between members"
        if base is not None and [x for x, _ in c] != base:
            return "parsimonious C is not the base lottery"
        return None

    return check


def _selfprotect_check(background: bool):
    def check(out: str, _) -> str | None:
        rows = {k: v[0] for k, v in _rows(out, None).items()}
        e_star = float(rows["e_star"])
        if not 0 <= e_star <= 0.5 or not math.isfinite(float(rows["value"])):
            return f"e_star {e_star} outside the effort bounds"
        if ("background_direction" in rows) != background:
            return "background rows do not match epsilon"
        return None

    return check


def make(name: str, seed: int, api, work: Path):
    return {"converse": Converse, "direct": Direct, "queries": Queries}[name](seed, api, work)


def work_dir(root: Path) -> Path:
    path = root / ".bench_out" / f"work-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path
