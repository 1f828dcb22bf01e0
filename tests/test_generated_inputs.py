"""Generated bad inputs never end in a traceback.

Lottery files built from awkward tokens go through the CLI in process
(eval, dominance, pairgen --base FILE and pairgen --base with a comma
list), and so do weighting specs (eval --weighting) and self-protection
problem files (selfprotect) built from the same tokens, known and
unknown keys and stray separators: every run exits 0, 1 or 2 with no
traceback, a run whose command raises an InputValidationError exits 2
with an "error: " line, and no other exception escapes. Mutated
provenance JSON goes through ApportionmentPair.from_json, which may
raise only an InputValidationError. The example counts keep both under a
few seconds.
"""

import contextlib
import io
import json
import os
import random
import re
import tempfile
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualrisk import (
    ApportionmentPair,
    DualRiskError,
    EqualProbLottery,
    InputValidationError,
    make_block,
    make_pair,
    make_parsimonious_pair,
    random_pair,
)
from dualrisk.cli import _build_parser, main

F = Fraction

AWKWARD = (
    "1/0", "1e400", "nan", "inf", "½", "0x10", "١", "٣/٤", "-1", "-0", "+2", "1_000", "1/-2",
    "0", "1", "3", "1/2", "1/3", "2/3", "0.25", "1e-3", "7/2", "10**3", "abc", "1//2", "0/1",
)
WEIGHTINGS = ("identity", "dualpower:m=3", "quadratic:beta=1/2", "tk:gamma=0.61", "power:k=1/2")


@st.composite
def lottery_texts(draw):
    """A lottery file: two-field lines of awkward or plain tokens, mixed with
    blank, one-field and three-field lines; about half of the draws are a
    valid equal-probability file with at most one line replaced."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 6))
        outcomes = sorted(draw(st.lists(st.integers(0, 9), min_size=n, max_size=n)))
        lines = [f"{x} 1/{n}" for x in outcomes]
        if draw(st.booleans()):
            lines[draw(st.integers(0, n - 1))] = " ".join(draw(st.lists(st.sampled_from(AWKWARD), max_size=3)))
    else:
        fields = st.lists(st.sampled_from(AWKWARD), min_size=0, max_size=3)
        lines = [" ".join(f) for f in draw(st.lists(fields, min_size=1, max_size=6))]
    return "\n".join(lines) + draw(st.sampled_from(("\n", "", "\n\n")))


def _run(argv: list[str]) -> tuple[int, str]:
    """main(argv)'s exit code and stderr, after checking that the command
    itself raises no exception but a DualRiskError, and that an
    InputValidationError is exit 2."""
    args, typed = _build_parser().parse_args(argv), None
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            args.func(args)
        except InputValidationError:
            typed = 2
        except DualRiskError:
            typed = 1
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2) and "Traceback" not in err.getvalue()
    if typed is not None:
        assert code == typed and err.getvalue().startswith("error: "), (argv, code, err.getvalue())
    return code, err.getvalue()


@given(
    lottery_texts(),
    lottery_texts(),
    st.sampled_from(WEIGHTINGS),
    st.integers(1, 4),
    st.lists(st.sampled_from(AWKWARD), min_size=1, max_size=5),
)
@settings(max_examples=150, deadline=None)
def test_cli_on_generated_lottery_files(text_a, text_b, weighting, m, tokens):
    with tempfile.TemporaryDirectory() as tmp:
        a, b = Path(tmp, "a.txt"), Path(tmp, "b.txt")
        a.write_text(text_a, encoding="utf-8")
        b.write_text(text_b, encoding="utf-8")
        out = str(Path(tmp, "out"))
        _run(["eval", str(a), "--weighting", weighting])
        _run(["dominance", str(a), str(b), "--degree", str(m)])
        _run(["pairgen", "--order", str(m + 1), f"--base={a}", "--outdir", out])
        _run(["pairgen", "--order", str(m + 1), "--base=" + ",".join(tokens), "--outdir", out])


def test_pairgen_base_file_with_unequal_probabilities_exits_2(tmp_path):
    path = tmp_path / "base.txt"
    path.write_text("1 1/3\n2 2/3\n", encoding="utf-8")
    code, err = _run(["pairgen", "--order", "2", f"--base={path}", "--outdir", str(tmp_path / "out")])
    assert code == 2 and err == "error: lottery does not have equal state probabilities\n"


# family -> its keys, as weighting specs and problem files spell them
WEIGHTING_KEYS = {
    "identity": (), "quadratic": ("beta",), "power": ("k",), "dualpower": ("m",), "tk": ("gamma",),
    "prelec": ("a", "b"), "tabulated": ("knots",), "poly": ("coeffs",), "bogus": ("x",), "": (),
}
EFFORT_KEYS = {
    "linear": ("p0", "k", "p_min", "p_max"), "exponential": ("p0", "k"), "powerlaw": ("p0", "c", "gamma"),
    "bogus": ("x",),
}
SEPARATORS = (",", ";", ":", "", " ")


SPEC_TOKENS = AWKWARD + ("12", "0.61", "1.1", "2000", "1e5")


@st.composite
def specs(draw, families):
    """family:key=value,... with each of the family's keys kept, dropped,
    renamed to an unknown key or repeated, awkward values (now and then
    lists of them, joined by any separator), a stray chunk now and then,
    and separators out of place."""
    family = draw(st.sampled_from(sorted(families)))
    chunks = []
    for key in families[family] + ("zz",) * (draw(st.integers(0, 5)) == 0):
        size = draw(st.sampled_from((1, 1, 1, 4)))
        tokens = draw(st.lists(st.sampled_from(SPEC_TOKENS), min_size=1, max_size=size))
        chunk = f"{key}={draw(st.sampled_from(SEPARATORS)).join(tokens)}"
        action = draw(st.sampled_from(("keep",) * 5 + ("drop", "rename", "repeat")))
        chunks += {"keep": [chunk], "drop": [], "rename": ["zz" + chunk], "repeat": [chunk, chunk]}[action]
    if draw(st.integers(0, 5)) == 0:
        chunks.insert(draw(st.integers(0, len(chunks))), draw(st.sampled_from(SPEC_TOKENS + SEPARATORS)))
    args = draw(st.sampled_from((",", ",", ",", ";", ":"))).join(chunks)
    return family + (draw(st.sampled_from((":", ":", ":", ";", ""))) + args if args else "")


SP_LINES = {
    "wealth": "4", "loss": "1", "epsilon": "1/8", "effort": "linear: p0=1/2, k=1/2", "bounds": "0:1/2",
    "weighting": "dualpower:m=3",
}


@st.composite
def problem_texts(draw):
    """A problem file: the keys of a valid one, each kept, dropped,
    repeated or given an awkward value, an effort spec or a weighting spec,
    with now and then an unknown key or a line without "="."""
    lines = []
    for key, value in SP_LINES.items():
        action = draw(st.sampled_from(("keep", "keep", "keep", "drop", "awkward", "spec", "repeat")))
        if action == "drop":
            continue
        if action == "awkward":
            tokens = draw(st.lists(st.sampled_from(SPEC_TOKENS), max_size=2))
            value = draw(st.sampled_from(SEPARATORS)).join(tokens)
        elif action == "spec" and key in ("effort", "weighting"):
            value = draw(specs(EFFORT_KEYS if key == "effort" else WEIGHTING_KEYS))
        lines += [f"{key} = {value}"] * (2 if action == "repeat" else 1)
    if draw(st.integers(0, 4)) == 0:
        stray = draw(st.sampled_from(("zz = 1", "wealth 4", "= 1", ";", ":")))
        lines.insert(draw(st.integers(0, len(lines))), stray)
    return "\n".join(lines) + "\n"


SP_LINES_TEXT = "".join(f"{key} = {value}\n" for key, value in SP_LINES.items())


@given(specs(WEIGHTING_KEYS), st.sampled_from(("1 1\n", "0 1/3\n1/2 1/3\n7 1/3\n")))
@settings(max_examples=200, deadline=None)
def test_cli_on_generated_weighting_specs(spec, text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "a.txt")
        path.write_text(text, encoding="utf-8")
        _run(["eval", str(path), "--weighting", spec])


@given(problem_texts())
@settings(max_examples=150, deadline=None)
def test_cli_on_generated_problem_files(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "p.cfg")
        path.write_text(text, encoding="utf-8")
        _run(["selfprotect", str(path)])


def _provenances() -> list[dict]:
    base = EqualProbLottery((1, F(5, 2), 4, 7, 9))
    pairs = [
        make_pair(base, make_block(3, F(1, 8)), make_block(3, F(-1, 8)), 1, 2),
        make_parsimonious_pair((1, 2, 4, 7), 0, 3, 16),
        *(random_pair(random.Random(seed), m) for seed, m in ((1, 2), (2, 4), (3, 5))),
    ]
    return [json.loads(pair.to_json()) for pair in pairs]


PROVENANCES = _provenances()
LIST_KEYS = ("base_outcomes", "good_entries", "bad_entries")
JSON_VALUES = st.one_of(
    st.sampled_from(AWKWARD),
    st.integers(-3, 12),
    st.sampled_from((None, True, False, 10**400, 1e308, -0.0, 2.5, [], {}, [[0, "1/2"]], [[0]], [0, "1"])),
    st.lists(st.sampled_from(AWKWARD), max_size=4),
    st.lists(st.tuples(st.integers(-1, 4), st.sampled_from(AWKWARD)).map(list), max_size=4),
)


@st.composite
def mutated_provenance(draw):
    """A valid provenance record with one or two keys changed, half of the
    time one of its lists: one item of a list (an outcome, or an entry's
    offset and increment), an int nudged, the key dropped or its value
    replaced; now and then its JSON text is cut or spliced as well."""
    raw = dict(draw(st.sampled_from(PROVENANCES)))
    for _ in range(draw(st.integers(1, 2))):
        lists = [k for k in LIST_KEYS if isinstance(raw.get(k), list) and raw[k]]
        key = draw(st.sampled_from(lists if lists and draw(st.booleans()) else sorted(raw)))
        value = raw[key]
        if isinstance(value, list) and value and draw(st.booleans()):
            items, i = list(value), draw(st.integers(0, len(value) - 1))
            if isinstance(items[i], list) and len(items[i]) == 2:
                o, v = items[i]
                items[i] = [draw(st.sampled_from((o, o - 1, o + 1, -1))), draw(st.sampled_from((v, *AWKWARD)))]
            else:
                items[i] = draw(st.sampled_from(AWKWARD))
            raw[key] = items
        elif type(value) is int and draw(st.booleans()):
            raw[key] = value + draw(st.integers(-2, 2))
        elif draw(st.integers(0, 5)) == 0:
            del raw[key]
        else:
            raw[key] = draw(JSON_VALUES)
    text = json.dumps(raw)
    if draw(st.integers(0, 9)) == 0:
        cut = draw(st.integers(0, len(text)))
        text = text[:cut] + draw(st.sampled_from(("", "}", "]", ",", '"', "\\"))) + text[cut + 1 :]
    return text


@given(mutated_provenance())
@settings(max_examples=600, deadline=None)
def test_mutated_provenance_raises_only_typed_errors(text):
    try:
        ApportionmentPair.from_json(text)
    except InputValidationError:
        pass


def _small(token: str) -> bool:
    """Not an int that argparse would read as a large count or order."""
    try:
        return abs(int(token)) <= 8
    except ValueError:
        return True


# files in the run's directory: good and bad lotteries, a problem file, a
# missing path and a directory
FILES = {
    "a.lot": "1 1/3\n5/2 2/3\n", "b.lot": "1 1/2\n2 1/2\n", "bad.lot": "1 1/2\nx\n", "sp.cfg": SP_LINES_TEXT,
}
PATHS = (*FILES, "missing.lot", ".")
STRAYS = tuple(filter(_small, AWKWARD)) + ("--", "-", "-h", "--bogus", "=", "", " ", "--format", "help")
SMALL = ("-1", "0", "1", "2", "3", "5")
# flag -> values argparse accepts (None: a switch); ints stay small, so
# every run is short
FLAGS = {
    "eval": {"--weighting": WEIGHTINGS + ("bogus", "dualpower:m=x"), "--format": ("csv", "table")},
    "dominance": {
        "--degree": SMALL, "--kind": ("primal", "dual"), "--ekern": None, "--format": ("csv", "table"),
    },
    "pairgen": {
        "--order": SMALL, "--base": PATHS + ("1,2,4", "1,2,4,7", "2,1", "1,,2", "1/2,1e400"),
        "--random": None, "--n": SMALL, "--M": SMALL + (str(2**70),), "--seed": SMALL + (str(2**70),),
        "--parsimonious": None, "--j": SMALL, "--prefix": ("p", "x/y", "1/0"), "--outdir": ("o", "a.lot"),
    },
    "verify": {"--theorem": ("1", "2", "3", "4", "5", "6"), "--seed": SMALL, "--outdir": ("o", "a.lot")},
    "paper-repro": {"--outdir": ("o", "a.lot")},
    "selfprotect": {"--format": ("csv", "table")},
}
# command -> the flags it needs
REQUIRED = {"dominance": ("--degree",), "pairgen": ("--order", "--base"), "verify": ("--theorem",)}
# command -> the files its path arguments name when they are right
POSITIONALS = {"eval": ("a.lot",), "dominance": ("a.lot", "b.lot"), "selfprotect": ("sp.cfg",)}


@st.composite
def argvs(draw):
    """A command line: a subcommand (now and then a wrong one, or none),
    mostly its number of path arguments and mostly the right files, mostly
    the flags it needs, and some other flags, each with a value, an
    awkward value, no value or as --flag=value, and now and then stray
    tokens anywhere. verify always ends with a small --trials."""
    command = draw(st.sampled_from((*FLAGS, *FLAGS, "", "evl", "--help")))
    flags, right = FLAGS.get(command, {}), POSITIONALS.get(command, ())
    count = max(0, len(right) + draw(st.sampled_from((0, 0, 0, 0, -1, 1))))
    argv = [draw(st.sampled_from(right * 4 + PATHS)) for _ in range(count)]
    chosen = draw(st.lists(st.sampled_from(sorted(flags)), unique=True, max_size=4)) if flags else []
    for flag in REQUIRED.get(command, ()):
        if flag not in chosen and draw(st.sampled_from((True,) * 7 + (False,))):
            chosen.insert(0, flag)
    for flag in chosen:
        values, form = flags[flag], draw(st.sampled_from(("pair",) * 12 + ("awkward", "bare", "equals")))
        value = draw(st.sampled_from(values if form != "awkward" else STRAYS)) if values else None
        if value is None or form == "bare":
            argv.append(flag)
        else:
            argv += [f"{flag}={value}"] if form == "equals" else [flag, value]
    for _ in range(draw(st.sampled_from((0, 0, 0, 0, 0, 1, 2)))):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(STRAYS)))
    if command == "verify":
        argv += ["--trials", draw(st.sampled_from(("-1", "0", "1", "3", "x")))]
    return [command, *argv] if command else argv


@given(argvs())
@settings(max_examples=400, deadline=None)
def test_cli_on_generated_argv(argv):
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ):
        os.environ.pop("DUALRISK_OUTDIR", None)
        for name, text in FILES.items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        here = os.getcwd()
        os.chdir(tmp)  # relative paths and default outputs stay in the run's directory
        try:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            os.chdir(here)
    assert code in (0, 1, 2) and "Traceback" not in err.getvalue(), (argv, code, err.getvalue())
    if code == 2:
        assert re.search(r"^(dualrisk[\w -]*: )?error: ", err.getvalue(), re.M), (argv, err.getvalue())
