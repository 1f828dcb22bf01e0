"""Generated bad inputs never end in a traceback.

Lottery files built from awkward tokens go through the CLI in process
(eval, dominance, pairgen --base FILE and pairgen --base with a comma
list): every run exits 0, 1 or 2 with no traceback, a run whose command
raises an InputValidationError exits 2 with an "error: " line, and no
other exception escapes. Mutated provenance JSON goes through
PairProvenance.from_json and rebuild_pair, which may raise only an
InputValidationError or the ConstructionInvariantError of the pair
validator. The example counts keep both under a few seconds.
"""

import contextlib
import io
import json
import random
import tempfile
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from dualrisk import (
    ConstructionInvariantError,
    DualRiskError,
    EqualProbLottery,
    InputValidationError,
    PairProvenance,
    make_block,
    make_pair,
    make_parsimonious_pair,
    random_pair,
    rebuild_pair,
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


def _provenances() -> list[dict]:
    base = EqualProbLottery((1, F(5, 2), 4, 7, 9))
    pairs = [
        make_pair(base, make_block(3, F(1, 8)), make_block(3, F(-1, 8)), 1, 2),
        make_parsimonious_pair((1, 2, 4, 7), 0, 3, 16),
        *(random_pair(random.Random(seed), m) for seed, m in ((1, 2), (2, 4), (3, 5))),
    ]
    return [json.loads(pair.provenance.to_json()) for pair in pairs]


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
        rebuild_pair(PairProvenance.from_json(text))
    except (InputValidationError, ConstructionInvariantError):
        pass
