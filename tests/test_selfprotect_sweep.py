"""selfprotect over every weighting family, both linear effort stretches
(clamped and open), the exponential and power-law models and every
background regime, byte for byte against tests/golden/selfprotect_sweep.txt:
stdout, stderr and exit code of each config.

Regenerate the golden file with

    PYTHONPATH=src python tests/test_selfprotect_sweep.py > tests/golden/selfprotect_sweep.txt
"""

import contextlib
import io
import sys
import tempfile
from pathlib import Path

from dualrisk.cli import main

GOLDEN = Path(__file__).parent / "golden" / "selfprotect_sweep.txt"

WEIGHTINGS = [
    "identity",
    "quadratic:beta=1/2",
    "power:k=3",
    "power:k=1/2",
    "dualpower:m=2",
    "dualpower:m=3",
    "tk:gamma=0.61",
    "prelec:a=0.65,b=1",
    "tabulated:knots=0,0;1/3,1/2;1,1",
    "poly:coeffs=0,3/2,0,-1/2",
    "poly:coeffs=0,1,0",
]
EFFORTS = [
    "linear: p0=4/5, k=2, p_min=1/10",  # p(e) floors at e = 7/20
    "linear: p0=1/2, k=1/2",
    "exponential: p0=3/5, k=2",
    "powerlaw: p0=4/5, c=1024/75, gamma=1/2",
]
EPSILONS = ["0", "1/16", "1/8", "3/4"]

CONFIG = """\
wealth = 4
loss = 1
epsilon = {epsilon}
effort = {effort}
bounds = 0:1/2
weighting = {weighting}
"""


def _run(path: str) -> tuple[int, str, str]:
    """main(["selfprotect", path]) with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(["selfprotect", path])
    return status, out.getvalue(), err.getvalue()


def sweep_text() -> str:
    blocks = []
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "sp.cfg")
        for weighting in WEIGHTINGS:
            for effort in EFFORTS:
                for epsilon in EPSILONS:
                    Path(path).write_text(CONFIG.format(epsilon=epsilon, effort=effort, weighting=weighting))
                    status, out, err = _run(path)
                    err = err.replace(path, "<config>")
                    blocks.append(
                        f"## weighting = {weighting}; effort = {effort}; epsilon = {epsilon}\n"
                        f"exit {status}\n--- stdout\n{out}--- stderr\n{err}"
                    )
    return "".join(blocks)


def test_matches_golden():
    assert sweep_text() == GOLDEN.read_text()


if __name__ == "__main__":
    sys.stdout.write(sweep_text())
