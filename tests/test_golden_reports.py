"""``--machine`` reports compared byte for byte with recorded text.

These reports print cohomology representatives and every model generator's
name and differential, so they pin the refactoring contract: a change to the
linear algebra underneath must reproduce them exactly.  Paths to the
packaged data are written as ``$DATA`` and battery timings as ``(N.NNs)``.

``python tests/test_golden_reports.py`` prints the current reports in the
format of ``golden_reports.txt``.
"""

import contextlib
import io
import re
from pathlib import Path

import pytest

from golden_commands import COMMANDS, DATA
from rht.cli import main

GOLDEN = Path(__file__).with_name("golden_reports.txt")


def header(argv):
    return "== " + " ".join(argv) + "\n"


def render(argv):
    """Header, masked ``--machine`` report and exit code of one command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([a.replace("$DATA", DATA) for a in argv] + ["--machine"])
    text = out.getvalue().replace(DATA, "$DATA")
    text = re.sub(r"\(\d+\.\d\ds\)", "(N.NNs)", text)
    return f"{header(argv)}{text}exit = {code}\n"


def recorded():
    """The blocks of golden_reports.txt, keyed by their header lines."""
    blocks = re.split(r"(?m)^(?=== )", GOLDEN.read_text())
    return {b.split("\n", 1)[0] + "\n": b for b in blocks if b}


def test_every_command_is_recorded():
    assert list(recorded()) == [header(argv) for argv in COMMANDS.values()]


@pytest.mark.parametrize("argv", COMMANDS.values(), ids=COMMANDS.keys())
def test_machine_report_matches_recorded_text(argv):
    assert render(argv) == recorded()[header(argv)]


if __name__ == "__main__":
    for argv in COMMANDS.values():
        print(render(argv), end="")
