"""Bad command lines, each with its exit code and its full error message.

Every row of ERRORS is one bad input to the ``rht`` command: its argv, the
text of the input file that ``$FILE`` stands for (None when the row reads
no such file), the exit code and the whole of stderr.  ``$DATA`` stands
for the packaged data directory.  A row runs ``python -m rht.cli`` in a
subprocess, with this checkout's ``src`` first on the import path and
``COLUMNS=80`` so that argparse wraps its usage text the same way on any
terminal; stdout must stay empty, since the command fails before it
reports anything.

``python tests/golden_errors.py`` runs every row, prints each one that
differs and exits 1 if any does.  It needs only the standard library;
``tests/test_cli.py`` runs the same rows under pytest.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = str(ROOT / "src" / "rht" / "data")

# name: (argv, input file text or None, exit code, full stderr)
ERRORS = {
    # a p/q exponent is refused: exponents are whole numbers
    "rational-exponent": (
        ["cohomology", "$FILE"],
        "cdga half\ngen x 2\ngen y 7\nd y = x^8/2\n",
        2, "error: line 4: exponent must be a nonnegative whole number\n"),
    # a generator name that no expression can spell
    "generator-name-2x": (
        ["cohomology", "$FILE", "--through", "4", "--machine"],
        "cdga bad\ngen 2x 2\ngen y 3\n",
        2, "error: line 2: generator name '2x' must start with a letter or "
           "'_' and go on with letters, digits or '_'\n"),
    # a depth filtration that never stabilizes
    "cyclic-depth": (
        ["distortion", "$FILE", "--class", "v"],
        "cdga cyclic\ngen x 1\ngen v 3\ngen w 3\nd v = w*x\nd w = v*x\n",
        2, "error: depth filtration does not stabilize on: v, w\n"),
    # argparse skips the exclusion check for a value equal to the option's
    # default, so --through keeps none under cohomology
    "degree-and-through": (
        ["cohomology", "$DATA/s2_model.cdga", "--degree", "3",
         "--through", "12"],
        None,
        2, "usage: rht cohomology [-h] [--degree DEGREE | --through THROUGH] "
           "[--machine]\n"
           "                      file\n"
           "rht cohomology: error: argument --through: not allowed with "
           "argument --degree\n"),
    "negative-through": (
        ["cohomology", "$DATA/s2_model.cdga", "--through", "-3"],
        None,
        2, "error: --through must be at least 0, got -3\n"),
    # a sum of CP^n past n = 100 is refused before its linear system on
    # C(2n, 2) unknowns is built
    "cp-sum-past-the-bound": (
        ["scalable", "csum(2*CP101)"],
        None,
        2, "error: a sum of CP101s is too large to refute: its linear system "
           "has C(202, 2) unknowns; sums of CP^n are supported up to "
           "n = 100\n"),
}


def run(argv, text):
    """(exit code, stdout, stderr) of ``python -m rht.cli`` on ``argv``,
    with ``$FILE`` a temporary file holding ``text``."""
    env = dict(os.environ, COLUMNS="80")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    with tempfile.TemporaryDirectory(prefix="rht-errors-") as tmp:
        path = Path(tmp) / "input"
        if text is not None:
            path.write_text(text, encoding="utf-8")
        argv = [a.replace("$DATA", DATA).replace("$FILE", str(path))
                for a in argv]
        proc = subprocess.run([sys.executable, "-m", "rht.cli", *argv],
                              cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def mismatch(name):
    """None when row ``name`` fails as recorded; otherwise what differs."""
    argv, text, code, stderr = ERRORS[name]
    got = run(argv, text)
    if got == (code, "", stderr):
        return None
    return (f"{name}: got exit {got[0]}, stdout {got[1]!r}, stderr "
            f"{got[2]!r}; recorded exit {code}, stderr {stderr!r}")


def main() -> int:
    failures = [m for m in map(mismatch, ERRORS) if m is not None]
    for m in failures:
        print(m)
    print(f"{len(ERRORS) - len(failures)} of {len(ERRORS)} bad inputs fail "
          f"as recorded")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
