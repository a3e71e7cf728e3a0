"""Every function of the package that no golden command runs is named here.

The golden commands (``golden_commands.COMMANDS``: the README commands,
``verify-paper`` and one verdict per witness builder) are the user paths the
project pins.  Each runs in process, plain and with ``--machine``, under
``sys.setprofile``; a function defined in ``src/rht`` whose code never starts
is unreached.  The unreached set must equal ``ALLOWED``, which gives one
reason per entry: a helper that only tests call fails here until it is
deleted or wired to a user path, and an entry that becomes reached must
leave the list.

``python tests/test_reachability.py`` prints the unreached functions with
their reasons and exits 1 unless the set equals ``ALLOWED``.  It needs only
the standard library.
"""

import ast
import contextlib
import io
import os
import sys
from pathlib import Path

import rht
from golden_commands import COMMANDS, DATA
from rht.cli import main

INTERFACE = "key primitive or generator interface of GradedAlgebra"
REPR = "__repr__, for interactive use"
BAD_INPUT = "reached only on bad input"
IMPORT = "runs when rht.verify is imported, before any command"

ALLOWED = {
    "cdga.DgaMorphism.__repr__": REPR,
    "cdga.FreeCdga.basis_sizes": "fileformat._product counts the ambient "
                                 "basis only past MAX_POWER_TERMS term "
                                 "pairs; no golden input has such a product",
    "cdga.GradedAlgebra.__repr__": REPR,
    "cdga.GradedAlgebra.scalar": "parse_expression calls it for every numeric "
                                 "literal; no golden input file has one",
    "cdga.OverFreeCdga.format_key": INTERFACE,
    "fileformat.PresentationError.__init__": BAD_INPUT,
    "fileformat.excerpt": BAD_INPUT,
    "homotopy.IntervalAlgebra.format_key": INTERFACE,
    "homotopy.IntervalAlgebra.key_sort_token": INTERFACE,
    "models.CellAttachmentModel.format_key": INTERFACE,
    "models.CellAttachmentModel.key_sort_token": INTERFACE,
    "scalability.ConnectedSumRing.cross_pairs": "builds the relations and "
                                                "names a failing witness's "
                                                "cross product; golden "
                                                "witnesses pass",
    "scalability.ConnectedSumRing.relations": "the quotient slices of a sum "
                                              "read it; no golden command "
                                              "slices one, since duality is "
                                              "checked from the summands",
    "scalability.ExteriorAlgebra.gen_key": INTERFACE,
    "scalability.ExteriorAlgebra.gens": INTERFACE,
    "scalability.pi_ring": "a public family builder that tests and "
                           "bench/tracer.py name",
    "verify._battery": IMPORT,
    "verify._battery.register": IMPORT,
}


def defined_functions():
    """{(real path, first line, name): dotted name} of every ``def`` in the
    package; the first line is a decorator's when there is one, as in the
    function's code object."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                dotted = f"{prefix}{child.name}"
                found[(os.path.realpath(path), first, child.name)] = dotted
                visit(child, path, f"{dotted}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(Path(rht.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path,
              f"{path.stem}.")
    return found


def unreached():
    """The dotted names of the package functions that no golden command
    calls, sorted."""
    started = set()

    def record(frame, event, arg):
        if event == "call":
            started.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        for argv in COMMANDS.values():
            argv = [a.replace("$DATA", DATA) for a in argv]
            for mode in ([], ["--machine"]):
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    main(argv + mode)
    finally:
        sys.setprofile(previous)
    real = {c.co_filename: os.path.realpath(c.co_filename) for c in started}
    ran = {(real[c.co_filename], c.co_firstlineno, c.co_name) for c in started}
    return sorted(name for key, name in defined_functions().items()
                  if key not in ran)


def test_unreached_functions_are_exactly_the_allowed_ones():
    assert unreached() == sorted(ALLOWED)


if __name__ == "__main__":
    names = unreached()
    for name in names:
        print(f"{name}  ({ALLOWED.get(name, 'NOT ALLOWED')})")
    for name in sorted(set(ALLOWED) - set(names)):
        print(f"{name}  (allowed, but reached)")
    sys.exit(0 if names == sorted(ALLOWED) else 1)
