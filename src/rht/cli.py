"""Command-line front end.

Subcommands: cohomology, model, distortion, scalable, pair, verify-paper.
Exit codes: 0 for a clean pass, 1 for a computational fail/refuted verdict
or a failed internal self-check, 2 for usage or parse errors.  ``--machine``
switches every command to the stable key-value report; ``--through``
gives the truncation cap, DEFAULT_CAP when it is left out.
"""

from __future__ import annotations

import argparse
import sys

from . import fileformat, verify
from .cohomology import cohomology
from .fileformat import PresentationError
from .homotopy import parse_bracket, scale_leaves, whitehead_pair
from .models import bigraded_model, distortion_exponent, minimal_model
from .presentations import RingPresentation
from .report import Report
from .scalability import classify, SCALABLE

DEFAULT_CAP = 12


def _emit(report: Report, machine: bool):
    sys.stdout.write(report.render_machine() if machine else report.render_human())


def _load(path):
    try:
        return fileformat.load(path)
    except FileNotFoundError:
        raise PresentationError(f"no such file: {path}")


def _model_of(obj, cap, bigraded):
    if not bigraded:
        return minimal_model(obj, cap)
    if not isinstance(obj, RingPresentation):
        raise PresentationError("--bigraded needs a ring file (zero differential)")
    return bigraded_model(obj, cap)


def cmd_cohomology(args) -> int:
    for option in ("degree", "through"):
        value = getattr(args, option)
        if value is not None and value < 0:
            raise PresentationError(f"--{option} must be at least 0, got {value}")
    obj = _load(args.file)
    cap = args.through if args.through is not None else \
        (args.degree if args.degree is not None else DEFAULT_CAP)
    degrees = [args.degree] if args.degree is not None else list(range(0, cap + 1))
    report = Report("cohomology")
    report.add("input", args.file)
    report.add("algebra", obj.name)
    report.add("cap", cap)
    ranks = []
    for k in degrees:
        res = cohomology(obj, k, cap)
        ranks.append(res.rank)
        report.add(f"degree.{k}.rank", res.rank)
        for i, cls in enumerate(res.classes):
            report.add(f"degree.{k}.rep.{i}", repr(cls))
    report.add("ranks", ",".join(str(r) for r in ranks))
    _emit(report, args.machine)
    return 0


def cmd_model(args) -> int:
    obj = _load(args.file)
    model = _model_of(obj, args.through, args.bigraded)
    depths = model.depths()
    report = Report("model")
    report.add("input", args.file)
    report.add("target", obj.name)
    report.add("cap", args.through)
    report.add("bigraded", model.bigraded)
    report.add("generators", len(model.algebra.gens))
    if model.trivial_warning:
        report.add("warning", "no generators below the cap; model is trivial")
    for g in model.algebra.gens:
        row = f"degree={g.degree} depth={depths[g.name]}"
        if model.bigraded:
            row += f" stage={g.stage}"
        dv = model.algebra.differential_of(g.name)
        row += f" d={dv!r}"
        report.add(f"gen.{g.name}", row)
    _emit(report, args.machine)
    return 0


def _check_class(alg, cls):
    if cls not in alg.index:
        known = ", ".join(alg.generator_names())
        listed = (f"generators are: {known}" if known
                  else "the model has no generators")
        raise PresentationError(f"unknown class {cls!r}; {listed}")


def cmd_distortion(args) -> int:
    alg = _load(args.file)
    if isinstance(alg, RingPresentation):
        cap = args.through if args.through is not None else DEFAULT_CAP
        alg = bigraded_model(alg, cap).algebra
    elif args.through is not None:
        raise PresentationError("--through applies to ring files only, "
                                "not to a cdga file")
    _check_class(alg, args.cls)
    rep = distortion_exponent(alg, args.cls)
    report = Report("distortion")
    report.add("input", args.file)
    report.add("class", rep.generator)
    report.add("degree", rep.degree)
    report.add("depth", rep.depth)
    report.add("exponent", rep.exponent)
    report.add("sharpness", rep.sharpness)
    _emit(report, args.machine)
    return 0


def cmd_scalable(args) -> int:
    result = classify(args.descriptor)
    report = Report("scalable")
    report.add("descriptor", args.descriptor)
    report.add("verdict", result.verdict)
    report.add("reason", result.reason)
    if result.witness is not None:
        report.add("witness.target", result.witness.target.name)
        for name in sorted(result.witness.images):
            report.add(f"witness.{name}", repr(result.witness.images[name]))
    if result.refutation is not None:
        cert = result.refutation
        report.add("certificate.kind", type(cert).__name__)
        report.add("certificate", cert.description)
        report.add("certificate.checked", cert.check())
    _emit(report, args.machine)
    return 0 if result.verdict == SCALABLE else 1


def cmd_pair(args) -> int:
    obj = _load(args.file)
    if isinstance(obj, RingPresentation):
        raise PresentationError("bracket pairing needs a cdga (model) file")
    _check_class(obj, args.cls)
    expr = parse_bracket(args.bracket)
    value = whitehead_pair(obj, args.cls, expr)
    report = Report("pair")
    report.add("input", args.file)
    report.add("class", args.cls)
    report.add("bracket", args.bracket)
    report.add("value", value)
    if args.scale is not None:
        n = fileformat.rational(args.scale)
        scaled = scale_leaves(expr, lambda leaf: n ** obj.degree_of(leaf.name))
        report.add("scale", args.scale)
        report.add("scaled_value", whitehead_pair(obj, args.cls, scaled))
    _emit(report, args.machine)
    return 0


def cmd_verify_paper(args) -> int:
    only = set(args.only) if args.only else None
    if only:
        unknown = only - set(verify.BATTERIES)
        if unknown:
            raise PresentationError(
                f"unknown batteries: {', '.join(sorted(unknown))}; known: "
                f"{', '.join(verify.BATTERIES)}")
    results = verify.run_all(only)
    report = Report("verify-paper")
    all_pass = True
    for r in results:
        all_pass = all_pass and r.passed
        status = "pass" if r.passed else "FAIL"
        report.add(f"check.{r.name}", f"{status} ({r.seconds:.2f}s) {r.detail}")
    report.add("all_pass", all_pass)
    _emit(report, args.machine)
    return 0 if all_pass else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rht",
        description="Exact computations with graded-commutative differential "
                    "algebras: cohomology, minimal models, distortion "
                    "exponents, bracket pairings, and scalability verdicts.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cohomology", help="ranks and representatives of H^k")
    p.add_argument("file")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--degree", type=int)
    # no default: argparse skips the exclusion check for the default value
    group.add_argument("--through", type=int)
    p.add_argument("--machine", action="store_true")
    p.set_defaults(fn=cmd_cohomology)

    p = sub.add_parser("model", help="minimal model of a cdga or ring file")
    p.add_argument("file")
    p.add_argument("--through", type=int, default=DEFAULT_CAP)
    p.add_argument("--bigraded", action="store_true")
    p.add_argument("--machine", action="store_true")
    p.set_defaults(fn=cmd_model)

    p = sub.add_parser("distortion", help="predicted distortion exponent")
    p.add_argument("file")
    p.add_argument("--class", dest="cls", required=True)
    p.add_argument("--through", type=int)
    p.add_argument("--machine", action="store_true")
    p.set_defaults(fn=cmd_distortion)

    p = sub.add_parser("scalable", help="classify a space descriptor")
    p.add_argument("descriptor")
    p.add_argument("--machine", action="store_true")
    p.set_defaults(fn=cmd_scalable)

    p = sub.add_parser("pair", help="pair a generator against a bracket")
    p.add_argument("file")
    p.add_argument("--class", dest="cls", required=True)
    p.add_argument("--bracket", required=True)
    p.add_argument("--scale")
    p.add_argument("--machine", action="store_true")
    p.set_defaults(fn=cmd_pair)

    p = sub.add_parser("verify-paper", help="run the verification batteries")
    p.add_argument("--only", nargs="*")
    p.add_argument("--machine", action="store_true")
    p.set_defaults(fn=cmd_verify_paper)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except ValueError as exc:  # PresentationError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
