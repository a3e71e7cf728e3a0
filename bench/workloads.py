"""The benchmark's workloads: seeded task lists and the checks on their outputs.

Each task is one call a user waits on.  ``build`` turns (workload, seed, scale)
into tasks; the seed only relabels or reorients inputs in ways that keep every
shape and every verdict, so the cost of a task does not depend on the seed:

* wedge rings declare their equal-degree spheres in a seeded order;
* connected sums get seeded summand orientations;
* classifier descriptors split, reorder and reorient their summands;
* the two randomized verification batteries get seeded generators.

Seed 0 (the default) reproduces the literal calls listed in ``NOTES.md``.

Every task output is reduced to a digest text and a dict of invariants.  At
seed 0 both must match ``golden.json``; at any other seed only the
invariants must, because they do not depend on labels or orientations.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import re
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from typing import Callable

from rht import cli, models, presentations, scalability, verify
from rht.cdga import FreeCdga

DEFAULT_SEED = 0
WORKLOADS = ("models", "scalability", "paper")
SCALES = ("full", "tiny")


@dataclass
class Task:
    name: str
    run: Callable[[], object]
    summarize: Callable[[object], tuple]   # output -> (digest text, invariants)


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# seeded inputs


def _equal_degree_order(degrees, rng):
    """Generator order that shuffles only spheres of equal degree."""
    order = list(range(len(degrees)))
    if rng is None:
        return order
    for deg in sorted(set(degrees)):
        slots = [i for i in order if degrees[i] == deg]
        shuffled = slots[:]
        rng.shuffle(shuffled)
        for slot, pick in zip(slots, shuffled):
            order[slot] = pick
    return order


def _wedge_ring(degrees, order, name):
    """``wedge_of_spheres_ring`` with generator x_i declared at slot order[i]."""
    if order == sorted(order):
        return presentations.wedge_of_spheres_ring(degrees, name=name)
    gens = [(f"x{i}", degrees[i]) for i in order]
    amb = FreeCdga(gens)
    rels = []
    for a in range(len(gens)):
        for b in range(a, len(gens)):
            e = amb[gens[a][0]] * amb[gens[b][0]]
            if not e.is_zero():
                rels.append(e)
    return presentations.RingPresentation(gens, rels, name=name)


def _orientations(count, rng):
    if rng is None:
        return None
    return [rng.choice((1, -1)) for _ in range(count)]


def _csum_text(atom, plus, minus, rng):
    """Descriptor of a connected sum of ``plus`` + ``minus`` copies of atom.

    With a seed, the two orientation counts may trade places (every verdict
    used here is symmetric in orientation) and are split into reordered
    groups.
    """
    bare = f"({atom})" if "x" in atom else atom
    parts = [(plus, False)] + ([(minus, True)] if minus else [])
    if rng is not None:
        if rng.random() < 0.5:
            parts = [(c, not r) for c, r in parts]
        groups = []
        for count, rev in parts:
            while count:
                take = rng.randint(1, count)
                groups.append((take, rev))
                count -= take
        rng.shuffle(groups)
        parts = groups
    body = ", ".join(f"{c}*rev({atom})" if r else f"{c}*{bare}"
                     for c, r in parts)
    return f"csum({body})"


# ---------------------------------------------------------------------------
# summaries of outputs


def _model_summary(model):
    alg = model.algebra
    lines = []
    for g in alg.gens:
        lines.append(f"{g.name} deg={g.degree} stage={g.stage} "
                     f"d={alg.differential_of(g.name)!r} "
                     f"image={model.quasi_iso.images[g.name]!r}")
    inv = {"generators": {str(k): v for k, v in sorted(
        Counter(g.degree for g in alg.gens).items())},
        "ranks": [len(model.target.basis(k)) for k in range(model.cap + 1)]}
    if model.bigraded:
        inv["stages"] = {f"{d}/{s}": v for (d, s), v in sorted(
            Counter((g.degree, g.stage) for g in alg.gens).items())}
    return "\n".join(lines), inv


def _verdict_summary(result):
    if isinstance(result, scalability.Decision):
        verdict = {True: "embeddable", False: "refuted",
                   None: "undecided"}[result.embeddable]
        head = (f"{result.family} n={result.n} r={result.r} "
                f"boundary={result.boundary} null={result.nullspace_dim}")
    else:
        verdict = result.verdict
        head = f"reason={result.reason}"
    cert, witness = result.refutation, result.witness
    lines = [f"verdict={verdict}", head]
    if cert is not None:
        lines.append(f"certificate={type(cert).__name__}: {cert.description}")
    if witness is not None:
        lines.append(f"witness.target={witness.target.name}")
        lines.extend(f"witness.{k}={witness.images[k]!r}"
                     for k in sorted(witness.images))
    inv = {"verdict": verdict,
           "certificate": type(cert).__name__ if cert is not None else None,
           "certificate_checked": cert.check() if cert is not None else None,
           "witness_verified": (scalability.verify_witness(witness.ring,
                                                           witness).passed
                                if witness is not None else None)}
    return "\n".join(lines), inv


def _battery_summary(result):
    text = f"{result.name} criterion={result.criterion} passed={result.passed} " \
           f"detail={result.detail}"
    return text, {"passed": result.passed, "detail": result.detail}


_DATA = str(resources.files("rht").joinpath("data"))
_SECONDS = re.compile(r"\(\d+\.\d+s\) ")


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue().replace(_DATA, "$DATA"), err.getvalue()


def _cli_summary(keys):
    def summarize(output):
        code, text, err = output
        fields = dict(line.split(" = ", 1) for line in text.splitlines())
        inv = {"exit": code, "stderr": err}
        if fields.get("command") == "verify-paper":
            inv["checks"] = {k: v.split(" ", 1)[0] for k, v in fields.items()
                             if k.startswith("check.")}
            text = _SECONDS.sub("", text)
        inv.update({k: fields.get(k) for k in keys})
        return f"exit={code}\n{text}{err}", inv
    return summarize


# ---------------------------------------------------------------------------
# workloads


def _models(seed, tiny):
    rng = random.Random(seed) if seed != DEFAULT_SEED else None
    cap = {"wedge22": 5 if tiny else 9, "wedge335": 9 if tiny else 16,
           "s2s2": 4 if tiny else 5, "cp2": 4 if tiny else 6}
    o22 = _equal_degree_order([2, 2], rng)
    o22b = _equal_degree_order([2, 2], rng)
    o335 = _equal_degree_order([3, 3, 5], rng)
    or_s2s2 = _orientations(2, rng)
    or_cp2 = _orientations(3, rng)

    return [
        Task("minimal_wedge_S2_S2", lambda: models.minimal_model(
            _wedge_ring([2, 2], o22, "wedge"), cap["wedge22"]), _model_summary),
        Task("bigraded_wedge_S2_S2", lambda: models.bigraded_model(
            _wedge_ring([2, 2], o22b, "wedge"), cap["wedge22"]),
            _model_summary),
        # at seed 0 this is verify.build_wedge_model(cap)
        Task("wedge_table_model", lambda: models.minimal_model(
            _wedge_ring([3, 3, 5], o335, "wedge335"), cap["wedge335"]),
            _model_summary),
        Task("minimal_csum_2_S2xS2", lambda: models.minimal_model(
            scalability.connected_sum_ring([("sphere_product", 2, 2)] * 2,
                                            or_s2s2), cap["s2s2"]),
            _model_summary),
        Task("bigraded_csum_3_CP2", lambda: models.bigraded_model(
            scalability.connected_sum_ring([("projective", 2, 2)] * 3, or_cp2),
            cap["cp2"]), _model_summary),
    ]


def _scalability(seed, tiny):
    rng = random.Random(seed) if seed != DEFAULT_SEED else None
    decisions = ([("omega", 2, 3), ("omega", 2, 2), ("omega", 2, 5),
                  ("sigma", 2, 3), ("sigma", 2, 4), ("pi", 3, 2)] if tiny else
                 [("omega", 5, 126), ("omega", 3, 10), ("omega", 3, 40),
                  ("sigma", 4, 35), ("sigma", 4, 60), ("pi", 4, 3)])
    sums = ([("S2xS2", 5, 0), ("S3xS3", 2, 0), ("HP2", 3, 1)] if tiny else
            [("S2xS2", 70, 0), ("S3xS3", 10, 0), ("HP2", 30, 2)])
    tasks = []
    for family, n, r in decisions:
        name = f"decide_{family}"
        # looked up at call time, so that a tracer's patch is seen
        tasks.append(Task(f"{name}_{n}_{r}",
                          lambda name=name, n=n, r=r:
                          getattr(scalability, name)(n, r), _verdict_summary))
    for atom, plus, minus in sums:
        text = _csum_text(atom, plus, minus, rng)
        tasks.append(Task(f"classify_{plus + minus}_{atom}",
                          lambda text=text: scalability.classify(text),
                          _verdict_summary))
    return tasks


def _paper(seed, tiny):
    rng = random.Random(seed) if seed != DEFAULT_SEED else None
    iterations = 30 if tiny else 1000
    only = (["--only", "s2-model", "whitehead", "hopf", "massey",
             "obstruction"] if tiny else [])
    through = "6" if tiny else "12"
    four_cp2 = _csum_text("CP2", 4, 0, rng)
    commands = [
        ("cli_verify_paper", ["verify-paper", *only], ["all_pass"]),
        ("cli_cohomology", ["cohomology", f"{_DATA}/s2_model.cdga",
                            "--through", "7"], ["ranks"]),
        ("cli_model", ["model", f"{_DATA}/cp2.ring", "--bigraded",
                       "--through", through], ["generators"]),
        ("cli_distortion", ["distortion", f"{_DATA}/cp2_model.cdga",
                            "--class", "y"], ["degree", "depth", "exponent"]),
        ("cli_scalable", ["scalable", four_cp2],
         ["verdict", "certificate.kind", "certificate.checked"]),
        ("cli_pair", ["pair", f"{_DATA}/wedge335_model.cdga", "--class", "z",
                      "--bracket", "[[a,c],[a,[a,b]]]", "--scale", "2"],
         ["value", "scaled_value"]),
        ("cli_verify_signatures", ["verify-paper", "--only", "signatures"],
         ["all_pass"]),
    ]
    tasks = [
        Task("cdga_laws", lambda: verify.run_cdga_laws(
            iterations, seed=0xC0F1 + seed), _battery_summary),
        Task("integration", lambda: verify.run_integration(
            iterations, seed=0xC0F2 + seed), _battery_summary),
    ]
    for name, argv, keys in commands:
        tasks.append(Task(name, lambda argv=argv: _run_cli(
            [*argv, "--machine"]), _cli_summary(keys)))
    return tasks


def build(workload, seed=DEFAULT_SEED, scale="full"):
    """The task list of one workload; inputs depend only on (seed, scale)."""
    makers = {"models": _models, "scalability": _scalability, "paper": _paper}
    if workload not in makers:
        raise ValueError(f"unknown workload {workload!r}")
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}")
    return makers[workload](seed, scale == "tiny")


def check(task, output, golden, seed):
    """None when the output matches the golden record, else a reason."""
    text, inv = task.summarize(output)
    if golden is None:
        return "no golden record"
    if seed == DEFAULT_SEED and digest(text) != golden["digest"]:
        return "digest differs from the golden record"
    if inv != golden["invariants"]:
        return f"invariants {inv} differ from the golden {golden['invariants']}"
    return None
