"""Named verification batteries behind the verify-paper command.

Each battery re-derives its expected values from an independent route
(hand-expanded identities, series inversions, exhaustive enumeration) and
checks the library against them with exact arithmetic.  The acceptance test
suite runs the same batteries with per-criterion time budgets.

The batteries call library entry points through their modules, so a test
harness can inject a fault (for example a sign flip in an integration
operator) and watch the corresponding battery fail by name.

The randomized batteries (``cdga-laws``, ``integration``) are seeded: each
draws from a ``random.Random(seed)``, so a seed names one run and reproduces
any failure it shows.  Their elements come from ``random_homogeneous``
(``cdga-laws`` keeps its draw routine, ``homogeneous_sampler``, per
algebra), which draws only through ``random()``, the one method whose
sequence Python promises to keep across versions; the few other draws use
``randrange``, ``randint`` and ``shuffle``, unchanged in CPython since 3.2.

A battery is a function decorated with ``@_battery(name, criterion)``.  Its
body returns the detail reported on a pass and fails through
``_require(ok, detail)``, which raises with the failure detail when ``ok``
is false (an explicit raise, so ``python -O`` keeps every check).  The
decorator registers the battery in BATTERIES, in definition order, and
turns each run into a timed CheckResult.
"""

from __future__ import annotations

import functools
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from itertools import product
from math import comb

from . import fileformat
from . import homotopy as homotopy_mod
from . import models as models_mod
from . import scalability as scal_mod
from .cohomology import cohomology as cohomology_of, primitive
from .cdga import DgaMorphism, Element, FreeCdga, TruncatedCdga
from .presentations import (RingPresentation, projective_ring, sphere_ring,
                            wedge_of_spheres_ring)


@dataclass
class CheckResult:
    name: str
    criterion: int
    passed: bool
    detail: str
    seconds: float


BATTERIES = {}


class _Failed(Exception):
    """A battery check failed; the one argument is the reported detail."""


def _require(ok, detail):
    """Fail the running battery with ``detail`` unless ``ok``."""
    if not ok:
        raise _Failed(detail)


def _battery(name, criterion):
    """Register a battery under ``name``; the registered function times the
    body and reports its returned detail, or the detail it failed with."""
    def register(body):
        @functools.wraps(body)
        def run(*args, **kwargs):
            t0 = time.time()
            try:
                passed, detail = True, body(*args, **kwargs)
            except _Failed as failure:
                passed, detail = False, failure.args[0]
            return CheckResult(name, criterion, passed, detail, time.time() - t0)
        BATTERIES[name] = run
        return run
    return register


def _data_text(filename):
    return resources.files("rht").joinpath("data").joinpath(filename).read_text()


def load_fixture(filename):
    """Parse one of the packaged presentation files."""
    return fileformat.loads(_data_text(filename))


def fixture_algebras():
    """The standing zoo of exact fixture algebras used by the law batteries."""
    mixed = FreeCdga.define(
        [("x", 2), ("u", 3), ("w", 4), ("v", 7)],
        d=lambda A: {"u": A["x"] ** 2, "v": A["w"] ** 2 - A["x"] ** 4},
        name="mixed_even_odd")
    return [
        load_fixture("s2_model.cdga"),
        load_fixture("cp2_model.cdga"),
        load_fixture("wedge335_model.cdga"),
        FreeCdga([(f"dx{i}", 1) for i in range(1, 5)], name="Ext4"),
        mixed,
    ]


def random_homogeneous(alg, rng, degrees):
    """A random nonzero homogeneous element of ``alg``, or its unit.

    Each choice is one ``rng.random()`` call, scaled as ``int(r * n)``: a
    degree uniform over the sequence ``degrees``, then 1 to 3 picks, each a
    uniform monomial of that degree's basis plus an int from -4 to 4 added to
    its coefficient.  A draw with no basis or a zero sum is retried, up to 8
    tries; after that the unit is returned.  ``random.Random.random`` is the
    same on every supported interpreter, so a seed names one sequence of
    elements.  The draw is one call of ``homogeneous_sampler(alg, degrees)``;
    ``cdga-laws`` keeps one sampler per algebra for all its draws.
    """
    return homogeneous_sampler(alg, degrees)(rng)


def homogeneous_sampler(alg, degrees):
    """The draw of ``random_homogeneous`` on ``alg`` and ``degrees``, as a
    function of the rng: each degree's basis is looked up once, at its first
    draw, and kept for the later ones."""
    bases = [None] * len(degrees)

    def sample(rng):
        draw = rng.random
        for _ in range(8):
            j = int(draw() * len(degrees))
            basis = bases[j]
            if basis is None:
                basis = bases[j] = alg.basis(degrees[j])
            if basis:
                terms = {}
                for _ in range(1 + int(draw() * 3)):
                    mon = basis[int(draw() * len(basis))]
                    terms[mon] = terms.get(mon, 0) + int(draw() * 9) - 4
                e = alg.element(terms)
                if e:
                    return e
        return alg.unit()

    return sample


def free_lie_generator_counts(loop_degrees, top):
    """Generator counts of a wedge-of-spheres model, by series inversion.

    The loop homology of a wedge of spheres is the tensor algebra on classes
    one degree below the spheres; inverting its Hilbert series through the
    Poincare-Birkhoff-Witt factorization gives the dimension of the free
    graded Lie algebra degree by degree, which is the model's generator
    count one degree up.  Only even loop degrees are supported (all factors
    polynomial), which covers odd-sphere wedges.
    """
    if any(d % 2 for d in loop_degrees):
        raise ValueError("only even loop degrees are supported")
    series = [0] * (top + 1)
    series[0] = 1
    for n in range(1, top + 1):
        series[n] = sum(series[n - d] for d in loop_degrees if d <= n)
    dims = {}
    for k in range(1, top + 1):
        m = series[k]
        dims[k] = m
        for _ in range(m):
            for n in range(top, k - 1, -1):
                series[n] -= series[n - k]
    return {k + 1: m for k, m in dims.items() if m}


# ---------------------------------------------------------------------------
# battery 1: algebra laws


@_battery("cdga-laws", 1)
def run_cdga_laws(iterations=1000, seed=0xC0F1):
    rng = random.Random(seed)
    algebras = fixture_algebras()
    degrees = list(range(1, 13))
    for alg in algebras:
        sample = homogeneous_sampler(alg, degrees)
        for _ in range(iterations):
            x = sample(rng)
            y = sample(rng)
            x_odd = (x.degree or 0) % 2
            xy, yx, dx = x * y, y * x, x.d()
            _require(xy == (-yx if x_odd and (y.degree or 0) % 2 else yx),
                     f"graded commutativity fails in {alg.name}")
            x_dy = x * y.d()
            _require(xy.d() == dx * y + (-x_dy if x_odd else x_dy),
                     f"Leibniz rule fails in {alg.name}")
            _require(not dx.d(), f"d*d != 0 in {alg.name}")
    # monomial normalization: order independence against stepwise products
    for alg in algebras:
        if not isinstance(alg, FreeCdga):
            continue
        for _ in range(200):
            deg = rng.choice(degrees)
            basis = alg.basis(deg)
            if not basis:
                continue
            mon = basis[rng.randrange(len(basis))]
            factors = []
            for i, e in mon:
                factors.extend([(i, 1)] * e)
            rng.shuffle(factors)
            sign, key = alg.monomial(factors)
            _require(key == mon, "normalization changed the monomial")
            stepwise = alg.unit()
            for i, _e in factors:
                stepwise = stepwise * alg[alg.gens[i].name]
            _require(stepwise == alg.element({mon: sign}),
                     "normalization sign disagrees with stepwise multiplication")
    return (f"{iterations} randomized Koszul/Leibniz/d2 checks on "
            f"{len(algebras)} algebras, plus 200 normalization round-trips each")


# ---------------------------------------------------------------------------
# battery 2: integration identities


@_battery("integration", 2)
def run_integration(iterations=1000, seed=0xC0F2):
    rng = random.Random(seed)
    algebras = [load_fixture("wedge335_model.cdga"), load_fixture("s2_model.cdga")]
    degrees = list(range(1, 10))
    for _ in range(iterations):
        alg = algebras[rng.randrange(len(algebras))]
        interval = homotopy_mod.interval_algebra(alg)
        u = interval.zero()
        for _ in range(rng.randint(1, 3)):
            e = random_homogeneous(alg, rng, degrees)
            i = rng.randint(0, 5)
            u = u + interval.lift(e, i, dt=rng.random() >= 0.5)
        at0, at1 = homotopy_mod.at(u, 0), homotopy_mod.at(u, 1)
        du = u.d()
        lhs = homotopy_mod.integrate_0_t(u).d() + homotopy_mod.integrate_0_t(du)
        _require(lhs == u - interval.lift(at0),
                 "interval integration identity (0..t) fails")
        lhs1 = homotopy_mod.integrate_0_1(u).d() + homotopy_mod.integrate_0_1(du)
        _require(lhs1 == at1 - at0, "endpoint integration identity (0..1) fails")
    return f"{iterations} randomized homotopy elements, both identities exact"


# ---------------------------------------------------------------------------
# battery 3: the 2-sphere model


@_battery("s2-model", 3)
def run_s2_model():
    model = models_mod.minimal_model(sphere_ring(2), 7)
    degs = sorted(g.degree for g in model.algebra.gens)
    _require(degs == [2, 3], f"expected generators in degrees [2, 3], got {degs}")
    a = next(g.name for g in model.algebra.gens if g.degree == 2)
    b = next(g.name for g in model.algebra.gens if g.degree == 3)
    db = model.algebra.differential_of(b)
    a2 = model.algebra[a] ** 2
    _require(db == a2 or db == -a2, f"d({b}) = {db} is not +-{a}^2")
    depths = model.depths()
    _require(depths[a] == 0 and depths[b] == 1,
             f"depths {depths} differ from (0, 1)")
    report = models_mod.distortion_exponent(model.algebra, b)
    _require(report.exponent == 4 and report.sharpness == "sharp-if-scalable",
             f"distortion report {report} is not exponent 4")
    return f"generators ({a}:2, {b}:3), d{b} = {db}, depths (0,1), exponent 4"


# ---------------------------------------------------------------------------
# battery 4: the wedge model through degree 13


EXPECTED_WEDGE_DIMS = {3: 2, 5: 2, 7: 4, 9: 7, 11: 16, 13: 30}


def build_wedge_model(cap=13):
    return models_mod.minimal_model(
        wedge_of_spheres_ring([3, 3, 5], name="wedge335"), cap)


def _mapped_differential(table: FreeCdga, alg, psi, name):
    """psi(d name): the table differential of ``name`` with every table
    generator replaced by its image under ``psi``, in the model ``alg``."""
    out = alg.zero()
    for mon, c in table.differential_of(name).terms.items():
        piece = alg.unit()
        for i, e in mon:
            piece = piece * psi[table.gens[i].name] ** e
        out = out + c * piece
    return out


def embed_table_in_model(table: FreeCdga, model) -> dict:
    """Solve a chain-map embedding of the fixture table into the model.

    Closed generators map to the model's closed generators of the same
    degree; each remaining image is an exact linear solve of
    d(psi(v)) = psi(dv).  Returns {table generator: model Element}.
    """
    alg = model.algebra
    closed3 = [g.name for g in alg.gens
               if g.degree == 3 and alg.differential_of(g.name).is_zero()]
    closed5 = [g.name for g in alg.gens
               if g.degree == 5 and alg.differential_of(g.name).is_zero()]
    if len(closed3) != 2 or len(closed5) != 1:
        raise AssertionError("wedge model lacks the expected closed generators")
    psi = {"a": alg[closed3[0]], "b": alg[closed3[1]], "c": alg[closed5[0]]}

    for name in ("u_b", "u_c", "v_b", "w_b", "v_c", "w_c", "z"):
        target = _mapped_differential(table, alg, psi, name)
        terms = primitive(alg, target.terms, table.degree_of(name) + 1)
        if terms is None:
            raise AssertionError(f"no model element solves d(psi({name}))")
        psi[name] = Element(alg, terms)
    return psi


@_battery("wedge-table", 4)
def run_wedge_table():
    table = load_fixture("wedge335_model.cdga")
    _require(not table["z"].d().d(), "fixture table fails d*d = 0 on z")
    oracle = free_lie_generator_counts([2, 2, 4], 12)
    _require(oracle == EXPECTED_WEDGE_DIMS,
             f"series oracle {oracle} disagrees with the frozen "
             f"dimensions {EXPECTED_WEDGE_DIMS}")
    model = build_wedge_model(13)
    dims = {k: model.v_dim(k) for k in EXPECTED_WEDGE_DIMS}
    _require(dims == EXPECTED_WEDGE_DIMS,
             f"V_k dimensions {dims} differ from the series "
             f"oracle {EXPECTED_WEDGE_DIMS}")
    depths = model.depths()
    listed = {(3, 0): 2, (5, 0): 1, (5, 1): 1, (7, 1): 1, (7, 2): 1,
              (9, 2): 1, (9, 3): 1, (11, 3): 1, (13, 4): 1}
    counts = {}
    for g in model.algebra.gens:
        key = (g.degree, depths[g.name])
        counts[key] = counts.get(key, 0) + 1
    for key, minimum in listed.items():
        _require(counts.get(key, 0) >= minimum,
                 f"no generator at degree/depth {key}")
    psi = embed_table_in_model(table, model)
    alg = model.algebra
    dz_image = _mapped_differential(table, alg, psi, "z")
    _require(psi["z"].d() == dz_image and not dz_image.is_zero(),
             "table embedding does not satisfy d(psi z) = psi(dz)")
    # certificate: psi(dz) is not the differential of anything decomposable,
    # so some degree-13 generator carries the bracket-detecting class
    keys = [m for m in alg.basis(13) if sum(e for _i, e in m) >= 2]
    _require(primitive(alg, dz_image.terms, 14, keys) is None,
             "psi(dz) bounds a decomposable element; V_13 generators are "
             "not needed")
    _require(any(sum(e for _i, e in m) == 1 for m in psi["z"].terms),
             "psi(z) has no generator component")
    return (f"fixture d2 = 0; V dims {dims} match the series oracle; "
            "table embeds by exact solves and psi(z) needs V_13 generators")


# ---------------------------------------------------------------------------
# battery 5: bracket pairings


@_battery("whitehead", 5)
def run_whitehead():
    table = load_fixture("wedge335_model.cdga")
    p1 = homotopy_mod.whitehead_pair(table, "u_b", homotopy_mod.parse_bracket("[a,b]"))
    p2 = homotopy_mod.whitehead_pair(table, "v_b",
                                     homotopy_mod.parse_bracket("[a,[a,b]]"))
    _require(abs(p1) == 1 and abs(p2) == 1,
             f"unit pairings came out as {p1}, {p2}")
    expr = homotopy_mod.parse_bracket("[[a,c],[a,[a,b]]]")
    base = homotopy_mod.whitehead_pair(table, "z", expr)
    _require(base != 0, "base-level bracket pairing with z vanishes")
    for n in range(1, 6):
        scaled = homotopy_mod.scale_leaves(
            expr, lambda leaf: Fraction(n) ** table.degree_of(leaf.name))
        value = homotopy_mod.whitehead_pair(table, "z", scaled)
        _require(value == Fraction(n) ** 17 * base,
                 f"scaling by {n} gives {value}, not n^17 * base")
    return (f"|<u_b,[a,b]>| = |<v_b,[a,[a,b]]>| = 1, "
            f"<z,.> = {base} scaling as N^17 for N = 1..5")


# ---------------------------------------------------------------------------
# battery 6: signatures and family decisions


@_battery("signatures", 6)
def run_signatures():
    for n, expect in ((2, 3), (4, 35), (8, 6435)):
        sig = scal_mod.wedge_pairing_signature(n)
        _require(sig.as_tuple() == (expect, expect),
                 f"signature for n = {n} is {sig.as_tuple()}")
    d3 = scal_mod.decide_sigma(2, 3)
    d4 = scal_mod.decide_sigma(2, 4)
    _require(d3.embeddable and scal_mod.verify_witness(d3.witness.ring,
                                                       d3.witness).passed,
             "equal-squares witness at r = 3 failed")
    _require(not d4.embeddable and d4.refutation.check(),
             "equal-squares family not refuted at r = 4")
    for n in (1, 2, 3):
        bound = comb(2 * n, n) // 2
        good = scal_mod.decide_omega(n, bound)
        bad = scal_mod.decide_omega(n, bound + 1)
        _require(good.embeddable and not bad.embeddable,
                 f"sphere-product decision does not flip at {bound} for n = {n}")
        _require(scal_mod.verify_witness(good.witness.ring, good.witness).passed,
                 f"witness round-trip failed at n = {n}")
        _require(bad.refutation.check(),
                 f"refutation certificate fails at n = {n}")
    expected_null = {2: 1, 3: 0, 4: 0, 5: 0, 6: 0}
    for n, dim in expected_null.items():
        d = scal_mod.decide_pi(n, 2)
        _require(d.nullspace_dim == dim,
                 f"nullspace dimension {d.nullspace_dim} for n = {n}, "
                 f"expected {dim}")
    return ("signatures (3,3)/(35,35)/(6435,6435); decisions flip at the "
            "half-binomial bounds; nullspace dims 1,0,0,0,0")


# ---------------------------------------------------------------------------
# battery 7: cup-square invariants


@_battery("hopf", 7)
def run_hopf():
    cp2 = load_fixture("cp2.ring")
    cp2.fundamental_degree = 4
    _require(homotopy_mod.hopf_invariant(cp2, "x") == 1,
             "projective-plane invariant is not 1")
    s2s2 = load_fixture("s2s2.ring")
    s2s2.fundamental_degree = 4
    for g in ("w1", "w2"):
        _require(homotopy_mod.hopf_invariant(s2s2, g) == 0,
                 f"product-of-spheres invariant of {g} is not 0")
    amb = FreeCdga([("w", 2), ("b", 4)])
    for k in (1, 2, 3):
        ring = RingPresentation(
            [("w", 2), ("b", 4)],
            [amb["w"] ** 2 - k * k * amb["b"], amb["w"] * amb["b"], amb["b"] ** 2],
            name=f"selfmap{k}", fundamental_degree=4)
        _require(homotopy_mod.hopf_invariant(ring, "w") == k * k,
                 f"degree-{k} self-map square is not {k * k}")
    return ("cup squares: 1 (projective plane), 0/0 (sphere product), k^2 "
            "for k = 1, 2, 3")


# ---------------------------------------------------------------------------
# battery 8: Massey products and formality probes


def formal_model_fixtures():
    return [
        models_mod.bigraded_model(sphere_ring(2), 7),
        models_mod.bigraded_model(sphere_ring(3), 9),
        models_mod.bigraded_model(projective_ring(2, 2, name="CP2"), 10),
        models_mod.bigraded_model(wedge_of_spheres_ring([3, 3], name="w33"), 8),
    ]


def nonformal_cell_fixture():
    w33 = models_mod.minimal_model(wedge_of_spheres_ring([3, 3], name="w33"), 8)
    alg = w33.algebra
    a3 = [g.name for g in alg.gens if g.degree == 3]
    u5 = [g.name for g in alg.gens if g.degree == 5][0]
    target = alg[a3[0]] * alg[u5]
    vb = next(g.name for g in alg.gens if g.degree == 7 and
              alg.differential_of(g.name) in (target, -target))
    cell = models_mod.attach_cell_model(alg, {vb: 1})
    return w33, cell, a3


@_battery("massey", 8)
def run_massey():
    for model in formal_model_fixtures():
        alg = model.algebra
        hs = {k: cohomology_of(alg, k, model.cap)
              for k in range(2, model.cap + 1)}
        reps = {k: h.classes for k, h in hs.items()}
        degs = [k for k in reps if reps[k]]
        for dx, dy, dz in product(degs, repeat=3):
            if dx + dy + dz - 1 > model.cap:
                continue
            for cx, cy, cz in product(reps[dx], reps[dy], reps[dz]):
                if not (hs[dx + dy].is_exact((cx * cy).terms)
                        and hs[dy + dz].is_exact((cy * cz).terms)):
                    continue
                res = homotopy_mod.massey_triple(alg, cx, cy, cz)
                _require(res.vanishes_mod_indeterminacy,
                         f"nonvanishing triple product on the formal model "
                         f"{alg.name}")
    _w33, cell, a3 = nonformal_cell_fixture()
    res = homotopy_mod.massey_triple(cell, cell[a3[0]], cell[a3[0]], cell[a3[1]])
    _require(not res.vanishes_mod_indeterminacy and res.indeterminacy_dim == 0,
             "cell-attachment triple product did not certify non-formality")
    flags = models_mod.u0_surjectivity(cell, 8)
    _require(not flags[8] and all(flags[k] for k in range(8)),
             f"closed-generator surjectivity flags wrong: {flags}")
    return ("triple products vanish mod indeterminacy on all formal fixtures; "
            "the 8-cell attachment gives a nonzero class with zero "
            "indeterminacy and fails surjectivity in degree 8")


# ---------------------------------------------------------------------------
# battery 9: classification


CLASSIFICATION_CASES = [
    ("S2", scal_mod.SCALABLE), ("S3", scal_mod.SCALABLE),
    ("CP2", scal_mod.SCALABLE), ("CP3", scal_mod.SCALABLE),
    ("csum(3*CP2)", scal_mod.SCALABLE),
    ("csum(3*(S2xS2))", scal_mod.SCALABLE),
    ("prod(S3,S5)", scal_mod.SCALABLE),
    ("wedge(S3,S3,S5)", scal_mod.SCALABLE),
    ("prod(CP2,csum(3*(S2xS2)))", scal_mod.SCALABLE),
    ("csum(4*CP2)", scal_mod.NOT_SCALABLE),
    ("csum(2*CP3)", scal_mod.NOT_SCALABLE),
    ("csum(4*(S2xS2))", scal_mod.NOT_SCALABLE),
    ("csum(36*HP2)", scal_mod.NOT_SCALABLE),
    ("csum(1*(S2xS2),1*CP2)", scal_mod.UNKNOWN),
]


@_battery("classification", 9)
def run_classification():
    for descriptor, expected in CLASSIFICATION_CASES:
        got = scal_mod.classify(descriptor)
        _require(got.verdict == expected,
                 f"{descriptor} classified {got.verdict}, expected {expected}")
        if expected == scal_mod.SCALABLE:
            _require_witnesses(got, descriptor)
        if expected == scal_mod.NOT_SCALABLE:
            cert = got.refutation
            _require(cert is not None and cert.check(),
                     f"{descriptor} lacks a checkable refutation")
    return (f"{len(CLASSIFICATION_CASES)} descriptors classified with "
            "verified witnesses or checkable refutations")


def _require_witnesses(classification, descriptor):
    """Every leaf of a scalable classification has a witness that passes
    verify_witness."""
    for part in classification.parts:
        _require_witnesses(part, descriptor)
    if classification.parts:
        return
    witness = classification.witness
    _require(witness is not None,
             f"{descriptor}: scalable verdict without a witness")
    report = scal_mod.verify_witness(witness.ring, witness)
    _require(report.passed,
             f"{descriptor}: witness failed verification: {report.message}")


# ---------------------------------------------------------------------------
# battery 10: obstruction round-trips


def obstruction_fixtures():
    """(label, obstruction) pairs; labels ending in '!' must not vanish."""
    out = []
    A = FreeCdga([("a", 2)], name="A")
    AV = FreeCdga.define([("a", 2), ("v", 3)], d=lambda X: {"v": X["a"] ** 2},
                         name="AV")
    B = FreeCdga.define([("a", 2), ("b", 3)], d=lambda X: {"b": X["a"] ** 2},
                        name="B")
    f = DgaMorphism(A, B, {"a": B["a"]})
    g_id = DgaMorphism(AV, B, {"a": B["a"], "v": B["b"]})
    out.append(("identity-h", homotopy_mod.obstruction_class(
        f, g_id, DgaMorphism.identity(B))))

    Cfree = FreeCdga.define([("e", 2), ("s", 3)], d=lambda X: {"s": X["e"] ** 2},
                            name="Cfree")
    C = TruncatedCdga(Cfree, 5, name="C")
    h = DgaMorphism(B, C, {"a": C["e"], "b": C["s"]})
    g = DgaMorphism(AV, C, {"a": C["e"], "v": C["s"]})
    out.append(("model-map", homotopy_mod.obstruction_class(f, g, h)))

    C2free = FreeCdga.define([("e", 2), ("s", 3), ("sp", 3)],
                             d=lambda X: {"s": X["e"] ** 2}, name="C2free")
    C2 = TruncatedCdga(C2free, 5, name="C2")
    h2 = DgaMorphism(B, C2, {"a": C2["e"], "b": C2["s"]})
    g2 = DgaMorphism(AV, C2, {"a": C2["e"], "v": C2["s"] + C2["sp"]})
    out.append(("shifted-target!", homotopy_mod.obstruction_class(f, g2, h2)))

    # nonconstant homotopy H(a) = e + d(q (x) t): the endpoints differ by the
    # exact form dq, so the homotopy is nullhomotopic rel its content and the
    # obstruction still vanishes, now exercising the integral terms
    C3free = FreeCdga.define(
        [("e", 2), ("p", 2), ("q", 1), ("s", 3)],
        d=lambda X: {"q": X["p"], "s": X["e"] ** 2}, name="C3free")
    C3 = TruncatedCdga(C3free, 5, name="C3")
    h3 = DgaMorphism(B, C3, {
        "a": C3["e"] + C3["p"],
        "b": C3["s"] + 2 * (C3["e"] * C3["q"]) + C3["q"] * C3["p"]})
    g3 = DgaMorphism(AV, C3, {"a": C3["e"], "v": C3["s"]})
    start3 = DgaMorphism(A, C3, {"a": C3["e"]})
    end3 = h3.compose(f)
    interval3 = homotopy_mod.interval_algebra(C3)
    H3 = homotopy_mod.DgaHomotopy(
        start3, end3,
        {"a": interval3.lift(C3["e"]) + interval3.lift(C3["q"], 1).d()})
    out.append(("nonconstant-H", homotopy_mod.obstruction_class(f, g3, h3, H3)))
    return out


@_battery("obstruction", 10)
def run_obstruction():
    for label, ob in obstruction_fixtures():
        if label.endswith("!"):
            _require(not ob.vanishes and ob.rank >= 1,
                     f"{label}: expected a nonvanishing class")
            continue
        _require(ob.vanishes, f"{label}: class unexpectedly nonzero")
        try:
            f_ext, H_ext = homotopy_mod.extend_with_witness(ob)
        except ValueError as exc:
            raise _Failed(f"{label}: extension rejected: {exc}") from None
        for name in ob.v_names:
            image = H_ext.images[name]
            _require(homotopy_mod.at(image, 0) == ob.g.images[name],
                     f"{label}: extended homotopy misses g at t=0")
            _require(homotopy_mod.at(image, 1) == ob.h.apply(f_ext.images[name]),
                     f"{label}: extended homotopy misses h(f~) at t=1")
    return ("all vanishing fixtures extend with valid chain-map homotopies; "
            "the shifted-target fixture stays obstructed")


def run_all(only=None):
    results = []
    for name, fn in BATTERIES.items():
        if only and name not in only:
            continue
        try:
            results.append(fn())
        except Exception as exc:  # a crash is a failure, not an abort
            results.append(CheckResult(name, 0, False,
                                       f"crashed: {type(exc).__name__}: {exc}",
                                       0.0))
    return results
