"""Embedding tests into exterior algebras and the scalability classifier.

Whether a closed manifold's cohomology ring can be realized multiplicatively
by bounded forms localizes, at a point, to the question of embedding the
ring into an exterior algebra on the cotangent space.  This module houses
the decision procedures for the three algebra families where that question
is settled, generic witness verification, connected-sum ring builders, the
intersection-complete family machinery, and a descriptor-level classifier.

Every refutation carries a machine-checkable certificate (a dimension count,
an exact inertia computation, or a solved linear system); every positive
verdict carries a witness that round-trips through verify_witness.

Witnesses take one path.  Their images are complementary pairs
dx_I, s_I dx_(I^c) from ``_complementary_pairs`` (alone, summed or
subtracted), or a volume or symplectic form, and every builder hands them
to ``_verified``, which runs verify_witness and raises AssertionError on a
failed check (an explicit raise, so ``python -O`` keeps it).

Witness targets are ``ExteriorAlgebra`` instances, each only its dimension
and first index: a monomial is a set of generator positions, kept as an int
bitmask, so a product (the one sign rule) is a disjointness test and an
inversion count, and a name is its position by arithmetic.  verify_witness
maps relations through the witness's DgaMorphism, as every morphism does,
except a connected sum's cross products: those it checks in one pass over
the images indexed by mask, since exterior monomials multiply to zero
unless their masks are disjoint.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from math import comb

from . import linalg
from .cdga import _ZERO, DgaMorphism, Element, FreeCdga, Generator, GradedAlgebra
from .fileformat import check_nesting, excerpt, split_top, whole
from .linalg import _MINUS_ONE, _ONE, accumulate
from .presentations import RingPresentation, projective_ring, sphere_ring


# ---------------------------------------------------------------------------
# exterior algebras


class ExteriorAlgebra(GradedAlgebra):
    """Alternating algebra on n degree-1 generators dx{first_index}, ...,
    with zero differential; it is its two numbers, ``n`` and ``first_index``.

    A key is an int bitmask, bit p standing for dx{first_index + p}, so a
    monomial is its set of positions in ascending order; the unit key is 0.
    Names convert to bits by arithmetic, and ``gens`` is built on request.
    """

    unit_key = 0

    def __init__(self, n, *, first_index=1):
        self.name = f"Ext{n}"
        self.n = n
        self.first_index = first_index

    @property
    def gens(self):
        return tuple(Generator(f"dx{i}", 1) for i in
                     range(self.first_index, self.first_index + self.n))

    def gen_key(self, name):
        """The bit of ``name``, spelled exactly dx{first_index + p}; any
        other name (``dx01``, ``dx+1``, ``dx²``) raises KeyError."""
        digits = name[2:] if isinstance(name, str) else ""
        if digits.removeprefix("-").isdecimal():  # "-" for a negative first_index
            p = int(digits) - self.first_index
            if 0 <= p < self.n and name == f"dx{self.first_index + p}":
                return 1 << p
        raise KeyError(name)

    def key_degree(self, mask):
        return mask.bit_count()

    def mul_keys(self, m1, m2):
        """Zero for overlapping masks; otherwise the union, signed by the
        parity of the inversions between them, the pairs i in m1, j in m2
        with i > j."""
        if m1 & m2:
            return {}
        swaps = 0
        rest = m2
        while rest:
            low = rest & -rest
            swaps += (m1 & -(low << 1)).bit_count()
            rest ^= low
        return {m1 | m2: _MINUS_ONE if swaps & 1 else _ONE}

    def d_key(self, mask):
        return {}

    def basis(self, degree):
        """The index subsets of size ``degree`` in lexicographic order."""
        if degree < 0:
            return ()
        return tuple(sum(1 << i for i in subset) for subset in
                     itertools.combinations(range(self.n), degree))

    @staticmethod
    def _indices(mask):
        """The set bits of ``mask`` in ascending order, read off its binary
        digits in one pass (shifting the mask once per bit is quadratic)."""
        return tuple(i for i, b in enumerate(reversed(bin(mask))) if b == "1")

    def format_key(self, mask):
        if not mask:
            return "1"
        return "*".join(f"dx{self.first_index + p}" for p in self._indices(mask))

    def key_sort_token(self, mask):
        return (0, self._indices(mask))


def exterior_algebra(n, *, first_index=1) -> ExteriorAlgebra:
    """Alternating algebra on n degree-1 generators, zero differential."""
    return ExteriorAlgebra(n, first_index=first_index)


def subset_monomial(ext: ExteriorAlgebra, subset) -> Element:
    """Wedge of the dx_i over an index subset, in ascending order; an index
    out of range or repeated raises ValueError.  The mask is written as
    binary digits and read once, so its cost is linear in the number of
    generators (ORing bit by bit into a growing int is quadratic)."""
    n, first = ext.n, ext.first_index
    digits = bytearray(b"0" * n)
    one = ord("1")
    for i in subset:
        p = i - first
        if not 0 <= p < n:
            raise ValueError(f"index {i} is out of range {first}..{first + n - 1}")
        if digits[p] == one:
            raise ValueError(f"index {i} repeats in the subset {list(subset)}")
        digits[p] = one
    digits.reverse()
    return Element(ext, {int(digits or b"0", 2): _ONE})


def _complementary_pairs(ext: ExteriorAlgebra, subsets):
    """(dx_I, s_I * dx_(I^c)) for each index set I of ``ext``, with the sign
    s_I that ``mul_keys`` gives dx_I ^ dx_(I^c) against the volume form."""
    full = (1 << ext.n) - 1
    pairs = []
    for subset in subsets:
        first = subset_monomial(ext, subset)
        (mask,) = first.terms
        sign = ext.mul_keys(mask, full ^ mask)[full]
        pairs.append((first, Element(ext, {full ^ mask: sign})))
    return pairs


def symplectic_form(ext: ExteriorAlgebra, n) -> Element:
    """dx1^dx2 + dx3^dx4 + ... + dx(2n-1)^dx(2n)."""
    return ext.sum(subset_monomial(ext, [lo, lo + 1])
                   for lo in range(1, 2 * n + 1, 2))


# ---------------------------------------------------------------------------
# witnesses


@dataclass
class EmbeddingWitness:
    """Assignment of presentation generators to exterior-algebra elements.

    The target must be an ``ExteriorAlgebra``; any other target raises
    ValueError.  The images are checked once, at construction, as the
    checked DgaMorphism that morphism() returns: a missing image, an image
    of the wrong degree or one that is not a chain map raises ValueError.
    """

    ring: RingPresentation
    target: ExteriorAlgebra
    images: dict

    def __post_init__(self):
        if not isinstance(self.target, ExteriorAlgebra):
            raise ValueError("witness target must be an exterior algebra: an "
                             "ExteriorAlgebra, free on generators of degree 1")
        self._morphism = DgaMorphism(self.ring.base, self.target, self.images)

    def morphism(self):
        return self._morphism


@dataclass
class WitnessReport:
    passed: bool
    failing_relation: str | None = None
    failing_degree: int | None = None
    message: str = ""


def verify_witness(ring: RingPresentation, witness: EmbeddingWitness) -> WitnessReport:
    """Relations map to zero and the presented basis stays independent.

    ``witness.morphism()`` was checked as a chain map when the witness was
    built.  Every relation is then mapped through it and tested for zero;
    the first one whose image is nonzero is reported.  A connected sum's
    cross products are the exception: they are checked by mask in one pass
    (``_first_live_cross_product``) and mapped only when one fails, so the
    report is the same and in the same relation order.

    With the duality flag set, independence reduces to nonvanishing of the
    image of the fundamental class: multiplicativity plus a nonsingular
    pairing force every nonzero element to survive.
    """
    if ring.base is not witness.ring.base:
        raise ValueError("the witness belongs to another presentation")
    phi = witness.morphism()
    if isinstance(ring, ConnectedSumRing):
        failure = (_first_failure(ring, phi, ring.power_relations)
                   or _first_failure(ring, phi, _first_live_cross_product(ring, phi))
                   or _first_failure(ring, phi, ring.top_relations))
    else:
        failure = _first_failure(ring, phi, ring.relations)
    if failure is not None:
        return failure
    if ring.duality:
        mu = ring.fundamental_monomial
        if mu is None:
            mu = ring.top_basis_key()
        if not phi.apply_terms({mu: _ONE}):
            return WitnessReport(False, failing_degree=ring.fundamental_degree,
                                 message="fundamental class maps to zero")
        return WitnessReport(True, message="relations verified; duality shortcut")
    # images vanish above the target's top degree N, and peeling generators
    # off a nonzero monomial above N + (largest generator degree) leaves a
    # nonzero divisor past N, which fails first; no higher degree is needed
    limit = witness.target.n + max((g.degree for g in ring.gens), default=0)
    for k in range(1, limit + 1):
        basis = ring.basis(k)
        if not basis:
            continue
        rows = [phi.apply_terms({mon: _ONE}) for mon in basis]
        if linalg.rank(rows) != len(basis):
            return WitnessReport(False, failing_degree=k,
                                 message=f"images of the degree-{k} basis are "
                                         "linearly dependent")
    return WitnessReport(True, message="relations and degreewise independence verified")


def _first_failure(ring, phi, relations):
    """The report on the first of ``relations`` that ``phi`` does not map to
    zero, or None."""
    for rel in relations:
        img = phi.apply_terms(rel)
        if img:
            shown = ring.base.format_terms(rel)
            return WitnessReport(False, failing_relation=shown,
                                 message=f"relation {shown} maps to "
                                         f"{phi.target.format_terms(img)}")
    return None


def _first_live_cross_product(ring, phi):
    """The first cross product g_p * g_q of a connected sum that ``phi``
    does not kill, in the order of ``ring.cross_pairs()``, as a
    one-relation list; empty when every one vanishes.

    An exterior product of two monomials is nonzero only on disjoint masks.
    So the image terms are indexed by degree and mask, and each term of
    phi(g_p) finds the image terms on masks disjoint from it by
    ``_disjoint_masks``.  The products phi(g_p) phi(g_q), p < q in
    different summands, are summed over those hits; a pair with no hit, or
    whose terms cancel, vanishes.
    """
    ext, summand = phi.target, ring.summand_of
    images = [e.terms for e in phi.images.values()]
    by_degree = {}                      # degree -> mask -> [(q, coefficient)]
    for q, terms in enumerate(images):
        for mask, c in terms.items():
            by_mask = by_degree.setdefault(mask.bit_count(), {})
            by_mask.setdefault(mask, []).append((q, c))
    degrees = sorted(by_degree)
    full = (1 << ext.n) - 1
    products = {}                       # (p, q) -> image terms
    for p, terms in enumerate(images):
        for m1, c1 in terms.items():
            free = ext._indices(full ^ m1)
            for d2 in degrees:
                by_mask = by_degree[d2]
                for m2 in _disjoint_masks(m1, free, d2, by_mask):
                    for q, c2 in by_mask[m2]:
                        if q > p and summand[q] != summand[p]:
                            accumulate(products.setdefault((p, q), {}),
                                       ext.mul_keys(m1, m2), c1 * c2)
    if not any(products.values()):
        return []
    p, q = next(pq for pq in ring.cross_pairs() if products.get(pq))
    return [{((p, 1), (q, 1)): _ONE}]


def _disjoint_masks(m1, free, d2, by_mask):
    """The masks of ``by_mask``, all of degree ``d2``, disjoint from ``m1``,
    whose complement has the indices ``free``.  Enumerating the d2-subsets
    of ``free`` takes C(len(free), d2) lookups, one when the degrees fill
    the target; scanning ``by_mask`` takes one test per mask.  The cheaper
    way is taken, so a lookup never costs more than one test per image
    term of degree d2, as multiplying the images out pairwise would."""
    if comb(len(free), d2) <= len(by_mask):
        for subset in itertools.combinations(free, d2):
            m2 = sum(1 << i for i in subset)
            if m2 in by_mask:
                yield m2
    else:
        for m2 in by_mask:
            if not m1 & m2:
                yield m2


def _verified(ring, ext, images, what) -> EmbeddingWitness:
    """The witness sending generators to ``images``, checked by
    verify_witness; a witness that fails is an internal error and raises."""
    witness = EmbeddingWitness(ring, ext, images)
    report = verify_witness(ring, witness)
    if not report.passed:
        raise AssertionError(f"{what} witness failed verification: "
                             f"{report.message}")
    return witness


# ---------------------------------------------------------------------------
# the wedge pairing on middle forms


@dataclass
class SignatureResult:
    n: int
    positive: int
    negative: int
    pairs: int
    dense_checked: bool

    def as_tuple(self):
        return (self.positive, self.negative)


def wedge_pairing_signature(n: int) -> SignatureResult:
    """Signature of the wedge form on middle-degree forms of R^(2n), n even.

    dx_I pairs only with dx_(I^c), so the Gram matrix splits into 2x2
    antidiagonal blocks of inertia (1, 1): the signature is
    (C(2n, n)/2, C(2n, n)/2).  For n = 2 (the one even n below 4) the block
    count is cross-checked against a dense exact inertia computation on the
    full monomial basis.
    """
    if n % 2 == 1:
        raise ValueError("odd n gives an antisymmetric (symplectic) pairing; "
                         "signature is defined only for even n")
    if n < 2:
        raise ValueError("n must be at least 2")
    total = comb(2 * n, n)
    pairs = total // 2
    dense_check = n <= 3
    if dense_check:
        ext = exterior_algebra(2 * n)
        volume = (1 << 2 * n) - 1
        middle = ext.basis(n)
        gram = [[ext.mul_keys(a, b).get(volume, _ZERO) for b in middle]
                for a in middle]
        pos, neg, zero = linalg.symmetric_inertia(gram)
        if (pos, neg, zero) != (pairs, pairs, 0):
            raise AssertionError("block signature disagrees with dense inertia")
    return SignatureResult(n, pairs, pairs, pairs, dense_check)


# ---------------------------------------------------------------------------
# certificates


@dataclass
class DimensionCountRefutation:
    description: str
    independent_classes: int
    available_dimension: int

    def check(self):
        return self.independent_classes > self.available_dimension


@dataclass
class InertiaRefutation:
    description: str
    positive: int
    negative: int
    required: int

    def check(self):
        return self.required > max(self.positive, self.negative)


@dataclass
class LinearSystemRefutation:
    description: str
    unknowns: int
    nullspace_dim: int

    def check(self):
        return self.nullspace_dim == 0


# ---------------------------------------------------------------------------
# the three families


def omega_ring(n, r) -> RingPresentation:
    """Ring of a connected sum of r copies of S^n x S^n."""
    return connected_sum_ring([("sphere_product", n, n)] * r)


def _equal_powers_ring(r, degree, power, name) -> RingPresentation:
    """r generators a_i of one even degree with zero cross products and
    a_i^power = a_1^power; a_1^power is the fundamental monomial, so
    a_1^(power+1) = 0 (a relation of its own only when r = 1).

    The r(r-1)/2 cross products a_i a_j, i < j, are written as their single
    keys, in pair order, as a connected sum writes its own; only the r - 1
    power differences (and a_1^(power+1)) are Elements of a free algebra on
    the same generators, adopted as is.  The relations are counted first:
    more than _MAX_CONNECTED_SUM_RELATIONS raise ValueError before any is
    built, so Sigma(8, r) is presented up to r = 1413 (998,990 relations;
    Sigma(8, 1000) in about 2.2 s in process, CPython 3.11.7, 2 vCPUs)."""
    if r < 1:
        raise ValueError("r must be positive")
    relations = r * (r - 1) // 2 + r - 1 + (r == 1)
    if relations > _MAX_CONNECTED_SUM_RELATIONS:
        raise ValueError(
            f"{name} is too large to present: it has {relations} relations; "
            f"at most {_MAX_CONNECTED_SUM_RELATIONS} are built")
    amb = FreeCdga([(f"a{i}", degree) for i in range(1, r + 1)])
    gens = [amb[g.name] for g in amb.gens]
    top = gens[0] ** power
    rels = [{((i, 1), (j, 1)): _ONE} for i, j in itertools.combinations(range(r), 2)]
    rels += [x ** power - top for x in gens[1:]]
    if r == 1:  # for r >= 2, a1^(power+1) already lies in the ideal
        rels.append(gens[0] * top)
    ring = RingPresentation([(g.name, degree) for g in amb.gens], rels,
                            name=name, fundamental_degree=degree * power,
                            duality=True)
    ring.fundamental_monomial = next(iter(top.terms))
    return ring


def sigma_ring(n, r) -> RingPresentation:
    """r generators of even degree n with equal squares and zero cross products."""
    if n % 2 == 1:
        raise ValueError("sigma family needs even generator degree")
    return _equal_powers_ring(r, n, 2, f"Sigma({n},{r})")


def pi_ring(n, r) -> RingPresentation:
    """r degree-2 generators with equal n-th powers and zero cross products."""
    return _equal_powers_ring(r, 2, n, f"Pi({n},{r})")


@dataclass
class Decision:
    family: str
    n: int
    r: int
    embeddable: bool | None
    boundary: int | None
    witness: EmbeddingWitness | None = None
    refutation: object = None
    nullspace_dim: int | None = None


def _subsets_containing_first(n, r, total, first):
    """First r size-n subsets of {first..first+total-1} containing ``first``,
    in lexicographic order."""
    rest = range(first + 1, first + total)
    out = []
    for tail in itertools.combinations(rest, n - 1):
        out.append((first,) + tail)
        if len(out) == r:
            break
    return out


def _middle_pairs(ext, n, r):
    """Complementary pairs of Lambda^n R^(2n) for the first r size-n subsets
    of {1..2n} containing 1; no two of them share an index set."""
    return _complementary_pairs(ext, _subsets_containing_first(n, r, 2 * n, 1))


def _equal_square_images(ext, n, names, minus=0):
    """{name: dx_I + s_I dx_(I^c)} over the pairs of ``_middle_pairs``, in
    order, but dx_I - s_I dx_(I^c) for the last ``minus`` names, whose pairs
    start again at the first: squares +-2 * volume, cross products zero."""
    plus = len(names) - minus
    pairs = _middle_pairs(ext, n, max(plus, minus))
    images = [first + second for first, second in pairs[:plus]]
    images += [first - second for first, second in pairs[:minus]]
    return dict(zip(names, images, strict=True))


def decide_omega(n, r) -> Decision:
    """Embeddability of the #r(S^n x S^n) ring in an exterior algebra.

    Embeds into Lambda* R^(2n) for r <= C(2n, n)/2 (monomial witness on
    complementary index sets); for larger r the 2r independent degree-n
    classes outrun dim Lambda^n R^(2n), and the internal Poincare duality
    lets any embedding be restricted to a 2n-dimensional subspace, so none
    exists.  The bound is checked before any ring is built: the certificate
    needs only the count, and the ring is built on the witness path alone.
    """
    if n < 1 or r < 1:
        raise ValueError("n and r must be positive")
    bound = comb(2 * n, n) // 2
    if r > bound:
        cert = DimensionCountRefutation(
            f"2r = {2 * r} independent degree-{n} classes exceed "
            f"dim Lambda^{n} R^{2 * n} = {comb(2 * n, n)}",
            2 * r, comb(2 * n, n))
        return Decision("omega", n, r, False, bound, refutation=cert)
    ring = omega_ring(n, r)
    ext = exterior_algebra(2 * n)
    images = {}
    for i, (first, second) in enumerate(_middle_pairs(ext, n, r), start=1):
        images[f"a{i}"], images[f"b{i}"] = first, second
    witness = _verified(ring, ext, images, "omega")
    return Decision("omega", n, r, True, bound, witness=witness)


def decide_sigma(n, r) -> Decision:
    """Embeddability of the r-generator equal-squares ring, n even.

    Witness for r <= C(2n, n)/2: one complementary pair per generator,
    a_i -> dx_I + s_I dx_(I^c) with the sign chosen so every square is
    2 * volume.  Beyond that bound the images would give an identity-matrix
    minor of rank r inside a form of inertia (C/2, C/2), which is impossible.
    The bound is checked before any ring is built; the ring is built on the
    witness path alone.
    """
    if n < 1 or r < 1:
        raise ValueError("n and r must be positive")
    if n % 2 == 1 or n < 2:
        raise ValueError("sigma decision needs even n >= 2")
    bound = comb(2 * n, n) // 2
    if r > bound:
        sig = wedge_pairing_signature(n)
        cert = InertiaRefutation(
            f"{r} pairwise-orthogonal equal-square classes need an I_{r} "
            f"minor, but the wedge pairing has inertia "
            f"({sig.positive}, {sig.negative})",
            sig.positive, sig.negative, r)
        return Decision("sigma", n, r, False, bound, refutation=cert)
    ring, ext = sigma_ring(n, r), exterior_algebra(2 * n)
    images = _equal_square_images(ext, n, ring.generator_names())
    witness = _verified(ring, ext, images, "sigma")
    return Decision("sigma", n, r, True, bound, witness=witness)


def _omega_wedge_row(ext, omega, four):
    """The dx_four coefficient of omega ^ eta as a row over the unknowns
    eta_ab, read off ``mul_keys`` for the six pairs ab in ``four``."""
    full, row = sum(1 << (i - 1) for i in four), {}
    for a, b in itertools.combinations(sorted(four), 2):
        rest = full ^ (1 << (a - 1)) ^ (1 << (b - 1))
        if rest in omega.terms:
            row[a, b] = omega.terms[rest] * ext.mul_keys(rest, full ^ rest)[full]
    return row


def decide_pi(n, r) -> Decision:
    """Equal n-th powers of degree-2 classes with vanishing products.

    At r = 1 the space is CP^n, which embeds: the decision carries the
    classifier's CP^n witness, x of ``projective_ring(2, n)`` to the
    symplectic form omega on R^(2n), built before any linear system; an n
    whose witness check is too large to run raises ValueError.  For r >= 2
    it builds the linear system for a 2-form eta killed by the standard
    symplectic omega on R^(2n): the off-pair coefficients vanish and the
    pair coefficients satisfy u_1 + u_j = 0 for every j and u_2 + u_3 = 0.
    For n >= 3 every row is the omega ^ eta = 0 equation on one 4-set of
    indices (checked here row by row), so a zero nullspace refutes r > 1:
    the second class would be a nonzero 2-form wedging omega to zero.  For
    n = 2 the reduced system leaves the one-dimensional line dx1dx2 - dx3dx4
    and the test is reported as inconclusive.
    """
    if n < 2:
        raise ValueError("pi decision needs n >= 2")
    if r < 1:
        raise ValueError("r must be positive")
    if r == 1:
        return Decision("pi", n, 1, True, 1, witness=_projective_witness(2, n))
    pairs = list(itertools.combinations(range(1, 2 * n + 1), 2))
    sympl = [(2 * i + 1, 2 * i + 2) for i in range(n)]
    off = sorted(set(pairs) - set(sympl))
    rows = [{p: _ONE} for p in off]
    rows += [{sympl[0]: _ONE, q: _ONE} for q in sympl[1:]]
    if n >= 3:
        rows.append({sympl[1]: _ONE, sympl[2]: _ONE})
        # eta_ij = 0 on {i, j} and a symplectic pair apart from it (one of
        # the first three), u_P + u_Q = 0 on P and Q
        fours = [p + next(q for q in sympl if not set(p) & set(q)) for p in off]
        fours += [sympl[0] + q for q in sympl[1:]] + [sympl[1] + sympl[2]]
        ext = exterior_algebra(2 * n)
        omega = symplectic_form(ext, n)
        for row, four in zip(rows, fours, strict=True):
            if _omega_wedge_row(ext, omega, four) != row:
                raise AssertionError("reduced system disagrees with omega ^ eta = 0")
    # the rank of the rows is their count less the relations among them
    dim = len(pairs) - len(rows) + len(linalg.kernel_of_columns(rows))
    cert = LinearSystemRefutation(
        f"coefficient system for omega ^ eta = 0 over Lambda^2 R^{2 * n}: "
        f"{len(pairs)} unknowns, nullspace dimension {dim}", len(pairs), dim)
    if n >= 3 and r > 1:
        if dim != 0:
            raise AssertionError("nullspace unexpectedly nonzero for n >= 3")
        return Decision("pi", n, r, False, 1, refutation=cert, nullspace_dim=dim)
    return Decision("pi", n, r, None, 1, refutation=cert, nullspace_dim=dim)


# ---------------------------------------------------------------------------
# connected sums


# Most relations the ``relations`` tuple of a connected sum may hold, counted
# from its summand blocks before any is built.  Only the quotient slices
# read that tuple; the witness path and the duality certificate never build
# it.  csum(1412*OP2), with 998,989 relations, is the largest sum of OP2s
# whose relations are built.  The equal-powers rings take the same bound,
# counted from r before the ring is built, since their witness check maps
# every relation: Sigma(8, 1413), with 998,990, is the largest of its kind.
_MAX_CONNECTED_SUM_RELATIONS = 10 ** 6

# Most generators a connected sum may have, counted from its atoms before
# anything is built.  Construction and the duality certificate cost a few
# steps per generator, and so does the witness check, except where images
# of low degree find their disjoint partners by scanning, as in sums of
# S5xS30.  Near the bound, csum(6435*OP2,6435*rev(OP2)) (12,870
# generators) classifies in about 0.9 s in process and csum(7500*(S5xS30))
# in about 3 s (CPython 3.11.7, 2 vCPUs).
_MAX_CONNECTED_SUM_GENERATORS = 15000


def _summand(atom):
    """(generator degrees, power relations, top monomial) of one summand,
    in its own generator indices 0, 1, ...  A sphere product S^n x S^m has
    generators of degrees min(n, m) and max(n, m), each even one squaring
    to zero, and their product on top; a projective space on x of degree d
    has x^(power+1) = 0 (for even d) and x^power on top."""
    kind = atom[0]
    if kind == "sphere_product":
        _k, n, m = atom
        degrees, exponent, top = (min(n, m), max(n, m)), 2, ((0, 1), (1, 1))
    elif kind == "projective":
        _k, d, power = atom
        if d % 2 and power > 1:
            raise ValueError(f"projective summand {atom} has an odd "
                             f"generator, so its powers vanish")
        degrees, exponent, top = (d,), power + 1, ((0, power),)
    else:
        raise ValueError(f"unknown summand kind {kind!r}")
    powers = tuple({((p, exponent),): _ONE}
                   for p, d in enumerate(degrees) if d % 2 == 0)
    return degrees, powers, top


def _check_sum_size(generators):
    """Refuse a connected sum of more than _MAX_CONNECTED_SUM_GENERATORS
    generators, before anything of it is built."""
    if generators > _MAX_CONNECTED_SUM_GENERATORS:
        raise ValueError(
            f"connected sum is too large to verify: it has {generators} "
            f"generators; at most {_MAX_CONNECTED_SUM_GENERATORS} are supported")


def _shifted(key, offset):
    """A monomial of a summand moved into the block starting at ``offset``."""
    return tuple([(p + offset, e) for p, e in key])


def _blocks(summands):
    """The layout of a sum of ``summands``, each as ``_summand`` gives it,
    in consecutive generator blocks: the summand number of each generator,
    the power relations and the top monomials, shifted into the blocks."""
    summand_of, powers, tops = [], [], []
    for i, (degs, pows, top) in enumerate(summands):
        offset = len(summand_of)
        summand_of += [i] * len(degs)
        powers += [{_shifted(k, offset): c for k, c in rel.items()} for rel in pows]
        tops.append(_shifted(top, offset))
    return tuple(summand_of), tuple(powers), tops


class ConnectedSumRing(RingPresentation):
    """Presentation of a connected sum with identified fundamental classes.

    Atoms are ("sphere_product", n, m) or ("projective", gen_degree, power);
    orientations are 1 or -1 per atom (any other value raises ValueError),
    and a reversed atom's top class enters with coefficient -1.  Each
    summand's generators form one contiguous block, in atom order.

    The relations are, in this order, ``power_relations`` (a power of each
    even generator), the cross products g_p * g_q of generators p < q in
    different summands (summand pair by summand pair), and
    ``top_relations`` (one identification of top classes per summand after
    the first).  The cross products are kept structurally, as the summand
    number of each generator in ``summand_of``, and ``cross_pairs`` yields
    their generator pairs in relation order: verify_witness checks them
    from that alone, and the ``relations`` tuple is built from it on first
    access, for the quotient slices.  Every relation is a term dict over
    the generators declared here, which are the ambient's generators in the
    same order: every key is a single power or a product g_p * g_q with
    p < q, so no Koszul sign arises.  Each dict is built clean and
    homogeneous, so it is stored as it is, not copied by the public intake.

    Duality is checked at construction by ``verify_blockwise_duality``, a
    certificate read off the summand blocks with no elimination over the
    sum, and ``duality_verified`` records its result for every sum.  A sum
    with more than _MAX_CONNECTED_SUM_GENERATORS generators raises
    ValueError before anything is built; the ``relations`` tuple raises
    ValueError before it is built when it would hold more than
    _MAX_CONNECTED_SUM_RELATIONS relations.
    """

    def __init__(self, atoms, orientations=None, *, name=None):
        atoms = [tuple(a) for a in atoms]
        if not atoms:
            raise ValueError("a connected sum needs at least one summand")
        orientations = [1] * len(atoms) if orientations is None else list(orientations)
        if bad := [o for o in orientations if o not in (1, -1)]:
            raise ValueError(f"orientation must be 1 or -1, not {bad[0]!r}")
        orientations = [1 if o == 1 else -1 for o in orientations]
        if len(orientations) != len(atoms):
            raise ValueError("one orientation per summand required")
        kinds = {a: _summand(a) for a in dict.fromkeys(atoms)}
        degrees = {sum(degs[p] * e for p, e in top) for degs, _r, top in kinds.values()}
        if len(degrees) != 1:
            raise ValueError(f"summands have mixed fundamental degrees {sorted(degrees)}")
        summands = [kinds[a] for a in atoms]
        _check_sum_size(sum(len(degs) for degs, _r, _t in summands))

        gens = [(f"{nm}{i}", d) for i, (atom, (degs, _r, _t))
                in enumerate(zip(atoms, summands), start=1)
                for nm, d in zip("ab" if atom[0] == "sphere_product" else "x", degs)]
        summand_of, powers, tops = _blocks(summands)
        mu, sign = tops[0], orientations[0]
        super().__init__(gens, (),
                         name=name or "#".join(_atom_label(a, o)
                                               for a, o in zip(atoms, orientations)),
                         fundamental_degree=degrees.pop(), duality=True)
        del self.relations      # the base's empty tuple; built on first access
        self.atoms = tuple(atoms)
        self.summand_of = summand_of
        self.power_relations = powers
        self.top_relations = tuple({top: o, mu: -sign}
                                   for top, o in zip(tops[1:], orientations[1:]))
        self.fundamental_monomial = mu
        self.fundamental_monomial_sign = sign
        self.duality_verified = self.verify_blockwise_duality()

    def verify_blockwise_duality(self):
        """Poincare duality of the sum from its summands; True, or raises
        ValueError naming the first fault.

        (a) Each distinct atom's one-summand ring passes the generic
        ``verify_duality`` (degrees above n included), with its top
        monomial as its degree-n basis.  (b) ``summand_of`` cuts the
        generators into contiguous blocks, one per atom in order, with the
        atom's generator degrees, so ``cross_pairs()`` holds every pair of
        generators of different summands; each block's power relations are
        its atom's, shifted into the block.  (c) One top relation per
        summand after the first identifies its block's top monomial with
        the fundamental monomial (the first block's), both coefficients
        +-1.  Then every product across summands vanishes, the quotient
        below degree n is the direct sum of the atoms' and degree n is one
        class, so the pairing is nonsingular block by block.  No
        elimination runs over the sum: the cost is the distinct atoms'
        checks and a few steps per generator and summand.
        """
        n = self.fundamental_degree
        kinds = {a: _summand(a) for a in dict.fromkeys(self.atoms)}
        for atom, (degs, pows, top) in kinds.items():
            ring = RingPresentation([(f"g{p}", d) for p, d in enumerate(degs)],
                                    pows, name=_atom_label(atom, 1),
                                    fundamental_degree=n)
            ring.verify_duality()
            if ring.basis(n) != (top,):
                raise ValueError(f"the top class of {ring.name} is not its "
                                 f"top monomial")
        summands = [kinds[a] for a in self.atoms]
        summand_of, powers, tops = _blocks(summands)
        if (self.summand_of != summand_of or [g.degree for g in self.gens]
                != [d for degs, _r, _t in summands for d in degs]):
            raise ValueError("the generators are not one block per summand, "
                             "in summand order")
        if self.power_relations != powers:
            raise ValueError("the power relations are not the summands' "
                             "power relations")
        mu = tops[0]
        if (self.fundamental_monomial != mu or [rel.keys() for rel in self.top_relations]
                != [{top, mu} for top in tops[1:]]):
            raise ValueError("the top relations do not identify each summand's "
                             "top class with the first one's")
        if not all(c in (1, -1) for rel in self.top_relations for c in rel.values()):
            raise ValueError("a top relation has a coefficient other than +-1")
        return True

    def cross_pairs(self):
        """The generator pairs (p, q) of the cross products g_p * g_q, p < q
        in different summands, in relation order: summand pair by summand
        pair, then generators."""
        members = [[] for _ in range(self.summand_of[-1] + 1)]
        for p, i in enumerate(self.summand_of):
            members[i].append(p)
        for i, left in enumerate(members):
            for right in members[i + 1:]:
                for p in left:
                    yield from ((p, q) for q in right)

    @cached_property
    def relations(self):
        """The power relations, the cross products and the top relations,
        built once, on first access; more than _MAX_CONNECTED_SUM_RELATIONS
        of them raise ValueError before any cross product is built."""
        sizes = Counter(self.summand_of).values()
        count = ((len(self.summand_of) ** 2 - sum(s * s for s in sizes)) // 2
                 + len(self.power_relations) + len(self.top_relations))
        if count > _MAX_CONNECTED_SUM_RELATIONS:
            raise ValueError(
                f"connected sum is too large to present: it has {count} "
                f"relations; at most {_MAX_CONNECTED_SUM_RELATIONS} are built")
        factor = [(p, 1) for p in range(len(self.summand_of))]
        cross = tuple({(factor[p], factor[q]): _ONE} for p, q in self.cross_pairs())
        return self.power_relations + cross + self.top_relations


def _atom_label(atom, orientation):
    if atom[0] == "sphere_product":
        base = f"S{atom[1]}xS{atom[2]}"
    else:
        d, p = atom[1], atom[2]
        base = {(2, 2): "CP2", (4, 2): "HP2", (8, 2): "OP2"}.get((d, p), f"P({d},{p})")
        if atom[0] == "projective" and d == 2 and p > 2:
            base = f"CP{p}"
    return f"rev({base})" if orientation < 0 else base


def connected_sum_ring(atoms, orientations=None, *, name=None) -> ConnectedSumRing:
    return ConnectedSumRing(atoms, orientations, name=name)


# ---------------------------------------------------------------------------
# intersection-complete families


@dataclass(frozen=True)
class SetFamily:
    """Family of subsets of the ground set {0, ..., ground-1}."""

    ground: int
    members: tuple

    def __post_init__(self):
        seen = set()
        full = frozenset(range(self.ground))
        norm = []
        for m in self.members:
            fs = frozenset(m)
            if not fs or fs == full:
                raise ValueError("members must be nonempty proper subsets")
            if not fs <= full:
                raise ValueError(f"member {sorted(fs)} leaves the ground set")
            if fs in seen:
                raise ValueError(f"duplicate member {sorted(fs)}")
            seen.add(fs)
            norm.append(fs)
        object.__setattr__(self, "members", tuple(norm))


def intersection_complete(family: SetFamily):
    """All four intersections of I or I^c with J or J^c are nonempty,
    for every pair of distinct members.  Returns (ok, violation) where the
    violation names the pair and the empty quadrant.

    A quadrant that no pair can leave empty is settled for the whole family
    in one pass, and only the others are tested pair by pair: I * J when
    every member holds a common index or each is larger than half the
    ground set, I * J^c and I^c * J when all members have one size
    (distinct sets of one size never contain each other), and I^c * J^c
    when some index lies in no member or each is smaller than half.
    """
    members, ground = family.members, family.ground
    full = frozenset(range(ground))
    sizes = {len(m) for m in members}
    quadrants = []
    if not (full.intersection(*members) or 2 * min(sizes, default=0) > ground):
        quadrants.append(("I", "J"))
    if len(sizes) > 1:
        quadrants += [("I", "J^c"), ("I^c", "J")]
    if full == full.union(*members) and 2 * max(sizes, default=0) >= ground:
        quadrants.append(("I^c", "J^c"))
    if not quadrants:
        return True, None
    for I, J in itertools.combinations(members, 2):
        sides = {"I": I, "I^c": full - I, "J": J, "J^c": full - J}
        for lname, rname in quadrants:
            if not sides[lname] & sides[rname]:
                return False, (sorted(I), sorted(J), f"{lname} * {rname}")
    return True, None


@dataclass
class FamilyForms:
    family: SetFamily
    ring: ConnectedSumRing
    witness: EmbeddingWitness
    caveat: str | None


def family_local_forms(family: SetFamily) -> FamilyForms:
    """Coordinate-form witness for the connected sum indexed by the family.

    Member I contributes the sphere-product atom (|I|, ground - |I|) and its
    generators map to dx_I and (sign-corrected) dx_(I^c); intersection
    completeness makes every non-complementary product vanish on a shared
    coordinate.  Families with singleton members or complements produce
    circle factors; the witness is still emitted, with a recorded caveat.
    """
    ok, violation = intersection_complete(family)
    if not ok:
        I, J, quadrant = violation
        raise ValueError(f"family is not intersection-complete: members {I} "
                         f"and {J} have empty {quadrant}")
    k1 = family.ground
    sizes = [len(m) for m in family.members]
    ring = connected_sum_ring([("sphere_product", size, k1 - size) for size in sizes],
                              name=f"X({family.ground};{len(sizes)})")
    ext = exterior_algebra(k1, first_index=0)
    pairs = _complementary_pairs(ext, [sorted(m) for m in family.members])
    images = {}
    caveat = None
    for i, (size, (first, second)) in enumerate(zip(sizes, pairs), start=1):
        if min(size, k1 - size) == 1:
            caveat = ("some summands have circle factors; the ring witness "
                      "ignores the simple-connectivity hypothesis")
        if size > k1 - size:
            first, second = second, first
        images[f"a{i}"], images[f"b{i}"] = first, second
    witness = _verified(ring, ext, images, "family")
    return FamilyForms(family, ring, witness, caveat)


# ---------------------------------------------------------------------------
# descriptor grammar


@dataclass(frozen=True)
class Atom:
    kind: str          # sphere | sphere_product | projective
    params: tuple
    reversed: bool = False


@dataclass(frozen=True)
class CSum:
    parts: tuple       # ((count, Atom), ...)


@dataclass(frozen=True)
class Prod:
    parts: tuple


@dataclass(frozen=True)
class Wedge:
    parts: tuple


def _dimension(t: str, prefix: str) -> int:
    """The positive whole number after ``prefix`` in a token such as S3 or CP2."""
    n = whole(t[len(prefix):])
    if n:
        return n
    raise ValueError(f"bad space descriptor {excerpt(t)}: expected {prefix} "
                     f"followed by a positive whole number, as in {prefix}2")


def _parse_atom(token: str) -> Atom:
    t = token.strip()
    if "x" in t:
        left, _, right = t.partition("x")
        if "x" in right:
            raise ValueError(f"unsupported product atom {excerpt(token)}")
        la, ra = _parse_atom(left), _parse_atom(right)
        if la.kind != "sphere" or ra.kind != "sphere":
            raise ValueError(f"unsupported product atom {excerpt(token)}")
        return Atom("sphere_product", (la.params[0], ra.params[0]))
    for prefix, gd in (("CP", 2), ("HP", 4), ("OP", 8)):
        if t.startswith(prefix):
            power = _dimension(t, prefix)
            if prefix in ("HP", "OP") and power != 2:
                raise ValueError(f"only {prefix}2 is supported, got {excerpt(token)}")
            return Atom("projective", (gd, power))
    if t.startswith("S"):
        return Atom("sphere", (_dimension(t, "S"),))
    raise ValueError(f"unsupported space descriptor {excerpt(token)}")


def parse_descriptor(text: str):
    """Parse the space grammar: atoms, rev(), csum(), prod(), wedge().

    Arguments are cut at their top-level commas by ``split_top``; dimensions
    and multiplicities are read by ``whole``.  Input nested deeper than
    MAX_NESTING levels raises PresentationError; an error quotes at most an
    ``excerpt`` of the input.
    """
    s = text.strip()
    check_nesting(s, "space descriptor")

    for head, cls in (("csum", CSum), ("prod", Prod), ("wedge", Wedge)):
        if s.startswith(head + "(") and s.endswith(")"):
            body = s[len(head) + 1:-1]
            if not body.strip():
                raise ValueError(f"{head}() needs at least one argument")
            args = split_top(body)
            if "" in args:
                raise ValueError(f"{head}() has an empty argument in {excerpt(s)}")
            if cls is CSum:
                parts = []
                for arg in args:
                    count = 1
                    if "*" in arg:
                        cnt, _, rest = arg.partition("*")
                        cnt = cnt.strip()
                        count = whole(cnt)
                        if not count:
                            raise ValueError(
                                f"summand multiplicity must be a positive "
                                f"whole number, got {excerpt(cnt)} in "
                                f"{excerpt(arg)}")
                        arg = rest
                    parts.append((count, _parse_summand(arg)))
                return CSum(tuple(parts))
            return cls(tuple(parse_descriptor(a) for a in args))
    return _parse_summand(s)


def _parse_summand(text: str) -> Atom:
    t = text.strip()
    if t.startswith("rev(") and t.endswith(")"):
        inner = _parse_summand(t[4:-1])
        return Atom(inner.kind, inner.params, not inner.reversed)
    if t.startswith("(") and t.endswith(")"):
        return _parse_summand(t[1:-1])
    return _parse_atom(t)


# ---------------------------------------------------------------------------
# classification


# Largest n for which classify refutes a sum of CP^n through decide_pi,
# whose system has C(2n, 2) unknowns: decide_pi(100, 2) takes about 0.25 s
# and 36 MiB, decide_pi(150, 2) 0.56 s and 61 MiB (CPython 3.11.7, 2 vCPUs),
# and the cost grows as n^2.
_MAX_PI_SUM_POWER = 100

SCALABLE = "Scalable"
NOT_SCALABLE = "NotScalable"
UNKNOWN = "Unknown"


@dataclass
class Classification:
    descriptor: str
    verdict: str
    reason: str
    witness: EmbeddingWitness | None = None
    refutation: object = None
    parts: list = field(default_factory=list)


def classify(descriptor: str) -> Classification:
    """Map a space descriptor (text in the grammar of ``parse_descriptor``)
    to Scalable / NotScalable / Unknown.

    Positive verdicts carry verified witnesses; negative ones carry
    certificates valid in every exterior algebra, so they pass to products
    and wedges (where a summand or factor is a retract).  Gaps are reported
    as Unknown, never guessed.
    """
    return _classify_node(parse_descriptor(descriptor), descriptor)


def _classify_node(node, text) -> Classification:
    if isinstance(node, Atom):
        return _classify_csum(CSum(((1, node),)), text)
    if isinstance(node, CSum):
        return _classify_csum(node, text)
    op = "product" if isinstance(node, Prod) else "wedge"
    parts = [_classify_node(p, text) for p in node.parts]
    if all(p.verdict == SCALABLE for p in parts):
        return Classification(text, SCALABLE,
                              f"{op} of scalable factors (closure under "
                              f"products and wedges)", parts=parts)
    bad = next((p for p in parts if p.verdict == NOT_SCALABLE), None)
    if bad is not None:
        return Classification(text, NOT_SCALABLE,
                              f"a {op} factor is a retract and its ring "
                              f"obstruction persists: {bad.reason}",
                              refutation=bad.refutation, parts=parts)
    return Classification(text, UNKNOWN,
                          f"undecided {op} factor", parts=parts)


def _sphere_witness(k):
    """The k-sphere's generator goes to the volume form of R^k."""
    ext = exterior_algebra(k)
    images = {"x": subset_monomial(ext, range(1, k + 1))}
    return _verified(sphere_ring(k), ext, images, "sphere")


def _projective_witness(gen_degree, power):
    """CP^n (generator degree 2, power n): x goes to the symplectic form of
    R^(2n).  The check expands 2^n terms (2^12 take under a second), so an
    n above 12 raises ValueError before the ring is built.  A projective
    plane on a generator of degree d > 2: dx_(1..d) + dx_(d+1..2d)."""
    if gen_degree == 2:
        if power > 12:
            raise ValueError(f"CP{power} is too large to verify: its symplectic "
                             f"witness check expands 2^{power} terms; CP^n is "
                             f"supported up to n = 12")
        ext = exterior_algebra(2 * power)
        images = {"x": symplectic_form(ext, power)}
    else:
        ext = exterior_algebra(2 * gen_degree)
        images = _equal_square_images(ext, gen_degree, ["x"])
    return _verified(projective_ring(gen_degree, power), ext, images,
                     "projective")


def _classify_csum(node: CSum, text) -> Classification:
    kinds = {(atom.kind, atom.params) for _c, atom in node.parts}
    total = sum(c for c, _a in node.parts)

    if total > 1 and all(kind == "sphere" or (kind == "projective" and p[1] == 1)
                         for kind, p in kinds):
        raise ValueError("connected sums of bare spheres (CP1 is S2) are not "
                         "supported")
    # S^k has dimension k, S^n x S^m has n + m, a projective space d * power
    dims = {p[0] * p[1] if kind == "projective" else sum(p) for kind, p in kinds}
    if len(dims) > 1:
        raise ValueError(f"summands have mixed fundamental degrees {sorted(dims)}")
    if {k for k, _p in kinds} == {"sphere"}:
        (_, (k,)) = kinds.pop()
        return Classification(text, SCALABLE,
                              f"the {k}-sphere is scalable (verified "
                              f"volume-form witness)",
                              witness=_sphere_witness(k))

    if {k for k, _p in kinds} == {"projective"}:
        params = {p for _k, p in kinds}
        if len(params) != 1:
            return Classification(text, UNKNOWN,
                                  "mixed connected sum (different projective "
                                  "atoms); no result applies")
        (gd, power) = params.pop()
        plus = sum(c for c, a in node.parts if not a.reversed)
        minus = total - plus
        if total == 1:
            reason = ("projective plane (verified witness)" if power == 2 else
                      "projective space (verified symplectic-power witness)")
            return Classification(text, SCALABLE, reason,
                                  witness=_projective_witness(gd, power))
        if power == 2:
            threshold = comb(2 * gd, gd) // 2
            if plus <= threshold and minus <= threshold:
                witness = _plane_sum_witness(gd, plus, minus)
                return Classification(text, SCALABLE,
                                      f"{plus}+{minus} summands within the "
                                      f"inertia bound {threshold} per sign",
                                      witness=witness)
            sig = wedge_pairing_signature(gd)
            bad = plus if plus > threshold else minus
            cert = InertiaRefutation(
                f"{bad} same-orientation summands exceed the wedge-pairing "
                f"inertia ({sig.positive}, {sig.negative})",
                sig.positive, sig.negative, bad)
            return Classification(text, NOT_SCALABLE,
                                  f"equal-square family of size {bad} cannot "
                                  f"embed (threshold {threshold})",
                                  refutation=cert)
        # sums of complex projective spaces of complex dimension >= 3
        if power > _MAX_PI_SUM_POWER:
            raise ValueError(
                f"a sum of CP{power}s is too large to refute: its linear "
                f"system has C({2 * power}, 2) unknowns; sums of CP^n are "
                f"supported up to n = {_MAX_PI_SUM_POWER}")
        decision = decide_pi(power, total)
        return Classification(text, NOT_SCALABLE,
                              f"two degree-2 classes with equal {power}-th "
                              f"powers and zero product cannot coexist",
                              refutation=decision.refutation)

    if {k for k, _p in kinds} == {"sphere_product"}:
        dims = {tuple(sorted(p)) for _k, p in kinds}
        if len(dims) == 1:
            n, m = dims.pop()
            if n == m:
                decision = decide_omega(n, total)
                if decision.embeddable:
                    return Classification(text, SCALABLE,
                                          f"r = {total} within the bound "
                                          f"C({2*n},{n})/2 = {decision.boundary}",
                                          witness=decision.witness)
                return Classification(text, NOT_SCALABLE,
                                      f"r = {total} exceeds the bound "
                                      f"{decision.boundary}",
                                      refutation=decision.refutation)
            lower = comb(n + m - 1, n - 1)
            upper = comb(n + m, n)
            if total <= lower:
                _check_sum_size(2 * total)
                members = [frozenset(s) for s in
                           _subsets_containing_first(n, total, n + m, 0)]
                forms = family_local_forms(SetFamily(n + m, tuple(members)))
                return Classification(text, SCALABLE,
                                      f"r = {total} within the "
                                      f"intersection-complete bound {lower}",
                                      witness=forms.witness)
            if total > upper:
                cert = DimensionCountRefutation(
                    f"rank H^{n} = {total} exceeds dim Lambda^{n} "
                    f"R^{n + m} = {upper}", total, upper)
                return Classification(text, NOT_SCALABLE,
                                      f"r = {total} violates the rank bound "
                                      f"{upper}", refutation=cert)
            return Classification(text, UNKNOWN,
                                  f"r = {total} falls in the open gap "
                                  f"({lower}, {upper}] for S{n}xS{m} sums")
        return Classification(text, UNKNOWN,
                              "mixed sphere-product dimensions; no uniform "
                              "threshold applies")

    return Classification(text, UNKNOWN,
                          "mixed connected sum; the local obstruction theory "
                          "says nothing about it")


def _plane_sum_witness(gd, plus, minus):
    """Witness for a sum of projective planes, plus/minus orientations."""
    ring = connected_sum_ring([("projective", gd, 2)] * (plus + minus),
                              [1] * plus + [-1] * minus)
    ext = exterior_algebra(2 * gd)
    images = _equal_square_images(ext, gd, ring.generator_names(), minus)
    return _verified(ring, ext, images, "plane-sum")
