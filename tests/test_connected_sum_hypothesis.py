"""Property-based checks of the connected-sum relation builder.

``ConnectedSumRing`` stores the relation dicts it writes instead of copying
them through the public ``RingPresentation`` intake; on random small sums the
two routes must give the same relations, those relations must be the Element
products of the construction that preceded them, key for key and in order,
and witnesses must get the same verdicts on either ring, the same reports
as relation-by-relation mapping in the free-algebra form of the target.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

import itertools  # noqa: E402
from fractions import Fraction  # noqa: E402

from rht import (EmbeddingWitness, SetFamily, connected_sum_ring,  # noqa: E402
                 exterior_algebra, family_local_forms, intersection_complete,
                 verify_witness)
from rht.presentations import RingPresentation  # noqa: E402
from coefficients import is_exact_coefficient  # noqa: E402
from test_scalability import (_element_product_relations,  # noqa: E402
                              oracle_report)


def atoms_of_degree(f):
    """Every summand kind with fundamental degree f."""
    out = [("sphere_product", n, f - n) for n in range(1, f)]
    out += [("projective", d, f // d) for d in range(1, f + 1)
            if f % d == 0 and (d % 2 == 0 or d == f)]
    return out


@st.composite
def connected_sums(draw):
    f = draw(st.integers(2, 8))
    atoms = draw(st.lists(st.sampled_from(atoms_of_degree(f)),
                          min_size=1, max_size=4))
    orientations = draw(st.lists(st.sampled_from([1, -1]),
                                 min_size=len(atoms), max_size=len(atoms)))
    return atoms, orientations


@st.composite
def families(draw):
    """Intersection-complete families: random members, each kept only if the
    family stays complete."""
    ground = draw(st.integers(2, 7))
    edge = 1 if ground < 4 else 2  # members of size 1 pair with few others
    subsets = st.frozensets(st.integers(0, ground - 1),
                            min_size=edge, max_size=ground - edge)
    members = []
    for m in draw(st.lists(subsets, min_size=1, max_size=8, unique=True)):
        if intersection_complete(SetFamily(ground, (*members, m)))[0]:
            members.append(m)
    return SetFamily(ground, tuple(members))


def copied(ring):
    """The same ring through the public intake, which copies each relation."""
    out = RingPresentation([(g.name, g.degree) for g in ring.gens],
                           [dict(r) for r in ring.relations],
                           name=ring.name,
                           fundamental_degree=ring.fundamental_degree,
                           duality=ring.duality)
    out.fundamental_monomial = ring.fundamental_monomial
    return out


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(connected_sums())
def test_wrapped_relations_match_the_copying_route(case):
    atoms, orientations = case
    ring = connected_sum_ring(atoms, orientations)
    copy = copied(ring)
    assert [list(r.items()) for r in ring.relations] == \
        [list(r.items()) for r in copy.relations]
    assert all(type(r) is dict and all(ring.base.key_degree(k) >= 0 for k in r)
               for r in ring.relations)
    assert all(is_exact_coefficient(c)
               for r in ring.relations for c in r.values())
    assert len({id(r) for r in ring.relations}) == len(ring.relations)


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(connected_sums())
def test_relations_match_element_products_in_order(case):
    atoms, orientations = case
    ring = connected_sum_ring(atoms, orientations)
    want, mu1 = _element_product_relations(atoms, orientations)
    assert [[(k, c, type(c)) for k, c in r.items()] for r in ring.relations] \
        == [[(k, c, type(c)) for k, c in e.terms.items()] for e in want]
    assert [ring.base.format_terms(r) for r in ring.relations] == \
        [repr(e) for e in want]
    assert {ring.fundamental_monomial: ring.fundamental_monomial_sign} == mu1.terms


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(families(), st.sampled_from([1, 2, -1]))
def test_family_witness_verdicts_match_on_the_copied_ring(family, scale):
    """family_local_forms' witness passes on both rings; scaling a1's image
    breaks it (when there are two summands to disagree) on both alike."""
    forms = family_local_forms(family)
    ring, witness = forms.ring, forms.witness
    copy = copied(ring)
    images = dict(witness.images, a1=scale * witness.images["a1"])
    report = verify_witness(ring, EmbeddingWitness(ring, witness.target, images))
    assert report == verify_witness(
        copy, EmbeddingWitness(copy, witness.target, images))
    assert report.passed is (scale == 1 or len(family.members) == 1)


@st.composite
def candidate_witnesses(draw):
    """A random sum and a candidate witness into Lambda R^N, N its dimension
    or one more.  Each image is 2 to 5 monomials with int or Fraction
    coefficients, drawn from a pool of at most three monomials and their
    complements per degree, so that products often hit; or it is an earlier
    image of its degree with some signs flipped, as the plane-sum witnesses
    pair dx_I + dx_(I^c) with dx_I - dx_(I^c), so that products cancel."""
    ring = connected_sum_ring(*draw(connected_sums()))
    ext = exterior_algebra(ring.fundamental_degree + draw(st.integers(0, 1)))
    full = (1 << ext.n) - 1
    pools = {}
    for d in sorted({g.degree for g in ring.gens}):
        basis = ext.basis(d)
        seeds = draw(st.lists(st.sampled_from(basis), min_size=1, max_size=3))
        pools[d] = sorted({m for s in seeds for m in (s, full ^ s)
                           if m.bit_count() == d} | set(basis[:2]))
    coefficient = st.sampled_from([1, -1, 2, -2, Fraction(1, 2), Fraction(-3, 2)])
    images = {}
    for g in ring.gens:
        earlier = [e.terms for e in images.values() if e.degree == g.degree]
        if earlier and draw(st.booleans()):
            terms = draw(st.sampled_from(earlier))
            terms = {m: draw(st.sampled_from([c, -c])) for m, c in terms.items()}
        else:
            pool = pools[g.degree]
            mons = draw(st.lists(st.sampled_from(pool), min_size=min(2, len(pool)),
                                 max_size=min(5, len(pool)), unique=True))
            terms = {m: draw(coefficient) for m in mons}
        images[g.name] = ext.element(terms)
    return ring, EmbeddingWitness(ring, ext, images)


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(candidate_witnesses())
def test_indexed_cross_products_report_as_the_relation_oracle(case):
    """verify_witness checks a sum's cross products by mask; its report is
    the one that mapping every relation in order gives."""
    ring, witness = case
    assert verify_witness(ring, witness) == oracle_report(ring, witness)


@st.composite
def larger_sums(draw):
    """Mixed-atom sums of up to 80 summands, the atoms of a small sum
    repeated in turn, with random orientations, whose generic duality check
    stays affordable: at most 3,000 ambient monomials in degree n and
    8,000 in each degree it looks at above n, up to n + (largest
    generator degree)."""
    kinds, _ = draw(connected_sums())
    count = draw(st.integers(1, 80))
    atoms = [kinds[i % len(kinds)] for i in range(count)]
    orientations = draw(st.lists(st.sampled_from([1, -1]),
                                 min_size=count, max_size=count))
    ring = connected_sum_ring(atoms, orientations)
    n = ring.fundamental_degree
    sizes = ring.base.basis_sizes(n + max(g.degree for g in ring.gens))
    hypothesis.assume(sizes[n] <= 3000 and max(sizes) <= 8000)
    return ring


@hypothesis.settings(max_examples=25, deadline=None)
@hypothesis.given(larger_sums(), st.booleans())
@hypothesis.example(  # 1,770 top-degree monomials, 34,220 in degree 9
    connected_sum_ring([("sphere_product", 3, 3)] * 30, [1, -1, -1] * 10), False)
@hypothesis.example(
    connected_sum_ring([("sphere_product", 2, 4), ("projective", 2, 3),
                        ("sphere_product", 1, 5)] * 3, [-1, 1, 1] * 3), True)
def test_blockwise_certificate_agrees_with_the_generic_check(ring, fault):
    """The blockwise certificate, which every sum runs at construction,
    agrees with the generic elimination over the whole sum; with a fault,
    one summand's top class left unidentified (a summand that has classes
    below the top, so that they pair to zero), both fail."""
    assert ring.duality_verified is True
    hittable = [i for i, atom in enumerate(ring.atoms[1:])
                if atom[0] == "sphere_product" or atom[2] > 1]
    if fault and hittable:
        i = hittable[0]
        rel = ring.top_relations[i]
        ring.top_relations = (ring.top_relations[:i]
                              + ({k: c for k, c in rel.items()
                                  if k != ring.fundamental_monomial},)
                              + ring.top_relations[i + 1:])
    certified = generic = True
    try:
        ring.verify_blockwise_duality()
    except ValueError:
        certified = False
    try:
        RingPresentation.verify_duality(ring)
    except ValueError:
        generic = False
    assert certified is generic is not (fault and bool(hittable))


def pairwise_completeness(family):
    """intersection_complete's answer from every pair and every quadrant."""
    full = frozenset(range(family.ground))
    for I, J in itertools.combinations(family.members, 2):
        for left, lname in ((I, "I"), (full - I, "I^c")):
            for right, rname in ((J, "J"), (full - J, "J^c")):
                if not left & right:
                    return False, (sorted(I), sorted(J), f"{lname} * {rname}")
    return True, None


@st.composite
def any_families(draw):
    """Families with no completeness filter, often of one member size or
    with a shared index, so that quadrants get settled for the family."""
    ground = draw(st.integers(2, 7))
    size = draw(st.one_of(st.none(), st.integers(1, ground - 1)))
    subsets = st.frozensets(st.integers(0, ground - 1), min_size=size or 1,
                            max_size=size or ground - 1)
    if draw(st.booleans()):
        subsets = subsets.map(lambda m: m | {0}).filter(
            lambda m: len(m) < ground and (size is None or len(m) == size))
    members = draw(st.lists(subsets, max_size=8, unique=True))
    return SetFamily(ground, tuple(members))


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(st.one_of(any_families(), families()))
def test_settled_quadrants_report_as_the_pairwise_scan(family):
    """intersection_complete settles some quadrants for the whole family;
    its verdict and first violation are those of the scan of every pair."""
    assert intersection_complete(family) == pairwise_completeness(family)
