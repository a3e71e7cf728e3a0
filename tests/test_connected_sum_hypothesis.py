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
