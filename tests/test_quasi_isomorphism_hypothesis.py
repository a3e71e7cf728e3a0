"""The model audit ``is_quasi_isomorphism(phi, cap)`` decides, from ranks on
the mapping cone alone, that H^k(phi) is an isomorphism for k <= cap and
injective for k = cap + 1.  The oracle here computes that claim the long
way: H^k of source and target, the target class coordinates of the images
of the source representatives, and the rank of that matrix, degree by
degree.

The morphisms are drawn from fixture algebras and small models: a sub-model
spanned by a prefix of the generators (closed under d, since each
differential is written in earlier generators), each generator sent to a
multiple of itself, into the algebra itself, into a truncation of it, or on
to a ring through the model's own quasi-isomorphism.
"""

import functools
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from rht import DgaMorphism, Element, FreeCdga, TruncatedCdga, linalg  # noqa: E402
from rht.cohomology import DegreeCohomology, is_quasi_isomorphism  # noqa: E402
from rht.models import minimal_model  # noqa: E402
from rht.presentations import projective_ring, wedge_of_spheres_ring  # noqa: E402
from rht.verify import load_fixture  # noqa: E402


def induced_ranks(phi, k):
    """(rank H^k(source), rank H^k(target), rank of H^k(phi))."""
    src = DegreeCohomology(phi.source, k)
    tgt = DegreeCohomology(phi.target, k)
    rows = [tgt.class_coords(phi.apply_terms(terms))
            for terms in src.representatives()]
    return src.rank, tgt.rank, linalg.rank(rows)


def comparison_oracle(phi, cap):
    """H^k(phi) an isomorphism for every k <= cap, and injective at cap + 1."""
    for k in range(cap + 1):
        src, tgt, image = induced_ranks(phi, k)
        if not src == tgt == image:
            return False
    src, _tgt, image = induced_ranks(phi, cap + 1)
    return image == src


FIXTURES = ["s2_model.cdga", "cp2_model.cdga", "wedge335_model.cdga"]
MODELS = {
    "CP2": lambda: minimal_model(projective_ring(2, 2), 7),
    "S2vS2": lambda: minimal_model(wedge_of_spheres_ring([2, 2]), 5),
    "S3vS4": lambda: minimal_model(wedge_of_spheres_ring([3, 4]), 8),
}


@functools.cache
def _model(name):
    return MODELS[name]()


SCALES = st.sampled_from([1, 1, -1, 2, Fraction(1, 2), 0])


def _prefix(alg, n):
    """The sub-algebra on the first n generators, with their differentials."""
    gens = alg.gens[:n]
    return FreeCdga(gens, {g.name: alg.differential_of(g.name).terms
                           for g in gens}, name=f"{alg.name}[:{n}]")


def _scaled_images(alg, n, closed_scales):
    """Term dicts of a chain map on the first n generators of ``alg`` that
    sends each generator to a multiple of itself: a closed generator takes
    its drawn scale, any other the scale of the monomials of its
    differential (one scale for all of them on these algebras)."""
    scale, images = [], {}
    for i, g in enumerate(alg.gens[:n]):
        dv = alg.differential_of(g.name).terms
        if dv:
            s = {_monomial_scale(mon, scale) for mon in dv}
            assert len(s) == 1, g.name
            s = s.pop()
        else:
            s = closed_scales[i % len(closed_scales)]
        scale.append(s)
        images[g.name] = {alg.gen_key(g.name): s} if s else {}
    return images


def _monomial_scale(mon, scale):
    out = 1
    for i, e in mon:
        out *= scale[i] ** e
    return out


@st.composite
def morphisms(draw):
    """(phi, cap) with phi a scaled inclusion of a sub-model."""
    kind = draw(st.sampled_from(["fixture", "model"]))
    if kind == "fixture":
        model = None
        alg = load_fixture(draw(st.sampled_from(FIXTURES)))
    else:
        model = _model(draw(st.sampled_from(sorted(MODELS))))
        alg = model.algebra
    n = draw(st.integers(1, len(alg.gens)))
    images = _scaled_images(alg, n, draw(st.lists(SCALES, min_size=1,
                                                   max_size=4)))
    source = _prefix(alg, n)
    target = draw(st.sampled_from(["self", "truncation"]
                                  + (["ring"] if model else [])))
    if target == "truncation":
        top = draw(st.integers(2, 9))
        trunc = TruncatedCdga(alg, top)
        images = {name: {k: c for k, c in terms.items()
                         if alg.key_degree(k) <= top}
                  for name, terms in images.items()}
        phi = DgaMorphism(source, trunc, {
            name: Element(trunc, terms) for name, terms in images.items()})
    else:
        into = DgaMorphism(source, alg, {
            name: Element(alg, terms) for name, terms in images.items()})
        phi = into if target == "self" else model.quasi_iso.compose(into)
    return phi, draw(st.integers(0, 7))


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(morphisms())
def test_cone_ranks_agree_with_the_source_and_target_comparison(case):
    phi, cap = case
    assert is_quasi_isomorphism(phi, cap) == comparison_oracle(phi, cap)
