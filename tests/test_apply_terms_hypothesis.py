"""``DgaMorphism.apply_terms`` against an Element-by-Element oracle.

``apply_terms`` multiplies each monomial out factor by factor and drops it at
the first partial product that vanishes.  On random morphisms into free,
truncated, presented and exterior targets its image must equal the sum of
Element products of the generator images, and a dropped monomial must cost
no further product.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from rht import DgaMorphism, FreeCdga, exterior_algebra  # noqa: E402
from rht.cdga import Element, TruncatedCdga  # noqa: E402
from rht.presentations import RingPresentation  # noqa: E402
from coefficients import is_coefficient  # noqa: E402

# zero differentials throughout, so every degree-preserving map is a chain map
SOURCE = FreeCdga([("x", 2), ("y", 1), ("z", 2), ("w", 3)], name="S")
_TARGET_GENS = [("u", 1), ("v", 2), ("s", 1), ("t", 3)]
_FREE = FreeCdga(_TARGET_GENS, name="T")


def _ring():
    amb = FreeCdga(_TARGET_GENS)
    u, v, s = amb["u"], amb["v"], amb["s"]
    return RingPresentation(_TARGET_GENS, [v ** 2, u * s, v * u], name="R")


TARGETS = {
    "free": _FREE,
    "truncated": TruncatedCdga(_FREE, 4),
    "presentation": _ring(),
    "exterior": exterior_algebra(4),
}
COEFFS = [1, -1, 2, -3, Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3)]


def oracle_apply(phi, terms):
    """Sum of c * prod phi(g_i) ** e_i, one Element at a time, from the unit."""
    out = phi.target.zero()
    for mon, c in terms.items():
        img = phi.target.unit()
        for i, e in mon:
            img = img * phi.images[phi.source.gens[i].name] ** e
        out = out + c * img
    return out


def check_against_oracle(phi, terms):
    got = phi.apply_terms(terms)
    assert got == oracle_apply(phi, terms).terms
    assert all(is_coefficient(c) for c in got.values())
    # a new dict: no image's terms are handed out or touched
    assert all(got is not t for t in phi._gen_terms)


@st.composite
def morphisms(draw):
    target = TARGETS[draw(st.sampled_from(sorted(TARGETS)))]
    images = {}
    for g in SOURCE.gens:
        basis = target.basis(g.degree)
        mons = draw(st.lists(st.sampled_from(basis), max_size=3, unique=True)) \
            if basis else []
        images[g.name] = Element(target, {m: draw(st.sampled_from(COEFFS))
                                          for m in mons})
    return DgaMorphism(SOURCE, target, images)


@st.composite
def term_dicts(draw):
    """Source terms of degree 0 to 6: the empty monomial, squares and cubes
    of the even generators, and products of up to four factors."""
    mons = set()
    for d in draw(st.lists(st.integers(0, 6), min_size=1, max_size=4)):
        mons.add(draw(st.sampled_from(SOURCE.basis(d))))
    return {m: draw(st.sampled_from(COEFFS)) for m in sorted(mons)}


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(morphisms(), term_dicts())
def test_apply_terms_matches_element_oracle(phi, terms):
    check_against_oracle(phi, terms)


def _fixed_images(target):
    """Images with Fraction coefficients, from the target's own basis.  The
    square of z vanishes in the presentation (v^2 = 0) and the exterior
    algebra, and its cube above the truncation."""
    b = target.basis
    return {"x": {b(2)[0]: Fraction(1, 2), b(2)[-1]: 1}, "y": {b(1)[0]: 1},
            "z": {b(2)[0]: -2}, "w": {b(3)[-1]: Fraction(2, 3)}}


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_apply_terms_covers_powers_unit_and_vanishing_products(name):
    target = TARGETS[name]
    images = {g: Element(target, terms)
              for g, terms in _fixed_images(target).items()}
    phi = DgaMorphism(SOURCE, target, images)
    x, y, z, w = (SOURCE.gen_key(g) for g in "xyzw")
    terms = (SOURCE.unit() * Fraction(5, 3)
             + SOURCE["x"] ** 2 + Fraction(1, 2) * SOURCE["z"] ** 3
             + SOURCE["x"] * SOURCE["y"] * SOURCE["z"]
             + SOURCE["y"] * SOURCE["w"] - 2 * SOURCE["x"] * SOURCE["z"]).terms
    assert () in terms and ((0, 2),) in terms and ((2, 3),) in terms
    check_against_oracle(phi, terms)
    for key in (x, y, z, w):
        check_against_oracle(phi, {key: 1})


def test_a_vanishing_partial_product_ends_the_monomial(monkeypatch):
    """x * y * z with phi(x) phi(y) = 0 costs one product, not two."""
    ext = exterior_algebra(4)
    source = FreeCdga([("x", 1), ("y", 1), ("z", 1)], name="S")
    phi = DgaMorphism(source, ext, {"x": Element(ext, {0b0001: 1}),
                                    "y": Element(ext, {0b0001: 1}),
                                    "z": Element(ext, {0b0010: 1})})
    calls = []
    real = ext.mul_terms

    def spy(t1, t2):
        calls.append((t1, t2))
        return real(t1, t2)

    monkeypatch.setattr(ext, "mul_terms", spy)
    xyz = (source["x"] * source["y"] * source["z"]).terms
    assert phi.apply_terms(xyz) == {}
    assert len(calls) == 1
