"""Per-algebra tables of ``FreeCdga`` against direct computation.

``adopt`` copies a term dict unchanged when the source's generators are the
target's leading generators (same names and degrees, same order) and
refuses every other source, naming its first generator out of place.
``key_degree``
reads a per-algebra table that ``extend`` copies, so an extension's entries
never reach its parent.  ``extend`` carries the cached bases that its new
generators only append to, and every basis an extension holds must equal a
fresh algebra's enumeration.  ``DgaMorphism.extend`` checks only the
generators it appends, and must give the morphism, and refuse the images,
that the full constructor gives and refuses.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from rht.cdga import DgaMorphism, FreeCdga  # noqa: E402
from rht.models import bigraded_model, minimal_model  # noqa: E402
from rht.presentations import (projective_ring,  # noqa: E402
                               wedge_of_spheres_ring)
from rht.scalability import sigma_ring  # noqa: E402

COEFFS = st.sampled_from([1, -1, 2, -3, 5])


@st.composite
def generator_lists(draw):
    degrees = draw(st.lists(st.integers(1, 4), min_size=1, max_size=6))
    return [(f"g{i}", d) for i, d in enumerate(degrees)]


@st.composite
def monomials(draw, gens):
    """A monomial key over ``gens``: increasing indices, exponent 1 on odd
    generators and 1 to 3 on even ones."""
    chosen = sorted(draw(st.sets(st.integers(0, len(gens) - 1), max_size=4)))
    return tuple((i, 1 if gens[i][1] % 2 else draw(st.integers(1, 3)))
                 for i in chosen)


@st.composite
def elements(draw, alg, gens):
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        mon = draw(monomials(gens))
        terms[mon] = terms.get(mon, 0) + draw(COEFFS)
    return alg.element(terms)


@st.composite
def adopt_cases(draw):
    """(target, source element, whether the source is a leading prefix):
    the source is a leading prefix, strict or whole, or a reordering of a
    subset of the target's generators, perhaps with one of them regraded."""
    gens = draw(generator_lists())
    if draw(st.booleans()):
        source_gens = gens[:draw(st.integers(1, len(gens)))]
        prefix = True
    else:
        subset = draw(st.lists(st.sampled_from(gens), min_size=1,
                               max_size=len(gens), unique=True))
        source_gens = list(draw(st.permutations(subset)))
        if draw(st.booleans()):
            i = draw(st.integers(0, len(source_gens) - 1))
            name, degree = source_gens[i]
            source_gens[i] = (name, degree + 1)
        prefix = source_gens == gens[:len(source_gens)]
    source = FreeCdga(source_gens, name="S")
    target = FreeCdga(gens, name="T")
    return target, draw(elements(source, source_gens)), prefix


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(adopt_cases())
def test_adopt_copies_a_leading_source_and_refuses_any_other(case):
    target, x, prefix = case
    if not prefix:
        gens = target.gens
        first = next(g for i, g in enumerate(x.alg.gens)
                     if i >= len(gens) or g != gens[i])
        for _ in range(2):  # a refused source is not remembered
            with pytest.raises(ValueError, match=f"^generator '{first.name}' "):
                target.adopt(x)
        return
    got = target.adopt(x)
    assert got.alg is target
    assert got.terms == x.terms and got.terms is not x.terms
    # a second element of the same source takes the remembered check
    assert target.adopt(-x).terms == (-x).terms


def test_sigma_ring_relations_take_the_leading_generator_path(monkeypatch):
    """The 34 power differences of sigma_ring(4, 35) are adopted, each once;
    its 595 cross products are written as keys and adopt none."""
    calls, adopted = [], []
    good, adopt = FreeCdga.monomial, FreeCdga.adopt

    def spy(self, factors):
        calls.append(self)
        return good(self, factors)

    def adopt_spy(self, element):
        adopted.append(element)
        return adopt(self, element)

    monkeypatch.setattr(FreeCdga, "monomial", spy)
    monkeypatch.setattr(FreeCdga, "adopt", adopt_spy)
    ring = sigma_ring(4, 35)
    assert calls == []
    assert len(adopted) == 34
    assert len(ring.relations) == 35 * 34 // 2 + 34
    # a reordered source is refused, not normalized through monomial
    source = FreeCdga([("a2", 4), ("a1", 4)])
    with pytest.raises(ValueError, match="^generator 'a2' of degree 4 is "
                                         "not generator 1 of "):
        ring.base.adopt(source["a2"] * source["a1"])
    assert calls == []


@st.composite
def degree_cases(draw):
    gens = draw(generator_lists())
    asked = draw(st.lists(monomials(gens), max_size=8))
    new_degree = draw(st.integers(1, 4))
    extended = gens + [("new", new_degree)]
    first_on_extension = draw(st.lists(monomials(extended), min_size=1,
                                       max_size=8))
    return gens, asked, new_degree, first_on_extension


def direct_degree(gens, mon):
    return sum(gens[i][1] * e for i, e in mon)


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(degree_cases())
def test_key_degree_table_is_copied_by_extend(case):
    gens, asked, new_degree, first_on_extension = case
    alg = FreeCdga(gens)
    for mon in asked:
        assert alg.key_degree(mon) == direct_degree(gens, mon)
    parent_table = dict(alg._degree_cache)
    ext = alg.extend([("new", new_degree)], {})
    extended = gens + [("new", new_degree)]
    for mon in asked + first_on_extension:
        assert ext.key_degree(mon) == direct_degree(extended, mon)
    assert alg._degree_cache == parent_table
    for mon in first_on_extension:
        if mon not in parent_table:
            assert mon not in alg._degree_cache
    for mon in asked:
        assert alg.key_degree(mon) == direct_degree(gens, mon)


# -- bases carried by extend ---------------------------------------------------


def assert_held_bases_are_fresh(alg, gens):
    fresh = FreeCdga(gens)
    for n, keys in alg._basis_cache.items():
        assert keys == fresh.basis(n), (gens, n)


def test_extend_carries_bases_below_the_first_product_degree():
    """New generators of degrees 2, 3 and 5 over x (2) and a (3): a monomial
    with a new factor is one generator or has degree at least 2 + 2, so
    bases 0..3 are carried, the new generators appended, and 4 on is not."""
    alg = FreeCdga([("x", 2), ("a", 3)])
    held = {n: alg.basis(n) for n in range(7)}
    ext = alg.extend([("y", 2), ("z", 3), ("w", 5)], {})
    assert ext.basis(2) == held[2] + (((2, 1),),)
    assert ext.basis(3) == held[3] + (((3, 1),),)
    assert ext._basis_cache.keys() == {0, 1, 2, 3}
    assert ext.basis(0) is held[0] and ext.basis(1) is held[1]
    gens = [("x", 2), ("a", 3), ("y", 2), ("z", 3), ("w", 5)]
    for n in range(12):
        ext.basis(n)
    assert_held_bases_are_fresh(ext, gens)
    assert {n: alg.basis(n) for n in range(7)} == held
    assert alg._basis_cache.keys() == set(range(7))
    # an extension by nothing keeps every basis
    same = ext.extend([], {})
    assert same._basis_cache == ext._basis_cache


@st.composite
def extension_chains(draw):
    """Generator lists for a base and one to three extensions (degrees 1 to
    5, so degree-1, odd and even generators, new degrees below old ones),
    each with the degrees whose bases are asked before the next step."""
    chain, count = [], 0
    for _ in range(draw(st.integers(2, 4))):
        degrees = draw(st.lists(st.integers(1, 5), max_size=4))
        chain.append(([(f"g{count + i}", d) for i, d in enumerate(degrees)],
                      draw(st.lists(st.integers(0, 11), max_size=6))))
        count += len(degrees)
    return chain


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(extension_chains())
def test_extension_bases_equal_a_fresh_enumeration(chain):
    (gens, asked), *steps = chain
    alg = FreeCdga(gens)
    for n in asked:
        alg.basis(n)
    for new, asked in steps:
        parent_bases = dict(alg._basis_cache)
        ext = alg.extend(new, {})
        gens = gens + new
        assert_held_bases_are_fresh(ext, gens)
        assert alg._basis_cache == parent_bases
        for n in asked:
            ext.basis(n)
        assert_held_bases_are_fresh(ext, gens)
        alg = ext


# -- morphisms grown by extend -------------------------------------------------


@st.composite
def model_targets(draw):
    """A wedge of two or three spheres or a truncated polynomial ring, a
    cap, and which stagewise construction runs on it."""
    if draw(st.booleans()):
        ring = wedge_of_spheres_ring(
            draw(st.lists(st.integers(2, 4), min_size=2, max_size=3)))
    else:
        ring = projective_ring(draw(st.sampled_from([2, 4])),
                               draw(st.integers(1, 3)))
    build = draw(st.sampled_from([minimal_model, bigraded_model]))
    return ring, draw(st.integers(4, 7)), build


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(model_targets())
def test_morphism_extend_matches_the_full_constructor(case):
    ring, cap, build = case
    extend = DgaMorphism.extend
    seen = []

    def compared(self, source, new_images):
        out = extend(self, source, new_images)
        full = DgaMorphism(source, self.target, {**self.images, **new_images})
        assert out.source is source and out.target is self.target
        assert out.images == full.images
        assert out._gen_terms == full._gen_terms
        # the morphism extended is left as it was
        assert len(self.images) == len(self._gen_terms) < len(out.images)
        seen.append(out)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(DgaMorphism, "extend", compared)
        model = build(ring, cap)
    assert seen and model.quasi_iso is seen[-1]


def _stage_map():
    """x -> a, y -> b from the model of S^2 into an algebra with one more
    pair, d(c) = e, and the source extended by a closed w of degree 4."""
    source = FreeCdga.define([("x", 2), ("y", 3)], lambda A: {"y": A["x"] ** 2})
    target = FreeCdga.define([("a", 2), ("b", 3), ("c", 4), ("e", 5)],
                             lambda B: {"b": B["a"] ** 2, "c": B["e"]})
    rho = DgaMorphism(source, target, {"x": target["a"], "y": target["b"]})
    return rho, source.extend([("w", 4)], {})


@pytest.mark.parametrize("fault", ["not a chain map", "wrong degree",
                                   "missing", "wrong algebra"])
def test_morphism_extend_refuses_what_the_constructor_refuses(fault):
    rho, ext = _stage_map()
    target = rho.target
    images = {"not a chain map": {"w": target["c"]},
              "wrong degree": {"w": target["b"]},
              "missing": {},
              "wrong algebra": {"w": ext["w"]}}[fault]
    with pytest.raises(ValueError) as full:
        DgaMorphism(ext, target, {**rho.images, **images})
    with pytest.raises(ValueError) as grown:
        rho.extend(ext, images)
    assert str(grown.value) == str(full.value)
    # a closed image is taken
    assert rho.extend(ext, {"w": target["a"] ** 2}).images["w"] == target["a"] ** 2


def test_morphism_extend_refuses_a_source_that_changes_an_old_generator():
    rho, ext = _stage_map()
    changed = FreeCdga([("x", 2), ("y", 3), ("w", 4)],
                       {"y": {((0, 2),): 2}})
    with pytest.raises(ValueError, match="changes the differential of 'y'"):
        rho.extend(changed, {"w": rho.target.zero()})
    renamed = FreeCdga([("x", 2), ("u", 3), ("w", 4)], {"u": {((0, 2),): 1}})
    with pytest.raises(ValueError, match="does not lead with the generators"):
        rho.extend(renamed, {"w": rho.target.zero()})
    with pytest.raises(ValueError, match="existing generator 'x'"):
        rho.extend(ext, {"x": rho.target["a"], "w": rho.target.zero()})
    # an equal differential on a separately built source is accepted
    rebuilt = FreeCdga([("x", 2), ("y", 3), ("w", 4)], {"y": {((0, 2),): 1}})
    grown = rho.extend(rebuilt, {"w": rho.target.zero()})
    assert grown.source is rebuilt and grown.images["x"] == rho.images["x"]
