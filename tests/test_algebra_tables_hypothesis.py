"""Per-algebra tables of ``FreeCdga`` against direct computation.

``adopt`` copies a term dict unchanged when the source's generators are the
target's leading generators (same names and degrees, same order) and maps
and normalizes every monomial otherwise; either way it must agree with the
by-name map through ``monomial``, Koszul sign included.  ``key_degree``
reads a per-algebra table that ``extend`` copies, so an extension's entries
never reach its parent.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from rht.cdga import FreeCdga  # noqa: E402
from rht.linalg import _ONE  # noqa: E402
from rht.scalability import sigma_ring  # noqa: E402

COEFFS = st.sampled_from([1, -1, 2, -3, 5])


def oracle_adopt(target, element):
    """The by-name map: each monomial's factors renamed into ``target`` and
    normalized by ``monomial``, with its Koszul sign."""
    index = {g.name: target.generator_names().index(g.name)
             for g in element.alg.gens}
    out = {}
    for mon, c in element.terms.items():
        sign, key = target.monomial(
            (index[element.alg.gens[i].name], e) for i, e in mon)
        out[key] = c if sign is _ONE else -c
    return out


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
    subset of the target's generators."""
    gens = draw(generator_lists())
    if draw(st.booleans()):
        source_gens = gens[:draw(st.integers(1, len(gens)))]
        prefix = True
    else:
        subset = draw(st.lists(st.sampled_from(gens), min_size=1,
                               max_size=len(gens), unique=True))
        source_gens = draw(st.permutations(subset))
        prefix = list(source_gens) == gens[:len(source_gens)]
    source = FreeCdga(source_gens, name="S")
    target = FreeCdga(gens, name="T")
    return target, draw(elements(source, source_gens)), prefix


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(adopt_cases())
def test_adopt_matches_the_by_name_map(case):
    target, x, prefix = case
    got = target.adopt(x)
    assert got.alg is target
    assert got.terms == oracle_adopt(target, x)
    assert got.terms is not x.terms
    if prefix:
        assert got.terms == x.terms
    # a second element of the same source takes the remembered decision
    assert target.adopt(-x).terms == oracle_adopt(target, -x)


def test_sigma_ring_relations_take_the_leading_generator_path(monkeypatch):
    calls = []
    good = FreeCdga.monomial

    def spy(self, factors):
        calls.append(self)
        return good(self, factors)

    monkeypatch.setattr(FreeCdga, "monomial", spy)
    ring = sigma_ring(4, 35)
    assert calls == []
    assert len(ring.relations) == 35 * 34 // 2 + 34
    # a reordered source still normalizes through monomial
    source = FreeCdga([("a2", 4), ("a1", 4)])
    ring.base.adopt(source["a2"] * source["a1"])
    assert calls == [ring.base]


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
