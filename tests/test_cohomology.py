import pytest

from rht import DgaMorphism, FreeCdga, cohomology, is_quasi_isomorphism
from rht.cohomology import DegreeCohomology, MappingCone, coords
from rht.presentations import projective_ring
from rht import linalg


@pytest.fixture
def s2():
    return FreeCdga.define([("a", 2), ("b", 3)], d=lambda A: {"b": A["a"] ** 2},
                           name="s2")


def test_sphere_model_ranks(s2):
    assert [cohomology(s2, k, 7).rank for k in range(8)] == [1, 0, 1, 0, 0, 0, 0, 0]
    rep = cohomology(s2, 2, 7).classes[0]
    assert rep == s2["a"]


def test_connected_degree_zero_rank_one(s2, wedge_table):
    assert cohomology(s2, 0, 2).rank == 1
    assert cohomology(wedge_table, 0, 2).rank == 1


def test_wedge_seed_ranks():
    A = FreeCdga([("a", 3), ("b", 3), ("c", 5)])
    assert cohomology(A, 3, 8).rank == 2
    res = cohomology(A, 6, 8)
    assert res.rank == 1
    assert res.classes[0] == A["a"] * A["b"]


def test_class_coords_are_sparse_rows(s2):
    # an exact cocycle: a^2 = d(b)
    assert DegreeCohomology(s2, 4).class_coords((s2["a"] ** 2).terms) == {}
    A = FreeCdga([("a", 3), ("b", 3), ("c", 5)])
    h3 = DegreeCohomology(A, 3)
    reps = h3.representatives()
    assert h3.rank == 2
    for j, terms in enumerate(reps):
        assert repr(h3.class_coords(terms)) == repr({j: 1})
    # the absent coordinate 0 is not stored as a zero
    twice_second = {k: 2 * c for k, c in reps[1].items()}
    assert repr(h3.class_coords(twice_second)) == repr({1: 2})


def test_cohomology_returns_the_degree_cohomology(s2):
    res = cohomology(s2, 2, 7)
    assert isinstance(res, DegreeCohomology)
    assert res.classes == [s2["a"]]
    assert all(c.degree == 2 for c in res.classes)
    below = cohomology(s2, -1, 7)
    assert below.rank == 0 and below.classes == [] and below.keys == []


def test_query_above_cap_is_an_error(s2):
    with pytest.raises(ValueError, match="cap"):
        cohomology(s2, 8, 7)


def test_representatives_are_reduced_cocycles(s2, wedge_table):
    for alg in (s2, wedge_table):
        for k in range(0, 10):
            res = cohomology(alg, k, 10)
            dc = DegreeCohomology(alg, k)
            for cls in res.classes:
                assert cls.d().is_zero()
                vec = coords(cls.terms, dc.pos)
                reduced = linalg.reduce_against(vec, dc.boundary_rows,
                                                dc.boundary_pivots)
                assert reduced == vec and vec


def test_rank_nullity_audit(s2, wedge_table):
    for alg in (s2, wedge_table):
        for k in range(0, 12):
            dim = len(alg.basis(k))
            rank_h = cohomology(alg, k, 12).rank

            def d_rank(deg):
                rows = []
                up = list(alg.basis(deg + 1))
                pos = {m: i for i, m in enumerate(up)}
                for mon in alg.basis(deg):
                    rows.append({pos[m2]: c for m2, c in alg.d_key(mon).items()})
                return linalg.rank(rows)

            assert rank_h + d_rank(k) + d_rank(k - 1) == dim


def test_relative_cohomology_of_identity_vanishes(s2):
    ident = DgaMorphism.identity(s2)
    for k in range(1, 8):
        assert DegreeCohomology(MappingCone(ident), k).rank == 0


def test_relative_cohomology_of_quasi_isomorphism_vanishes(s2):
    # the degree-scaling self-map is a quasi-isomorphism of the sphere model
    phi = DgaMorphism(s2, s2, {"a": 4 * s2["a"], "b": 16 * s2["b"]})
    assert is_quasi_isomorphism(phi, 7)
    for k in range(2, 8):
        assert DegreeCohomology(MappingCone(phi), k).rank == 0


def test_relative_cohomology_detects_missing_generator():
    cp2 = projective_ring(2, 2, name="CP2")
    M2 = FreeCdga([("x", 2)])
    incl = DgaMorphism(M2, cp2, {"x": cp2["x"]})
    for k in range(1, 6):
        assert DegreeCohomology(MappingCone(incl), k).rank == 0
    res = DegreeCohomology(MappingCone(incl), 6)
    assert isinstance(res.complex, MappingCone) and res.complex.phi is incl
    assert res.rank == 1
    z, w = res.complex.pair_of(res.representatives()[0])
    assert z == M2["x"] ** 3 and w.is_zero()


def test_quasi_isomorphism_audit_is_injective_one_degree_above_the_cap():
    # x^3 is a class of degree 6 that the inclusion sends to zero, so the
    # cone has a class in degree 6: iso through 5, not injective at 6
    cp2 = projective_ring(2, 2, name="CP2")
    M2 = FreeCdga([("x", 2)])
    incl = DgaMorphism(M2, cp2, {"x": cp2["x"]})
    assert [is_quasi_isomorphism(incl, c) for c in range(6)] == [True] * 5 + [False]


def test_is_quasi_isomorphism_examples(s2):
    assert is_quasi_isomorphism(DgaMorphism.identity(s2), 7)
    zero = DgaMorphism(s2, s2, {"a": s2.zero(), "b": s2.zero()})
    assert not is_quasi_isomorphism(zero, 7)


def assert_cone_sequence_exact(phi, k):
    """Exactness of H^k(cone) -> H^k(src) -> H^k(tgt) -> H^(k+1)(cone)."""
    cone = MappingCone(phi)
    hc = DegreeCohomology(cone, k)
    hs = DegreeCohomology(phi.source, k)
    ht = DegreeCohomology(phi.target, k)
    hc1 = DegreeCohomology(cone, k + 1)

    proj_rows = []
    for terms in hc.representatives():
        a, _b = cone.pair_of(terms)
        proj_rows.append(hs.class_coords(a.terms))
    phi_rows = []
    for terms in hs.representatives():
        phi_rows.append(ht.class_coords(phi.apply_terms(terms)))
    incl_rows = []
    for terms in ht.representatives():
        incl_rows.append(hc1.class_coords(cone.terms_of_pair(
            phi.source.zero(), phi.target.element(terms))))

    # composites vanish
    for terms in hc.representatives():
        a, _b = cone.pair_of(terms)
        assert ht.class_coords(phi.apply_terms(a.terms)) == {}
    for terms in hs.representatives():
        image = phi.apply_terms(terms)
        assert hc1.class_coords(cone.terms_of_pair(
            phi.source.zero(), phi.target.element(image))) == {}

    # image ranks equal kernel dimensions
    assert linalg.rank(proj_rows) == hs.rank - linalg.rank(phi_rows)
    assert linalg.rank(phi_rows) == ht.rank - linalg.rank(incl_rows)


def test_long_exact_sequence_audit(s2):
    cp2 = projective_ring(2, 2, name="CP2")
    M2 = FreeCdga([("x", 2)])
    maps = [
        DgaMorphism(M2, cp2, {"x": cp2["x"]}),
        DgaMorphism.identity(s2),
        DgaMorphism(s2, s2, {"a": s2.zero(), "b": s2.zero()}),
    ]
    for phi in maps:
        for k in range(0, 7):
            assert_cone_sequence_exact(phi, k)
