import re
from fractions import Fraction

import pytest
from coefficients import is_exact_coefficient

from rht import FreeCdga, RingPresentation, cohomology, connected_sum_ring
from rht.fileformat import loads
from rht.presentations import projective_ring, sphere_ring, wedge_of_spheres_ring
from rht.scalability import pi_ring, sigma_ring

F = Fraction


def test_projective_plane_dims_and_reduction():
    cp2 = projective_ring(2, 2, name="CP2")
    assert [len(cp2.basis(k)) for k in range(7)] == [1, 0, 1, 0, 1, 0, 0]
    x = cp2["x"]
    assert not (x ** 2).is_zero()
    assert (x ** 3).is_zero()


def test_relations_of_a_reordered_algebra_are_refused():
    """An Element relation is adopted only from an algebra whose generators
    lead the ring's; a reordered one is refused, not re-signed."""
    A = FreeCdga([("a", 1), ("b", 1), ("c", 2)])
    with pytest.raises(ValueError, match="^generator 'a' of degree 1 is not "
                                         "generator 1 of R~ambient$"):
        RingPresentation([("b", 1), ("a", 1), ("c", 2)], [A["a"] * A["b"] + A["c"]])
    lead = FreeCdga([("b", 1), ("a", 1)])
    ring = RingPresentation([("b", 1), ("a", 1), ("c", 2)],
                            [lead["b"] * lead["a"]])
    assert ring.relations == ({((0, 1), (1, 1)): 1},)
    assert (ring["b"] * ring["a"]).is_zero() and not ring["c"].is_zero()


def test_sphere_rings():
    s3 = sphere_ring(3)
    assert [len(s3.basis(k)) for k in range(5)] == [1, 0, 0, 1, 0]
    s2 = sphere_ring(2)
    assert (s2["x"] ** 2).is_zero()


def test_wedge_ring_kills_products():
    w = wedge_of_spheres_ring([3, 3, 5])
    assert [len(w.basis(k)) for k in range(9)] == [1, 0, 0, 2, 0, 1, 0, 0, 0]
    assert (w["x0"] * w["x1"]).is_zero()


def test_builders_write_the_products_of_a_free_algebra():
    """The sphere, projective and wedge builders write term dicts in their
    ring's keys: the products a free algebra on the same generators gives,
    in the same order."""
    for degrees in ([2], [3], [3, 3, 5], [2, 2], [1, 4, 3, 2]):
        amb = FreeCdga([(f"x{i}", d) for i, d in enumerate(degrees)])
        xs = [amb[g.name] for g in amb.gens]
        want = [p.terms for i, x in enumerate(xs) for y in xs[i:]
                if (p := x * y)]
        got = wedge_of_spheres_ring(degrees).relations
        assert list(got) == want
        if len(degrees) == 1:
            assert list(sphere_ring(degrees[0]).relations) == want
    for degree, power in ((2, 2), (4, 2), (2, 5)):
        x = FreeCdga([("x", degree)])["x"]
        (rel,) = projective_ring(degree, power).relations
        assert rel == (x ** (power + 1)).terms
    with pytest.raises(ValueError, match="even generator degree"):
        projective_ring(3, 2)


def test_inhomogeneous_relation_rejected():
    amb = FreeCdga([("x", 2), ("y", 3)])
    with pytest.raises(ValueError, match="homogeneous"):
        RingPresentation([("x", 2), ("y", 3)], [amb["x"] + amb["y"]])


def test_cohomology_of_presentation_is_quotient():
    cp2 = projective_ring(2, 2)
    assert [cohomology(cp2, k, 6).rank for k in range(7)] == [1, 0, 1, 0, 1, 0, 0]


def test_duality_verification_passes_and_fails():
    cp2 = projective_ring(2, 2)
    assert cp2.verify_duality()
    amb = FreeCdga([("x", 2), ("u", 2)])
    # u pairs with nothing: duality must fail
    bad = RingPresentation([("x", 2), ("u", 2)],
                           [amb["x"] * amb["u"], amb["u"] ** 2],
                           fundamental_degree=4, duality=True)
    with pytest.raises(ValueError, match="duality pairing is singular in degree 2"):
        bad.verify_duality()


def test_duality_verification_sees_degrees_above_the_fundamental_class():
    """x^2 survives in degree 4 although x^3 = 0 is flagged with n = 2: the
    check looks at degrees n+1 .. n + 2 (the generator degree) as well."""
    ring = RingPresentation([("x", 2)], [{((0, 3),): 1}],
                            fundamental_degree=2, duality=True)
    assert ring.basis(4) == (((0, 2),),)
    with pytest.raises(ValueError, match=re.escape(
            "duality fails: dim H^4 = 1 above the fundamental degree 2")):
        ring.verify_duality()
    for n in (2, 3, 5):
        assert projective_ring(2, n).verify_duality()


def test_reduction_is_linear_over_degrees():
    cp2 = projective_ring(2, 3, name="CP3")
    x = cp2["x"]
    e = 2 * x ** 3 - x ** 2 * 5
    assert e == 2 * (x ** 3) - 5 * (x ** 2)
    assert (x ** 4).is_zero()


# -- relation intake ----------------------------------------------------------


def test_multi_term_inhomogeneous_relations_rejected():
    """Only one-term relations skip the degree check, and one monomial is
    always homogeneous."""
    amb = FreeCdga([("x", 2), ("y", 3), ("z", 4)])
    gens = [("x", 2), ("y", 3), ("z", 4)]
    for rel in (amb["x"] ** 2 + amb["y"] * amb["x"],
                amb["z"] - amb["x"] ** 2 + amb["y"],
                {((0, 1),): 1, ((1, 1),): F(2)}):
        with pytest.raises(ValueError, match="not homogeneous"):
            RingPresentation(gens, [rel])
    ring = RingPresentation(gens, [{((0, 1), (1, 1)): 3}, amb["z"] - amb["x"] ** 2])
    assert [{ring.base.key_degree(k) for k in r} for r in ring.relations] \
        == [{5}, {4}]


def test_stored_coefficients_are_clean_fractions():
    """Int, Fraction and Element relations, re-homed ones and the direct
    term dicts of connected sums are all stored as nonzero ints or
    Fractions, a whole value as an int."""
    amb = FreeCdga([("x", 2), ("y", 2)])
    rings = [RingPresentation([("x", 2), ("y", 2)],
                              [{((0, 2),): 2, ((1, 2),): F(-1, 3)},
                               {((0, 1), (1, 1)): 0}, amb["x"] * amb["y"]]),
             connected_sum_ring([("sphere_product", 2, 2)] * 2
                                + [("projective", 2, 2)], [1, -1, -1]),
             sigma_ring(2, 3), projective_ring(2, 3)]
    for ring in rings:
        assert ring.relations
        for rel in ring.relations:
            assert type(rel) is dict
            assert all(ring.base.key_degree(k) >= 0 for k in rel)
            assert all(is_exact_coefficient(c) for c in rel.values())


@pytest.mark.parametrize("gens,key,problem", [
    ([("x", 2)], ((3, 1),), "generator index 3 is out of range 0..0"),
    ([("x", 2)], ((-1, 2),), "generator index -1 is out of range 0..0"),
    ([("x", 2), ("y", 2)], ((1, 1), (0, 1)),
     "generator indices are not strictly increasing"),
    ([("x", 2), ("y", 2)], ((0, 1), (0, 1)),
     "generator indices are not strictly increasing"),
    ([("x", 2)], ((0, 0),), "exponent 0 is below 1"),
    ([("x", 3)], ((0, 2),), "odd generator 0 has exponent 2"),
], ids=["index-out-of-range", "negative-index", "indices-decreasing",
        "index-repeated", "exponent-below-one", "odd-exponent-above-one"])
def test_malformed_relation_keys_are_rejected(gens, key, problem):
    """A term-dict relation whose key is no monomial of the ring raises
    ValueError naming the key, at intake rather than in a later slice."""
    with pytest.raises(ValueError,
                       match=re.escape(f"relation key {key!r} is not a "
                                       f"monomial: {problem}")):
        RingPresentation(gens, [{((0, 1),): 1}, {key: 1}])


def test_every_builder_and_intake_stores_term_dicts():
    """Each relation of every builder and intake is a plain dict in the
    ring's keys."""
    A = FreeCdga([("x", 2), ("y", 2)])
    B = FreeCdga([("x", 2)])
    gens = [("x", 2), ("y", 2)]
    rings = {
        "sphere": sphere_ring(4), "projective": projective_ring(2, 3),
        "wedge": wedge_of_spheres_ring([2, 3, 3]), "sigma": sigma_ring(2, 3),
        "pi": pi_ring(3, 2),
        "connected sum": connected_sum_ring([("sphere_product", 2, 2),
                                             ("projective", 2, 2)]),
        "file": loads("ring r\ngen x 2\ngen y 2\nrel x*y\nrel x^2 - y^2\n"),
        "Element": RingPresentation(gens, [A["x"] * A["y"]]),
        "leading Element": RingPresentation(gens, [B["x"] ** 2]),
        "dict": RingPresentation(gens, [{((0, 1), (1, 1)): F(2, 2)}]),
    }
    for label, ring in rings.items():
        assert ring.relations, label
        assert type(ring.relations) is tuple, label
        for rel in ring.relations:
            assert type(rel) is dict, label
            assert all(ring.base.key_degree(k) > 0 for k in rel), label
