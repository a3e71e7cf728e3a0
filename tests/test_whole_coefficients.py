"""Whole coefficients are stored as ints.

Every intake stores a whole value as an ``int`` and any other as a
``Fraction``.  Products, differentials, restrictions and integrals of
int-coefficient elements keep whole values as ints across the algebra zoo,
since each zoo algebra has whole structure constants; only a genuinely
fractional value, such as x/2 or an integral over t^i dt, is a ``Fraction``.
"""

import random
from fractions import Fraction

import pytest

from coefficients import is_exact_coefficient
from rht import homotopy, verify
from rht.cdga import Element, FreeCdga, TruncatedCdga
from rht.presentations import RingPresentation, projective_ring
from rht.scalability import connected_sum_ring, exterior_algebra


def zoo():
    fixtures = verify.fixture_algebras()
    w33, cell, _a3 = verify.nonformal_cell_fixture()
    xy = FreeCdga([("x", 2), ("y", 2)])
    x, y = xy["x"], xy["y"]
    return {
        "free": fixtures[2],
        "mixed": fixtures[4],
        "minimal_model": w33.algebra,
        "truncated": TruncatedCdga(fixtures[2], 9),
        # reduces x^2 to 2 y^2: a whole reduction row that is not +-1
        "ring": RingPresentation([("x", 2), ("y", 2)], [x * x - 2 * y * y,
                                                         3 * x * y]),
        "projective": projective_ring(2, 3),
        "connected_sum": connected_sum_ring(
            [("sphere_product", 2, 2)] * 2 + [("projective", 2, 2)], [1, -1, -1]),
        "exterior": exterior_algebra(6),
        "cell": cell,
    }


ZOO = sorted(zoo())


def assert_ints(e):
    assert all(type(c) is int and c for c in e.terms.values()), e.terms


def int_elements(alg, rng, count):
    """Homogeneous elements with int coefficients in -4..4, and their sums."""
    out = [verify.random_homogeneous(alg, rng, range(13)) for _ in range(count)]
    out += [a + b for a, b in zip(out, reversed(out))]
    for e in out:
        assert_ints(e)
    return out


@pytest.mark.parametrize("name", ZOO)
def test_products_and_differentials_of_ints_stay_ints(name):
    alg = zoo()[name]
    rng = random.Random(7000 + len(name))
    elems = int_elements(alg, rng, 20)
    for _ in range(100):
        x, y = rng.choice(elems), rng.choice(elems)
        for got in (x * y, x.d(), x + y, x - y, -x, 3 * x, x * Fraction(4, 2),
                    x ** 2, alg.scalar(Fraction(6, 3)) * x):
            assert_ints(got)
    for rel in getattr(alg, "relations", ()):
        assert all(type(c) is int and c for c in rel.values()), rel


@pytest.mark.parametrize("name", ZOO)
def test_interval_operations_of_ints_stay_ints(name):
    """Products, d and restriction in B (x) Q<t, dt> hold
    ints; the integrals hold an int exactly where the value is whole."""
    alg = zoo()[name]
    interval = homotopy.interval_algebra(alg)
    rng = random.Random(8000 + len(name))
    elems = int_elements(alg, rng, 10)

    def lifts():
        u = interval.zero()
        for _ in range(rng.randint(1, 4)):
            u = u + interval.lift(rng.choice(elems), rng.randint(0, 5),
                                  dt=rng.random() < 0.5)
        return u

    for _ in range(40):
        u, v = lifts(), lifts()
        for got in (u * v, u.d(), homotopy.at(u, 0), homotopy.at(u, 1)):
            assert_ints(got)
        for got in (homotopy.integrate_0_t(u), homotopy.integrate_0_1(u),
                    homotopy.integrate_0_t(u.d()), homotopy.integrate_0_1(u.d())):
            assert all(is_exact_coefficient(c) for c in got.terms.values())


def test_integrals_are_ints_exactly_where_whole():
    alg = verify.fixture_algebras()[4]
    interval = homotopy.interval_algebra(alg)
    x = alg["x"]
    half = homotopy.integrate_0_1(interval.lift(x, 1, dt=True))
    assert half == x * Fraction(1, 2)
    assert [type(c) for c in half.terms.values()] == [Fraction]
    # 2x t dt integrates to x t^2; x t dt + 2x t^3 dt to 1/2 + 2/4 = 1 times x
    assert_ints(homotopy.integrate_0_t(interval.lift(2 * x, 1, dt=True)))
    whole = homotopy.integrate_0_1(interval.lift(x, 1, dt=True)
                                   + interval.lift(2 * x, 3, dt=True))
    assert whole == x
    assert_ints(whole)
    third = homotopy.integrate_0_t(interval.lift(x, 2, dt=True))
    assert [type(c) for c in third.terms.values()] == [Fraction]
    assert third.terms == {(3, 0, next(iter(x.terms))): Fraction(1, 3)}


def test_intakes_store_whole_values_as_ints():
    alg = FreeCdga([("x", 2), ("y", 3)], {"y": {((0, 2),): Fraction(4, 2)}})
    key = ((0, 1),)
    for value, want in ((Fraction(6, 3), 2), (True, 1), (2.0, 2), (-3, -3)):
        stored = Element(alg, {key: value}).terms[key]
        assert stored == want and type(stored) is int
    half = Element(alg, {key: 0.5}).terms[key]
    assert half == Fraction(1, 2) and type(half) is Fraction
    assert (alg["x"] * Fraction(1, 2)) * 2 == alg["x"]
    assert type(alg.differential_of("y").terms[((0, 2),)]) is int
    assert_ints(alg.scalar(Fraction(-8, 4)))
    assert_ints(alg.unit())

    xy = FreeCdga([("x", 2), ("y", 2)])
    ring = RingPresentation([("x", 2), ("y", 2)],
                            [xy["x"] ** 2 * Fraction(3) - 6 * xy["y"] ** 2])
    reduction = ring._slice(4)[1]
    assert reduction == {((0, 2),): {((1, 2),): 2}}
    assert all(type(c) is int for row in reduction.values() for c in row.values())


def test_division_gives_exact_fractions():
    alg = verify.fixture_algebras()[2]
    x = verify.random_homogeneous(alg, random.Random(1), [3, 5, 8])
    half = x * Fraction(1, 2)
    assert all(type(c) in (int, Fraction) for c in half.terms.values())
    assert any(type(c) is Fraction for c in half.terms.values())
    assert half * 2 == x
    assert_ints(x * Fraction(2))
