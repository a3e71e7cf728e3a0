"""Element arithmetic against the plain-loop oracle in ``element_oracle``.

The algebra stores each coefficient as a nonzero int or Fraction (a whole
value from an intake as an int) and keeps that invariant without re-checking
it; these tests check the invariant, the values (term for term against the
oracle) and that no result aliases an operand's term dict.  The call-count
test guards the product and differential lookups that the benchmark tracer
counts.
"""

import random
from fractions import Fraction

import pytest

import element_oracle as oracle
from coefficients import is_coefficient
from rht import homotopy, verify
from rht.cdga import Element, FreeCdga, TruncatedCdga
from rht.presentations import RingPresentation
from rht.scalability import (ExteriorAlgebra, connected_sum_ring,
                             exterior_algebra)

SCALARS = (0, 1, -1, Fraction(3, 2))


def build_algebras():
    """Every fixture algebra, a truncation, a quotient ring and Lambda R^6."""
    fixtures = verify.fixture_algebras()
    return fixtures + [
        TruncatedCdga(fixtures[2], 9),
        connected_sum_ring([("sphere_product", 2, 2)] * 2
                           + [("projective", 2, 2)]),
        exterior_algebra(6),
    ]


ALGEBRA_NAMES = [alg.name for alg in build_algebras()]


def random_elements(alg, rng, count):
    """Homogeneous elements, plus mixed-degree sums and Fraction multiples."""
    degrees = list(range(0, 13))
    out = []
    for _ in range(count):
        x = verify.random_homogeneous(alg, rng, degrees)
        if rng.random() < 0.3:
            x = x + verify.random_homogeneous(alg, rng, degrees)
        if rng.random() < 0.3:
            x = x * Fraction(rng.randint(1, 5), rng.randint(2, 7))
        out.append(x)
    return out


def assert_clean(e, *operands):
    assert isinstance(e, Element)
    for c in e.terms.values():
        assert is_coefficient(c)
    for op in operands:
        assert e.terms is not op.terms


def assert_matches(e, terms, *operands):
    assert_clean(e, *operands)
    assert e.terms == terms


def check_ring_ops(alg, x, y):
    assert_matches(x + y, oracle.add(x.terms, y.terms), x, y)
    assert_matches(x - y, oracle.add(x.terms, oracle.neg(y.terms)), x, y)
    assert_matches(-x, oracle.neg(x.terms), x)
    assert_matches(x + alg.zero(), x.terms, x)
    assert_matches(x - x, {}, x)
    for c in SCALARS:
        assert_matches(x * c, oracle.scale(x.terms, c), x)
        assert_matches(c * x, oracle.scale(x.terms, c), x)
    assert_matches(x * y, oracle.mul(alg, x.terms, y.terms), x, y)
    assert_matches(x.d(), oracle.d(alg, x.terms), x)


def random_interval_element(alg, rng, elems, *, max_t=5):
    """A sum of lifts c (x) t^i, a third of them times dt."""
    interval = homotopy.interval_algebra(alg)
    u = interval.zero()
    for _ in range(rng.randint(1, 4)):
        u = u + interval.lift(rng.choice(elems), rng.randint(0, max_t),
                              dt=rng.random() < 0.34)
    return u


def check_integrals(alg, rng, elems):
    """One lift without dt and one to three with it, so the integrals
    have a dt part to act on."""
    interval = homotopy.interval_algebra(alg)
    u = interval.lift(rng.choice(elems), rng.randint(0, 4))
    for _ in range(rng.randint(1, 3)):
        u = u + interval.lift(rng.choice(elems), rng.randint(0, 5), dt=True)
    got = homotopy.integrate_0_t(u)
    assert_clean(got, u)
    assert oracle.split(got) == oracle.integrate_0_t(alg, oracle.split(u))
    assert_matches(homotopy.integrate_0_1(u),
                   oracle.integrate_0_1(alg, oracle.split(u)), u)


@pytest.mark.parametrize("index", range(len(ALGEBRA_NAMES)), ids=ALGEBRA_NAMES)
def test_arithmetic_matches_oracle(index):
    alg = build_algebras()[index]
    rng = random.Random(4000 + index)
    elems = random_elements(alg, rng, 40)
    for x in elems:
        assert_clean(x)
    for _ in range(150):
        check_ring_ops(alg, rng.choice(elems), rng.choice(elems))
    for _ in range(40):
        check_integrals(alg, rng, elems)


INTERVAL_BASES = {
    "free": lambda: verify.fixture_algebras()[4],
    "truncated": lambda: TruncatedCdga(verify.fixture_algebras()[2], 9),
}


@pytest.mark.parametrize("base", sorted(INTERVAL_BASES))
def test_interval_arithmetic_matches_oracle(base):
    """Products and differentials in B (x) Q<t, dt> agree
    with the two-part rules of the oracle, over a free and a truncated B."""
    alg = INTERVAL_BASES[base]()
    rng = random.Random(6000 + len(base))
    elems = random_elements(alg, rng, 30)
    for _ in range(120):
        u = random_interval_element(alg, rng, elems)
        v = random_interval_element(alg, rng, elems)
        pu, pv = oracle.split(u), oracle.split(v)
        for got, want in ((u * v, oracle.interval_mul(alg, pu, pv)),
                          (u.d(), oracle.interval_d(alg, pu))):
            assert_clean(got, u, v)
            assert oracle.split(got) == want


def test_public_constructor_still_normalises():
    alg = verify.fixture_algebras()[0]
    key = alg.basis(2)[0]
    terms = {key: 3, (): 0}
    e = Element(alg, terms)
    assert e.terms == {key: Fraction(3)}
    assert type(e.terms[key]) is int
    assert e.terms is not terms
    terms[key] = 5
    assert e.terms == {key: Fraction(3)}
    assert Element(alg, None).terms == {}


def count_calls(monkeypatch, classes):
    counts = {"mul_keys": 0, "d_key": 0}
    for cls in classes:
        for name in counts:
            original = getattr(cls, name)

            def counted(self, *args, _original=original, _name=name):
                counts[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(cls, name, counted)
    return counts


@pytest.mark.parametrize("index", range(len(ALGEBRA_NAMES)), ids=ALGEBRA_NAMES)
def test_products_and_differentials_call_the_counted_lookups(index, monkeypatch):
    """Element.__mul__ and Element.d() go through mul_keys and d_key, as
    often as the oracle does, so the tracer's counters keep meaning."""
    counts = count_calls(monkeypatch, (FreeCdga, TruncatedCdga, RingPresentation,
                                       ExteriorAlgebra))
    runs = []
    for side in ("oracle", "algebra"):
        alg = build_algebras()[index]  # fresh product and differential caches
        elems = random_elements(alg, random.Random(5000 + index), 30)
        pairs = list(zip(elems, reversed(elems)))
        counts.update(mul_keys=0, d_key=0)
        for x, y in pairs:
            if side == "oracle":
                oracle.mul(alg, x.terms, y.terms)
                oracle.d(alg, x.terms)
            else:
                x * y
                x.d()
        runs.append(dict(counts))
    assert runs[0]["mul_keys"] > 0 and runs[0]["d_key"] > 0
    assert runs[1] == runs[0]
