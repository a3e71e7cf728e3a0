"""Scalar products, differences and cached interval differentials against
the plain-loop oracle in ``element_oracle``.

``Element.__mul__`` handles a scalar of 1, -1, 0 or any other value on its
own path, on either side of the element, and ``x - y`` subtracts in place;
each result is checked term for term, for its coefficient types and for
not sharing a term dict with an operand.  ``IntervalAlgebra.d_key`` keeps
one table per interval algebra, which is one per base.
"""

import random
from fractions import Fraction

import pytest

import element_oracle as oracle
from coefficients import is_coefficient, is_exact_coefficient
from rht import homotopy, verify
from rht.cdga import FreeCdga
from test_element_arithmetic import (build_algebras, random_elements,
                                     random_interval_element)

SCALARS = (0, 1, -1, 3, -2, True, False, Fraction(3, 2), Fraction(-1, 3),
           Fraction(4, 2), Fraction(1), Fraction(-1), Fraction(0))
ALGEBRAS = build_algebras()


def whole(c):
    return type(c) is not Fraction or c.denominator == 1


def all_ints(*elements):
    return all(type(c) is int for e in elements for c in e.terms.values())


def check_result(got, want, exact, *operands):
    """``got`` has the oracle's terms, clean coefficients (an int exactly
    when whole if ``exact``) and a term dict of its own."""
    assert got.terms == want
    check = is_exact_coefficient if exact else is_coefficient
    assert all(check(c) for c in got.terms.values())
    assert all(got.terms is not op.terms for op in operands)


def check_paths(x, y):
    before = (dict(x.terms), dict(y.terms))
    for c in SCALARS:
        want = oracle.scale(x.terms, c)
        exact = all_ints(x) and whole(c)
        check_result(x * c, want, exact, x)
        check_result(c * x, want, exact, x)
    check_result(x - y, oracle.add(x.terms, oracle.neg(y.terms)),
                 all_ints(x, y), x, y)
    check_result(x - x, {}, True, x)
    assert (x.terms, y.terms) == before


def operand_pairs(alg, seed, count):
    rng = random.Random(seed)
    elems = random_elements(alg, rng, 30)
    return [(rng.choice(elems), rng.choice(elems)) for _ in range(count)]


@pytest.mark.parametrize("index", range(len(ALGEBRAS)),
                         ids=[alg.name for alg in ALGEBRAS])
def test_scalar_products_and_differences_match_oracle(index):
    alg = ALGEBRAS[index]
    for x, y in operand_pairs(alg, 7000 + index, 60):
        check_paths(x, y)


@pytest.mark.parametrize("index", [2, 4, 5], ids=lambda i: ALGEBRAS[i].name)
def test_interval_scalar_products_and_differences_match_oracle(index):
    alg = ALGEBRAS[index]
    rng = random.Random(7100 + index)
    elems = random_elements(alg, rng, 20)
    for _ in range(40):
        check_paths(random_interval_element(alg, rng, elems),
                    random_interval_element(alg, rng, elems))


def test_mismatched_operands_are_refused():
    a, b = verify.fixture_algebras()[:2]
    x, y = a.unit(), b.unit()
    for op in (lambda: x * y, lambda: x - y):
        with pytest.raises(ValueError, match="different algebras"):
            op()
    for op in (lambda: x * 1.5, lambda: 1.5 * x, lambda: x - 1, lambda: x * "2"):
        with pytest.raises(TypeError):
            op()


def interval_keys(alg, seed):
    rng = random.Random(seed)
    elems = random_elements(alg, rng, 20)
    keys = set()
    for _ in range(30):
        keys.update(random_interval_element(alg, rng, elems).terms)
    return sorted(keys, key=homotopy.interval_algebra(alg).key_sort_token)


@pytest.mark.parametrize("index", [2, 4, 5], ids=lambda i: ALGEBRAS[i].name)
def test_cached_interval_differential_equals_a_fresh_one(index):
    alg = build_algebras()[index]
    interval = homotopy.interval_algebra(alg)
    keys = interval_keys(alg, 7200 + index)
    first = [dict(interval.d_key(k)) for k in keys]
    fresh = homotopy.IntervalAlgebra(alg)
    assert [interval.d_key(k) for k in keys] == first
    assert [fresh.d_key(k) for k in keys] == first
    for k, dk in zip(keys, first):
        want = oracle.interval_d(alg, oracle.split(interval.element({k: 1})))
        assert oracle.split(interval.element(dk)) == want


def test_two_bases_do_not_share_an_interval_cache():
    """Equal keys over bases with different differentials keep their own
    d_key, and an extension gets an interval algebra of its own."""
    gens = [("x", 2), ("y", 3)]
    closed = FreeCdga(gens, name="closed")
    sphere = FreeCdga(gens, {"y": {((0, 2),): 1}}, name="sphere")
    t_y = (1, 0, ((1, 1),))
    dt_y = {(0, 1, ((1, 1),)): -1}
    assert homotopy.interval_algebra(closed).d_key(t_y) == dt_y
    assert homotopy.interval_algebra(sphere).d_key(t_y) == {
        (1, 0, ((0, 2),)): 1, **dt_y}
    assert homotopy.interval_algebra(closed).d_key(t_y) == dt_y

    extended = closed.extend([("z", 3)], {"z": {((0, 2),): 1}})
    interval = homotopy.interval_algebra(extended)
    assert interval.base is extended
    assert interval is not homotopy.interval_algebra(closed)
    assert interval.lift(extended["z"], 1).d() == interval.element(
        {(1, 0, ((0, 2),)): 1, (0, 1, ((2, 1),)): -1})
