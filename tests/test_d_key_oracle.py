"""``FreeCdga.d_key`` against the per-factor Leibniz expansion.

``d_key`` takes one Leibniz step on the first factor of a monomial and reads
d of the rest from its table, filling the suffixes it lacks shortest first.
The oracle here expands every factor instead,

    d(f_1 ... f_n) = sum over j of (-1)^(|f_1 ... f_(j-1)|)
                     * f_1 ... f_(j-1) * d(f_j) * f_(j+1) ... f_n,

with d(x^e) = e * x^(e-1) * dx, and keeps no table, so the two agree only
if the suffix step, its sign and its factor e are right, whatever the table
held when ``d_key`` was called.
"""

import random
from fractions import Fraction

import pytest

from coefficients import is_coefficient
from rht import verify
from rht.cdga import FreeCdga


def _add(out, k, v):
    v = out.get(k, 0) + v
    if v:
        out[k] = v
    else:
        out.pop(k, None)


def leibniz_d_key(alg, mon):
    """d of the monomial ``mon`` of ``alg``, one factor at a time, from the
    generator differentials and ``mul_keys`` alone."""
    out = {}
    prefix_deg = 0
    for pos, (i, e) in enumerate(mon):
        dgen = alg._diff.get(i)
        if dgen:
            left = mon[:pos] + (((i, e - 1),) if e > 1 else ())
            right = mon[pos + 1:]
            coeff = e if prefix_deg % 2 == 0 else -e
            for dm, dc in dgen.items():
                for k1, c1 in alg.mul_keys(left, dm).items():
                    for k2, c2 in alg.mul_keys(k1, right).items():
                        _add(out, k2, coeff * dc * c1 * c2)
        prefix_deg += alg.key_degree(((i, 1),)) * e
    return out


def _whole(alg):
    """True when every generator differential has int coefficients, so
    every coefficient of d is an int."""
    return all(type(c) is int for terms in alg._diff.values()
               for c in terms.values())


def assert_matches_oracle(alg, monomials):
    whole = _whole(alg)
    for mon in monomials:
        got = alg.d_key(mon)
        assert got == leibniz_d_key(alg, mon), (alg.name, mon)
        assert all(is_coefficient(c) for c in got.values()), got
        if whole:
            assert all(type(c) is int for c in got.values()), got


def _basis_through(alg, top):
    return [mon for n in range(top + 1) for mon in alg.basis(n)]


# the names of verify.fixture_algebras(), written out so that collecting
# this module builds no algebra
FIXTURE_NAMES = ["s2_model", "cp2_model", "wedge335_model", "Ext4",
                 "mixed_even_odd"]


@pytest.mark.parametrize("index", range(len(FIXTURE_NAMES)),
                         ids=FIXTURE_NAMES)
@pytest.mark.parametrize("order", ["ascending", "descending"])
def test_d_key_matches_oracle_on_fixture_bases(index, order):
    """Every basis monomial through degree 10: in ascending degree most
    suffixes are already in the table, in descending degree few are."""
    alg = verify.fixture_algebras()[index]
    assert alg.name == FIXTURE_NAMES[index]
    monomials = _basis_through(alg, 10)
    if order == "descending":
        monomials.reverse()
    assert_matches_oracle(alg, monomials)


def _closed_terms(alg, rnd, closed, degree):
    """A random closed term dict of ``degree``: products of the closed
    generators ``closed`` plus d of a random element one degree down."""
    out = {}
    products = [mon for mon in alg.basis(degree)
                if all(i in closed for i, _e in mon)]
    for mon in rnd.sample(products, min(len(products), 2)):
        _add(out, mon, rnd.choice([1, -1, 2, Fraction(1, 2)]))
    down = alg.basis(degree - 1)
    for mon in rnd.sample(down, min(len(down), 2)):
        f = rnd.choice([1, -3])
        for k, c in alg.d_key(mon).items():
            _add(out, k, f * c)
    return out


def random_chain(rnd, steps=3):
    """A FreeCdga grown by ``steps`` calls of ``extend`` from closed
    generators of degrees 1, 1 and 2, each step appending one to three
    generators with random closed differentials (zero where none is found):
    the first of degree step + 1, the others of degree 1 to 4.  Before each
    step some random ``d_key`` entries of the parent are filled, so that
    each extension starts from a partial table."""
    alg = FreeCdga([("a", 1), ("b", 1), ("x", 2)], name="chain")
    closed = {0, 1, 2}
    for step in range(steps):
        gens, diff = [], {}
        for j in range(rnd.randint(1, 3)):
            name = f"g{step}_{j}"
            degree = step + 1 if j == 0 else rnd.choice([1, 1, 2, 2, 3, 4])
            gens.append((name, degree))
            terms = _closed_terms(alg, rnd, closed, degree + 1)
            if terms:
                diff[name] = terms
            else:
                closed.add(len(alg.gens) + j)
        known = _basis_through(alg, 7)
        for mon in rnd.sample(known, len(known) // 3):
            alg.d_key(mon)
        alg = alg.extend(gens, diff)
    return alg


@pytest.mark.parametrize("seed", range(12))
def test_d_key_matches_oracle_on_random_extend_chains(seed):
    rnd = random.Random(seed)
    alg = random_chain(rnd)
    monomials = _basis_through(alg, 8)
    rnd.shuffle(monomials)
    assert_matches_oracle(alg, monomials)
    # the chains hold the cases that a wrong sign or factor e would show
    assert any(alg._diff.get(i) for i, deg in enumerate(alg._degrees)
               if deg == 1)
    assert any(e > 1 and alg._diff.get(i) for mon in monomials
               for i, e in mon)


def test_d_key_of_a_long_monomial_stays_within_the_recursion_limit():
    """A monomial of 1,200 odd degree-1 generators (and the closed x): every
    suffix is filled in one call, more of them than the default recursion
    limit of 1,000 frames."""
    n = 1200
    gens = [("x", 2), ("u", 1), ("w", 1)] + [(f"t{j}", 1) for j in range(n)]
    x, uw = ((0, 1),), ((1, 1), (2, 1))
    diff = {"t0": {x: 1}, "t1": {uw: 3}, "t7": {x: -1},
            "t20": {uw: Fraction(1, 2)}}
    alg = FreeCdga(gens, diff, name="long")
    mon = x + tuple((3 + j, 1) for j in range(n))
    got = alg.d_key(mon)
    assert got == leibniz_d_key(alg, mon)
    assert len(got) == 4
    assert mon[1:] in alg._d_cache
