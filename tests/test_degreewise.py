"""The degreewise linear-algebra helpers of ``rht.cohomology``.

``primitive`` is checked by differentiating what it returns, and against
``DegreeCohomology.is_exact``; ``cycles_mod_boundaries`` against the dense
oracle's kernel, RREF and reduction composed by hand.
"""

import random
from fractions import Fraction

import pytest

import dense_linalg as dense
from dense_linalg import sparse
from rht.cdga import Element
from rht.cohomology import (DegreeCohomology, coords, cycles_mod_boundaries,
                            d_columns, primitive)
from rht.verify import fixture_algebras, random_homogeneous
from test_linalg_routes import random_entry, random_matrix, same

DEGREES = range(0, 10)


@pytest.fixture(scope="module")
def algebras():
    return fixture_algebras()


def test_coords_places_each_term_at_its_position():
    pos = {"a": 0, "b": 1, "c": 2}
    assert coords({"c": Fraction(2), "a": Fraction(-1)}, pos) == {2: 2, 0: -1}
    assert coords({}, pos) == {}
    with pytest.raises(KeyError):
        coords({"z": Fraction(1)}, pos)


def test_d_columns_are_the_differential_over_the_upper_basis(algebras):
    for alg in algebras:
        for k in DEGREES:
            up = alg.basis(k + 1)
            for key, col in zip(alg.basis(k), d_columns(alg, alg.basis(k), up)):
                assert Element(alg, {up[i]: c for i, c in col.items()}) == (
                    Element(alg, alg.d_key(key)))


def test_primitive_of_a_boundary_differentiates_back(algebras):
    rng = random.Random(20261018)
    for alg in algebras:
        for _ in range(40):
            x = random_homogeneous(alg, rng, list(DEGREES))
            dx = x.d()
            y = primitive(alg, dx.terms, x.degree + 1)
            assert y is not None, (alg.name, x)
            assert Element(alg, y).d() == dx
            assert all(alg.key_degree(k) == x.degree for k in y)


def test_primitive_is_none_exactly_when_not_exact(algebras):
    rng = random.Random(20261019)
    for alg in algebras:
        for k in range(1, 10):
            dc = DegreeCohomology(alg, k)
            down = alg.basis(k - 1)
            candidates = dc.representatives()
            candidates += [alg.d_key(key) for key in down]
            for rep in list(candidates[:dc.rank]):
                if down:
                    b = alg.d_key(down[rng.randrange(len(down))])
                    candidates.append((Element(alg, rep) + Element(alg, b)).terms)
            for terms in candidates:
                y = primitive(alg, terms, k)
                assert (y is None) == (not dc.is_exact(terms)), (alg.name, k)
                if y is not None:
                    assert Element(alg, y).d() == Element(alg, terms)


def test_primitive_over_restricted_keys():
    alg = fixture_algebras()[0]     # s2_model: d b = a^2
    a2 = (alg["a"] * alg["a"]).terms
    assert Element(alg, primitive(alg, a2, 4)) == alg["b"]
    assert primitive(alg, a2, 4, keys=[]) is None
    assert primitive(alg, {}, 4, keys=[]) == {}


def oracle_cycles_mod_boundaries(cols, nrows, boundary_rows):
    brows, bpiv = dense.rref(boundary_rows)
    reduced = [dense.reduce_against(v, brows, bpiv)
               for v in dense.kernel_of_columns(cols, nrows)]
    reps, rpiv = dense.rref(reduced)
    return brows, bpiv, reps, rpiv


def dense_cycles_mod_boundaries(cols, boundary_rows, ncols):
    """``cycles_mod_boundaries`` with its row sets made dense."""
    brows, bpiv, reps, rpiv = cycles_mod_boundaries(cols, boundary_rows)
    return ([dense.dense(r, ncols) for r in brows], bpiv,
            [dense.dense(r, ncols) for r in reps], rpiv)


def test_cycles_mod_boundaries_matches_the_dense_oracle_on_random_input():
    """Random maps, with boundary rows drawn partly from the kernel (as real
    boundaries are) and partly at random."""
    rng = random.Random(20261020)
    for _ in range(200):
        rows, ncols = random_matrix(rng)
        cols = [[row[j] for row in rows] for j in range(ncols)]
        kernel = dense.kernel_of_columns(cols, len(rows))
        boundary_rows = [[random_entry(rng, 0.3) for _ in range(ncols)]
                         for _ in range(rng.randint(0, 2))]
        for _ in range(rng.randint(0, 3) if kernel else 0):
            f, g = rng.choice((1, -2, Fraction(1, 3))), rng.randint(-1, 1)
            a, b = rng.choice(kernel), rng.choice(kernel)
            boundary_rows.append([f * x + g * y for x, y in zip(a, b)])
        rng.shuffle(boundary_rows)
        assert same(dense_cycles_mod_boundaries(
            [sparse(c) for c in cols], [sparse(r) for r in boundary_rows],
            ncols), oracle_cycles_mod_boundaries(cols, len(rows), boundary_rows))


def test_cycles_mod_boundaries_matches_the_oracle_degree_cohomology(algebras):
    for alg in algebras:
        for k in DEGREES:
            keys, up = alg.basis(k), alg.basis(k + 1)
            down = alg.basis(k - 1) if k > 0 else ()
            ours = dense_cycles_mod_boundaries(d_columns(alg, keys, up),
                                               d_columns(alg, down, keys),
                                               len(keys))
            reps, rpiv, brows, bpiv = dense.degree_cohomology(alg, k)
            assert same(ours, (brows, bpiv, reps, rpiv)), (alg.name, k)
