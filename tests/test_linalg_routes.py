"""The sparse elimination engine against the dense oracle, entry for entry.

Inputs go in as dict rows with their explicit zeros, and outputs come back
through ``dense_linalg.dense``, which rejects stored zeros and any entry that
is not an ``int`` exactly when whole.  They are compared by ``repr`` with the
oracle's outputs, which follow the same rule, so a whole ``Fraction``, a
non-whole value stored as an ``int`` (or a differently ordered pivot list)
fails as surely as a wrong value.
"""

import random
from fractions import Fraction

import pytest

import dense_linalg as dense
from dense_linalg import sparse
from rht import linalg
from rht.cohomology import DegreeCohomology

F = Fraction


def same(a, b):
    return repr(a) == repr(b)


def assert_routes_agree(rows, ncols, vecs, targets):
    """rref, rank, reduce_against, kernel_of_columns and solve_columns agree
    with the dense oracle on one matrix."""
    red, piv = dense.rref(rows)
    srows = [sparse(r) for r in rows]
    got, got_piv = linalg.rref(srows)
    assert same(([dense.dense(r, ncols) for r in got], got_piv), (red, piv))
    assert linalg.rank(srows) == len(piv)
    for vec in vecs:
        assert same(dense.dense(linalg.reduce_against(sparse(vec), got, got_piv),
                                ncols),
                    dense.reduce_against(vec, red, piv))
    nrows = len(rows)
    cols = [[row[j] for row in rows] for j in range(ncols)]
    scols = [sparse(c) for c in cols]
    assert same([dense.dense(v, ncols) for v in linalg.kernel_of_columns(scols)],
                dense.kernel_of_columns(cols, nrows))
    for target in targets:
        sol = linalg.solve_columns(scols, sparse(target))
        assert same(sol if sol is None else dense.dense(sol, ncols),
                    dense.solve_columns(cols, nrows, target))


def random_entry(rng, density):
    if rng.random() >= density:
        return rng.choice((0, F(0)))
    if rng.random() < 0.5:
        return rng.choice((-2, -1, 1, 1, 2, 3))
    return F(rng.randint(-5, 5), rng.randint(1, 4))


def random_matrix(rng):
    """A sparse matrix with mixed int/Fraction entries and repeated rows."""
    nrows, ncols = rng.randint(0, 9), rng.randint(0, 11)
    density = rng.choice((0.1, 0.25, 0.5))
    rows = [[random_entry(rng, density) for _ in range(ncols)]
            for _ in range(nrows)]
    for _ in range(rng.randint(0, 3)):
        if not rows:
            break
        a, b = rng.choice(rows), rng.choice(rows)
        f = rng.choice((1, -1, 2, F(1, 3)))
        rows.insert(rng.randrange(len(rows) + 1),
                    rng.choice((list(a), [x + f * y for x, y in zip(a, b)])))
    return rows, ncols


def test_routes_agree_on_random_sparse_matrices():
    rng = random.Random(20261017)
    for _ in range(300):
        rows, ncols = random_matrix(rng)
        vecs = [[random_entry(rng, 0.4) for _ in range(ncols)]
                for _ in range(3)] + [list(r) for r in rows[:2]]
        x = [rng.randint(-2, 2) for _ in range(ncols)]
        consistent = [sum((a * b for a, b in zip(r, x)), F(0)) for r in rows]
        targets = [[random_entry(rng, 0.4) for _ in rows], consistent,
                   [0] * len(rows)]
        assert_routes_agree(rows, ncols, vecs, targets)


@pytest.mark.parametrize("fixture, cap", [("s2_model_algebra", 12),
                                          ("cp2_model_algebra", 12),
                                          ("wedge_table", 20)])
def test_degree_cohomology_matches_dense_recomputation(request, fixture, cap):
    alg = request.getfixturevalue(fixture)
    for k in range(cap + 1):
        dc = DegreeCohomology(alg, k)
        n = len(dc.keys)
        reps, rpiv, brows, bpiv = dense.degree_cohomology(alg, k)
        assert same([dense.dense(r, n) for r in dc.rep_rows], reps)
        assert same(dc.representatives(),
                    [{key: c for key, c in zip(dc.keys, r) if c} for r in reps])
        assert dc.rep_pivots == rpiv and dc.rank == len(reps)
        assert same([dense.dense(r, n) for r in dc.boundary_rows], brows)
        assert dc.boundary_pivots == bpiv
        probes = [list(r) for r in reps]
        probes += [[a + 2 * b for a, b in zip(r, br)]
                   for r in reps for br in brows[:3]]
        probes += [[F(int(i == j)) for i in range(len(dc.keys))]
                   for j in range(len(dc.keys))]
        for vec in probes:
            terms = {key: c for key, c in zip(dc.keys, vec) if c}
            want = dense.class_coords(vec, reps, rpiv, brows, bpiv)
            if want is None:
                with pytest.raises(ValueError, match="not a cocycle"):
                    dc.class_coords(terms)
            else:
                assert same(dense.dense(dc.class_coords(terms), dc.rank), want)
            assert dc.is_exact(terms) == (not any(
                dense.reduce_against(vec, brows, bpiv)))
