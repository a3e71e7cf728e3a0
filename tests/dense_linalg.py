"""Dense Gaussian elimination over the rationals: a test-only oracle.

This is plain row reduction on lists of Fractions, with the same pivoting
rule as ``rht.linalg`` (leftmost nonzero column, rows scanned top down).
Every vector it returns is mapped through ``exact``, the engine's rule that
an entry is an ``int`` exactly when it is whole, so the sparse engine must
agree with it exactly, in value and in type; ``sparse`` and ``dense`` carry
vectors between the two.
"""

from fractions import Fraction

from coefficients import is_exact_coefficient

ZERO = Fraction(0)
ONE = Fraction(1)


def exact(vec):
    """``vec`` with each whole entry, zero included, as an ``int``."""
    return [x.numerator if x.denominator == 1 else x for x in vec]


def sparse(vec):
    """Dict row of a dense vector.  Explicit zeros are kept, so the engine's
    skipping of zero entries is exercised along the way."""
    return dict(enumerate(vec))


def dense(row, n):
    """Dense vector of length ``n`` of a sparse row that the engine returned.

    Such a row must hold only nonzero coefficients inside ``range(n)``, each
    an ``int`` exactly when whole; its zeros are filled in as the int 0.
    """
    assert all(is_exact_coefficient(x) for x in row.values()), row
    out = [0] * n
    for c, x in row.items():
        out[c] = x
    return out


def rref(rows):
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        hit = None
        for i in range(r, len(m)):
            if m[i][c]:
                hit = i
                break
        if hit is None:
            continue
        m[r], m[hit] = m[hit], m[r]
        inv = ONE / m[r][c]
        m[r] = [x * inv for x in m[r]]
        piv = m[r]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], piv)]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return [exact(row) for row in m[:r]], pivots


def reduce_against(vec, red_rows, pivots):
    v = [Fraction(x) for x in vec]
    for row, p in zip(red_rows, pivots):
        if v[p]:
            f = v[p]
            v = [a - f * b for a, b in zip(v, row)]
    return exact(v)


def kernel_of_columns(cols, nrows):
    ncols = len(cols)
    rows = [[cols[j][i] for j in range(ncols)] for i in range(nrows)]
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    out = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = [ZERO] * ncols
        v[f] = ONE
        for row, p in zip(red, pivots):
            v[p] = -row[f]
        out.append(exact(v))
    return out


def solve_columns(cols, nrows, target):
    ncols = len(cols)
    rows = [[cols[j][i] for j in range(ncols)] + [Fraction(target[i])]
            for i in range(nrows)]
    red, pivots = rref(rows)
    x = [ZERO] * ncols
    for row, p in zip(red, pivots):
        if p == ncols:
            return None
        x[p] = row[ncols]
    return exact(x)


def degree_cohomology(alg, degree):
    """(rep_rows, rep_pivots, boundary_rows, boundary_pivots) of one degree,
    by the dense route: kernel of d, reduced against the boundaries."""
    keys = list(alg.basis(degree))
    pos = {k: i for i, k in enumerate(keys)}
    up = list(alg.basis(degree + 1))
    up_pos = {k: i for i, k in enumerate(up)}
    cols = []
    for key in keys:
        col = [ZERO] * len(up)
        for k, c in alg.d_key(key).items():
            col[up_pos[k]] += c
        cols.append(col)
    img_rows = []
    for key in (alg.basis(degree - 1) if degree > 0 else ()):
        row = [ZERO] * len(keys)
        for k, c in alg.d_key(key).items():
            row[pos[k]] += c
        img_rows.append(row)
    brows, bpiv = rref(img_rows)
    reduced = [reduce_against(v, brows, bpiv)
               for v in kernel_of_columns(cols, len(up))]
    reps, rpiv = rref(reduced)
    return reps, rpiv, brows, bpiv


def class_coords(vec, reps, rpiv, brows, bpiv):
    """Class coordinates of a dense cocycle vector, or None if not closed."""
    reduced = reduce_against(vec, brows, bpiv)
    coords = [ZERO] * len(reps)
    for i, (row, p) in enumerate(zip(reps, rpiv)):
        if reduced[p]:
            f = reduced[p]
            coords[i] = f
            reduced = [a - f * b for a, b in zip(reduced, row)]
    return None if any(reduced) else exact(coords)
