"""Exact linear algebra over the rationals on sparse rows.

A sparse row is a dict ``{column: Fraction}`` that holds only nonzero
entries.  The differential matrices of this package are about 2 % nonzero,
so one sparse elimination core does all the row reduction: forward
elimination takes the input rows top down and reduces each against the pivot
rows found so far, pivoting on its leftmost nonzero column; back-substitution
then clears every pivot column above its pivot.  The core accepts any
rational entries and returns Fractions only.

Pivoting is deterministic, and the reduced row echelon form of a matrix is
unique, so ``rref`` gives exactly the rows and pivots of any exact dense
elimination, entry for entry.  That is load-bearing: cohomology
representatives and golden reports depend on it.

``rref``, ``rank``, ``reduce_against``, ``kernel_of_columns`` and
``solve_columns`` take and return dense lists and are thin wrappers over the
core: they convert to sparse rows on the way in and back on the way out.
``symmetric_inertia`` works by congruence, not row reduction, and stays
dense.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


# -- sparse core ---------------------------------------------------------------

def _subtract(v, f, row):
    """v -= f * row in place, dropping entries that cancel."""
    for c, x in row.items():
        y = v.get(c)
        if y is None:
            v[c] = -f * x
        else:
            y -= f * x
            if y:
                v[c] = y
            else:
                del v[c]


def _fractions(pairs):
    """Sparse row of the nonzero (column, entry) pairs, as Fractions."""
    return {c: x if type(x) is Fraction else Fraction(x) for c, x in pairs if x}


def _echelon(rows):
    """Forward elimination: {pivot column: row with a leading one there}."""
    piv = {}
    for row in rows:
        v = _fractions(row.items())
        while v:
            lead = min(v)
            prow = piv.get(lead)
            if prow is None:
                a = v[lead]
                if a != 1:
                    inv = ONE / a
                    v = {c: x * inv for c, x in v.items()}
                piv[lead] = v
                break
            _subtract(v, v[lead], prow)
    return piv


def sparse_rref(rows):
    """Reduced row echelon form of sparse rows: (rows, pivot columns).

    Zero rows are dropped; the input is not modified.
    """
    piv = _echelon(rows)
    pivots = sorted(piv)
    for p in reversed(pivots):
        row = piv[p]
        for c in [c for c in row if c != p and c in piv]:
            _subtract(row, row[c], piv[c])
    return [piv[p] for p in pivots], pivots


def _sparse(vec):
    return _fractions(enumerate(vec))


def _dense(row, ncols):
    out = [ZERO] * ncols
    for c, x in row.items():
        out[c] = x
    return out


def _transpose(cols, nrows):
    rows = [{} for _ in range(nrows)]
    for j, col in enumerate(cols):
        for i, x in zip(range(nrows), col):
            if x:
                rows[i][j] = x
    return rows


# -- dense wrappers --------------------------------------------------------------

def rref(rows):
    """Reduced row echelon form.

    Returns (reduced_rows, pivot_columns) with zero rows dropped.  The input
    is not modified.
    """
    rows = list(rows)
    ncols = len(rows[0]) if rows else 0
    red, pivots = sparse_rref(_sparse(r) for r in rows)
    return [_dense(r, ncols) for r in red], pivots


def reduce_against(vec, red_rows, pivots):
    """Eliminate the pivot coordinates of ``vec`` against reduced rows."""
    v = _sparse(vec)
    for row, p in zip(red_rows, pivots):
        f = v.get(p)
        if f:
            _subtract(v, f, _sparse(row))
    return _dense(v, len(vec))


def rank(rows):
    return len(_echelon(_sparse(r) for r in rows))


def kernel_of_columns(cols, nrows):
    """Kernel basis of the map whose matrix columns are ``cols``.

    Vectors have length len(cols), one per free column, ordered by free
    column index ascending.
    """
    ncols = len(cols)
    red, pivots = sparse_rref(_transpose(cols, nrows))
    pivot_set = set(pivots)
    basis = {f: [ZERO] * ncols for f in range(ncols) if f not in pivot_set}
    for f, vec in basis.items():
        vec[f] = ONE
    for row, p in zip(red, pivots):
        for f, x in row.items():
            if f != p:
                basis[f][p] = -x
    return list(basis.values())


def solve_columns(cols, nrows, target):
    """Solve sum_j x_j * cols[j] = target with free variables set to zero.

    Returns the coefficient list, or None when the system is inconsistent.
    """
    ncols = len(cols)
    rows = _transpose(cols, nrows)
    for row, t in zip(rows, target):
        if t:
            row[ncols] = t
    red, pivots = sparse_rref(rows)
    if pivots and pivots[-1] == ncols:
        return None
    x = [ZERO] * ncols
    for row, p in zip(red, pivots):
        x[p] = row.get(ncols, ZERO)
    return x


def symmetric_inertia(mat):
    """Sylvester inertia (positive, negative, zero) of a symmetric matrix.

    Exact congruence diagonalization; when the active block has a zero
    diagonal, a row+column addition manufactures a nonzero pivot.
    """
    n = len(mat)
    m = [[Fraction(x) for x in row] for row in mat]
    pos = neg = 0
    k = 0
    while k < n:
        piv = next((i for i in range(k, n) if m[i][i]), None)
        if piv is None:
            off = next(((i, j) for i in range(k, n) for j in range(i + 1, n)
                        if m[i][j]), None)
            if off is None:
                break
            i, j = off
            for c in range(n):
                m[i][c] += m[j][c]
            for r in range(n):
                m[r][i] += m[r][j]
            piv = i
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            for r in range(n):
                m[r][k], m[r][piv] = m[r][piv], m[r][k]
        d = m[k][k]
        if d > 0:
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            if m[i][k]:
                f = m[i][k] / d
                for c in range(n):
                    m[i][c] -= f * m[k][c]
                for r in range(n):
                    m[r][i] -= f * m[r][k]
        k += 1
    return pos, neg, n - pos - neg
