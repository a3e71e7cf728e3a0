"""Exact linear algebra over the rationals on sparse rows.

A sparse row is a dict ``{column: entry}`` that holds only nonzero entries,
in the coefficient domain of term dicts: an entry is an ``int`` exactly when
it is whole, otherwise a ``Fraction``.  The differential matrices of this
package are about 2 % nonzero, so one sparse elimination core does all the
row reduction: forward elimination takes the input rows sparsest first (the
Markowitz heuristic, Management Science 1957: a short row brings little fill
into the rows cleared against it; ties keep their input order) and reduces
each against the pivot rows found so far, pivoting on its leftmost nonzero
column; back-substitution then clears every pivot column above its pivot.
The order of the rows moves no output: the reduced row echelon form is
unique, and ``echelon``'s pivots are ``rref``'s, the rank profile of the
matrix.  The core accepts any rational entries and skips zero ones.

The core runs on integers, fraction-free (Bareiss, Math. Comp. 1968): each
input row is scaled to coprime integers; a column is cleared by
``b * v - a * prow``, with ``a / b`` the two entries' ratio in lowest terms,
and the new row is divided by the gcd of its entries; back-substitution
works the same way.  Each reduced row is divided by its pivot entry once, at
the end, forming a ``Fraction`` only for a quotient that is not whole.
Every integer row is a nonzero rational multiple of the row that Fraction
elimination would hold at the same step, so the same entries cancel and the
same pivots are found.  The gain is that one gcd per new row replaces the
gcd that every Fraction addition and product pays.

Pivoting is deterministic, and the reduced row echelon form of a matrix is
unique, so ``rref`` gives exactly the rows and pivots of any exact dense
elimination, entry for entry, by value; each row lists its entries by
column, so neither the order of the input rows nor that of their entries
reaches the output.  That is load-bearing: cohomology representatives and
golden reports depend on it.  ``reduce_against`` reduces one vector against
such rows and stores each whole result as an ``int``, so every row out
enters term dicts as it is.

``accumulate``, the package's one sparse add, adds a multiple of one sparse
row into another and drops what cancels; a term dict is a sparse row over
monomial keys, so products, differentials and integrals sum through it too.
``echelon``, ``rref``, ``rank``, ``reduce_against``, ``kernel_of_columns``
and ``solve_columns`` take and return sparse rows; ``echelon`` is the
forward elimination alone, for a caller that reads only pivots.  Column ids
fed to ``echelon``, ``rref`` or ``rank`` pick the pivots, so they must be
mutually orderable.  A matrix given by its columns (``kernel_of_columns``,
``solve_columns``) is a list of sparse columns ``{row id: entry}`` whose
row ids may be any hashable keys, such as the keys of a term dict: its rows
only ever pivot on column indices, and the reduced form is unique, so
kernels and solutions do not depend on the row ids or on the order of
entries.  ``symmetric_inertia``
works by congruence, not row reduction, and stays dense.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


# -- sparse core ---------------------------------------------------------------

_ONE = 1
_MINUS_ONE = -1


def accumulate(out, terms, c=_ONE):
    """Add ``c * terms`` into the sparse row ``out`` in place, dropping the
    entries that cancel; ``c`` and the values of ``terms`` are nonzero.

    A value that is the shared sign ``_ONE`` or ``_MINUS_ONE``, as most values
    of ``mul_keys`` and ``d_key`` are, becomes ``c`` or ``-c`` without the
    multiplication, which costs gcds when ``c`` is a ``Fraction``.
    """
    for k, x in terms.items():
        if c is not _ONE:
            x = c if x is _ONE else -c if x is _MINUS_ONE else x * c
        v = out.get(k)
        if v is None:
            out[k] = x
        elif v := v + x:
            out[k] = v
        else:
            del out[k]


def _divide_content(v):
    """Divide the nonempty integer row ``v`` in place by the gcd of its entries."""
    g = gcd(*v.values())
    if g != 1:
        for c in v:
            v[c] //= g


def _integers(row):
    """Copy of a rational sparse row, without zero entries, scaled to
    coprime integers."""
    v = {c: x for c, x in row.items() if x}
    if v:
        if any(type(x) is not int for x in v.values()):
            den = lcm(*[x.denominator for x in v.values()])
            v = {c: x.numerator * (den // x.denominator) for c, x in v.items()}
        _divide_content(v)
    return v


def _clear(v, p, prow):
    """Clear column ``p`` of the integer row ``v`` in place, against the
    integer row ``prow`` that pivots there.

    v becomes (b * v - a * prow) / content, with a / b = v[p] / prow[p] in
    lowest terms: a rational multiple of ``v - (v[p] / prow[p]) * prow``, so
    the same entries cancel as in Fraction elimination.
    """
    a, b = v[p], prow[p]
    g = gcd(a, b)
    if g != 1:
        a //= g
        b //= g
    if b != 1:
        for c in v:
            v[c] *= b
    accumulate(v, prow, -a)
    if v:
        _divide_content(v)


def echelon(rows):
    """Forward elimination: {pivot column: integer row with its leading
    nonzero entry there}.

    The rows are taken sparsest first, ties in input order.  Whatever the
    order, the pivot columns are those of ``rref`` on the same rows (the
    rank profile, which the reduced form fixes), and the number of pivots is
    the rank; the rows are not reduced above their pivots, so which row
    holds a pivot may depend on the order.
    """
    piv = {}
    for row in sorted(rows, key=len):
        v = _integers(row)
        while v:
            lead = min(v)
            prow = piv.get(lead)
            if prow is None:
                piv[lead] = v
                break
            _clear(v, lead, prow)
    return piv


def _reduced(piv):
    """Back-substitution on an echelon form: (rows, pivot columns), each row
    an exact row with a one at its pivot and its entries in column order."""
    pivots = sorted(piv)
    for p in reversed(pivots):
        row = piv[p]
        for c in [c for c in row if c != p and c in piv]:
            _clear(row, c, piv[c])
    rows = []
    for p in pivots:
        items = sorted(piv[p].items())
        lead = piv[p][p]
        rows.append(dict(items) if lead == 1 else
                    {c: x // lead if x % lead == 0 else Fraction(x, lead)
                     for c, x in items})
    return rows, pivots


def _transpose(cols):
    """Sparse rows of the matrix whose sparse columns are ``cols``."""
    rows = {}
    for j, col in enumerate(cols):
        for i, x in col.items():
            rows.setdefault(i, {})[j] = x
    return rows


# -- public API ------------------------------------------------------------------

def rref(rows):
    """Reduced row echelon form of a list of sparse rows.

    Returns (reduced_rows, pivot_columns) with zero rows dropped.  The input
    is not modified.
    """
    return _reduced(echelon(rows))


def reduce_against(vec, red_rows, pivots):
    """Eliminate the pivot coordinates of sparse ``vec`` against reduced
    rows; a whole entry of the result is an ``int``."""
    v = {c: x for c, x in vec.items() if x}
    for row, p in zip(red_rows, pivots):
        f = v.get(p)
        if f:
            accumulate(v, row, -f)
    for c, x in v.items():
        if type(x) is not int and x.denominator == 1:
            v[c] = x.numerator
    return v


def rank(rows):
    return len(echelon(rows))


def kernel_of_columns(cols):
    """Kernel basis of the map whose sparse matrix columns are ``cols``.

    One sparse vector over the column indices per free column, ordered by
    free column index ascending.
    """
    red, pivots = _reduced(echelon(_transpose(cols).values()))
    pivot_set = set(pivots)
    basis = {f: {f: 1} for f in range(len(cols)) if f not in pivot_set}
    for row, p in zip(red, pivots):
        for f, x in row.items():
            if f != p:
                basis[f][p] = -x
    return list(basis.values())


def solve_columns(cols, target):
    """Solve sum_j x_j * cols[j] = target with free variables set to zero.

    ``cols`` and ``target`` are sparse columns.  Returns the sparse solution
    {j: x_j}, in ascending j, or None when the system is inconsistent.
    """
    ncols = len(cols)
    rows = _transpose(cols)
    for i, t in target.items():
        if t:
            rows.setdefault(i, {})[ncols] = t
    red, pivots = _reduced(echelon(rows.values()))
    if pivots and pivots[-1] == ncols:
        return None
    return {p: row[ncols] for row, p in zip(red, pivots) if ncols in row}


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
