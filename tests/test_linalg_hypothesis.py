"""Property-based variant of the sparse/dense cross-route check, and the
contract that results do not depend on how rows and columns are labelled
or ordered."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

import dense_linalg as dense  # noqa: E402
from coefficients import is_exact_coefficient  # noqa: E402
from dense_linalg import sparse  # noqa: E402
from rht import linalg  # noqa: E402
from test_linalg_routes import assert_routes_agree  # noqa: E402

# mostly zeros; nonzero entries mix ints and Fractions
ENTRY = st.one_of(st.just(0), st.just(0), st.just(Fraction(0)),
                  st.integers(-3, 3),
                  st.fractions(min_value=-3, max_value=3, max_denominator=4))

# large numerators and denominators, so that the integer elimination core's
# entries grow and its gcd and content reductions are exercised
BIG_ENTRY = st.one_of(st.just(0), st.just(0),
                      st.integers(-10 ** 6, 10 ** 6),
                      st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                                   max_denominator=10 ** 3))


@st.composite
def matrices(draw, entry=ENTRY):
    nrows = draw(st.integers(0, 7))
    ncols = draw(st.integers(0, 8))
    row = st.lists(entry, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, min_size=nrows, max_size=nrows))
    if rows:
        repeats = draw(st.lists(st.integers(0, len(rows) - 1), max_size=3))
        rows += [list(rows[i]) for i in repeats]
    vec = draw(st.lists(entry, min_size=ncols, max_size=ncols))
    target = draw(st.lists(entry, min_size=len(rows), max_size=len(rows)))
    return rows, ncols, vec, target


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(matrices())
def test_routes_agree_hypothesis(case):
    rows, ncols, vec, target = case
    assert_routes_agree(rows, ncols, [vec], [target])


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(matrices(BIG_ENTRY))
def test_routes_agree_on_large_entries(case):
    rows, ncols, vec, target = case
    assert_routes_agree(rows, ncols, [vec], [target])


def _values(row, n):
    """Dense values of a sparse row, with no check on the entries' types."""
    return [row.get(j, 0) for j in range(n)]


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(matrices())
def test_returned_entries_are_exact_and_match_the_oracle(case):
    """Every entry that rref, reduce_against, kernel_of_columns and
    solve_columns return is an int exactly when whole, and equals the dense
    oracle's by value."""
    rows, ncols, vec, target = case
    red, piv = linalg.rref([sparse(r) for r in rows])
    reduced = linalg.reduce_against(sparse(vec), red, piv)
    cols = [[row[j] for row in rows] for j in range(ncols)]
    kernel = linalg.kernel_of_columns([sparse(c) for c in cols])
    sol = linalg.solve_columns([sparse(c) for c in cols], sparse(target))
    for row in red + [reduced] + kernel + ([] if sol is None else [sol]):
        assert all(is_exact_coefficient(x) for x in row.values()), row
    want_red, want_piv = dense.rref(rows)
    assert ([_values(r, ncols) for r in red], piv) == (want_red, want_piv)
    assert _values(reduced, ncols) == dense.reduce_against(vec, want_red,
                                                           want_piv)
    assert [_values(v, ncols) for v in kernel] == \
        dense.kernel_of_columns(cols, len(rows))
    want_sol = dense.solve_columns(cols, len(rows), target)
    assert (sol is None) == (want_sol is None)
    if sol is not None:
        assert _values(sol, ncols) == want_sol


def _row_label(i):
    """Injective tuple labels that are not mutually orderable: ("r", 0) and
    (1, "r") cannot be compared, so no ordering of row ids can be used."""
    return ("r", i) if i % 2 == 0 else (i, "r")


def _relabelled(col, label, rnd):
    """``col`` with row ids relabelled and entries inserted in shuffled order."""
    items = [(label[i], x) for i, x in col.items()]
    rnd.shuffle(items)
    return dict(items)


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(matrices(), st.randoms(use_true_random=False))
def test_results_do_not_depend_on_row_ids(case, rnd):
    """kernel_of_columns and solve_columns pivot on column ids alone, so
    term dicts keyed by monomials can go in as they are."""
    rows, ncols, _vec, target = case
    perm = list(range(len(rows)))
    rnd.shuffle(perm)
    label = {i: _row_label(perm[i]) for i in range(len(rows))}
    cols = [sparse([row[j] for row in rows]) for j in range(ncols)]
    relabelled = [_relabelled(c, label, rnd) for c in cols]
    # repr also compares the order of the vectors and of their entries
    assert repr(linalg.kernel_of_columns(relabelled)) == \
        repr(linalg.kernel_of_columns(cols))
    assert repr(linalg.solve_columns(
        relabelled, _relabelled(sparse(target), label, rnd))) == \
        repr(linalg.solve_columns(cols, sparse(target)))


ZERO_ROW = st.sampled_from([{}, {0: 0}, {1: Fraction(0), 0: 0}])


@st.composite
def row_lists(draw):
    """Sparse rows of a drawn matrix, some with their explicit zeros and
    some without, so that they differ in length, plus zero rows; the drawn
    matrices repeat some rows and mix ints with Fractions."""
    rows, _ncols, _vec, _target = draw(matrices())
    out = [sparse(r) if draw(st.booleans()) else
           {j: x for j, x in enumerate(r) if x} for r in rows]
    return out + draw(st.lists(ZERO_ROW, max_size=3))


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(row_lists(), st.randoms(use_true_random=False))
def test_results_do_not_depend_on_row_order(rows, rnd):
    """echelon takes its rows sparsest first, ties in input order; any
    other order of the rows, or of their entries, gives the same reduced
    rows (repr compares their entries' order and types), pivots and rank."""
    shuffled = [_relabelled(row, {j: j for j in row}, rnd) for row in rows]
    rnd.shuffle(shuffled)
    red, piv = linalg.rref(rows)
    assert repr(linalg.rref(shuffled)) == repr((red, piv))
    assert set(linalg.echelon(shuffled)) == set(linalg.echelon(rows)) \
        == set(piv)
    assert linalg.rank(shuffled) == linalg.rank(rows) == len(piv)


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(matrices(), st.randoms(use_true_random=False))
def test_rank_does_not_depend_on_column_ids(case, rnd):
    rows, ncols, _vec, _target = case
    perm = list(range(ncols))
    rnd.shuffle(perm)
    relabelled = [{(perm[j], "c"): x for j, x in enumerate(row)} for row in rows]
    assert linalg.rank(relabelled) == linalg.rank([sparse(r) for r in rows])


# -- the one sparse add ---------------------------------------------------------

NONZERO = st.one_of(st.integers(-3, 3),
                    st.fractions(min_value=-3, max_value=3,
                                 max_denominator=4)).filter(bool)

# c = 1 adds values as they are; -1, another int and a Fraction that is not
# whole scale them, with no multiplication where a value is the sign 1 or -1
MULTIPLIER = st.one_of(st.just(1), st.just(-1),
                       st.integers(-5, 5).filter(lambda c: abs(c) > 1),
                       st.fractions(min_value=-5, max_value=5,
                                    max_denominator=6).filter(
                           lambda c: c.denominator != 1))


@st.composite
def accumulations(draw):
    """(out, terms, c) over a few keys, where some entries of ``terms`` are
    drawn to cancel the entries of ``out`` exactly."""
    keys = st.integers(0, 6)
    out = draw(st.dictionaries(keys, NONZERO, max_size=6))
    terms = draw(st.dictionaries(keys, NONZERO, max_size=6))
    c = draw(MULTIPLIER)
    for k in draw(st.sets(st.sampled_from(sorted(out)))) if out else ():
        x = -Fraction(out[k]) / c
        terms[k] = x.numerator if x.denominator == 1 else x
    return out, terms, c


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(accumulations())
def test_accumulate_matches_adding_from_zero(case):
    out, terms, c = case
    sums = {}
    for row, f in ((out, 1), (terms, c)):
        for k, x in row.items():
            sums[k] = sums.get(k, 0) + f * x
    expected = {k: x for k, x in sums.items() if x}
    whole = {k for k in expected
             if type(out.get(k, 0)) is int and type(terms.get(k, 0)) is int}
    linalg.accumulate(out, terms, c)
    assert out == expected
    assert all(out.values())
    if type(c) is int:
        assert all(type(out[k]) is int for k in whole), out
