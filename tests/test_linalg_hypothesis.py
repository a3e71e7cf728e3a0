"""Property-based variant of the sparse/dense cross-route check, and the
contract that results do not depend on how rows and columns are labelled."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

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


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(matrices(), st.randoms(use_true_random=False))
def test_rank_does_not_depend_on_column_ids(case, rnd):
    rows, ncols, _vec, _target = case
    perm = list(range(ncols))
    rnd.shuffle(perm)
    relabelled = [{(perm[j], "c"): x for j, x in enumerate(row)} for row in rows]
    assert linalg.rank(relabelled) == linalg.rank([sparse(r) for r in rows])
