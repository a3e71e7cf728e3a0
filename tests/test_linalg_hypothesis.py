"""Property-based variant of the sparse/dense cross-route check."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from test_linalg_routes import assert_routes_agree  # noqa: E402

# mostly zeros; nonzero entries mix ints and Fractions
ENTRY = st.one_of(st.just(0), st.just(0), st.just(Fraction(0)),
                  st.integers(-3, 3),
                  st.fractions(min_value=-3, max_value=3, max_denominator=4))


@st.composite
def matrices(draw):
    nrows = draw(st.integers(0, 7))
    ncols = draw(st.integers(0, 8))
    row = st.lists(ENTRY, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, min_size=nrows, max_size=nrows))
    if rows:
        repeats = draw(st.lists(st.integers(0, len(rows) - 1), max_size=3))
        rows += [list(rows[i]) for i in repeats]
    vec = draw(st.lists(ENTRY, min_size=ncols, max_size=ncols))
    target = draw(st.lists(ENTRY, min_size=len(rows), max_size=len(rows)))
    return rows, ncols, vec, target


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(matrices())
def test_routes_agree_hypothesis(case):
    rows, ncols, vec, target = case
    assert_routes_agree(rows, ncols, [vec], [target])
