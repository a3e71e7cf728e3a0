from fractions import Fraction
from math import comb

from rht import linalg

F = Fraction


def test_rref_small():
    rows = [{0: 1, 1: 2, 2: 3}, {0: 2, 1: 4, 2: 6}, {1: 1, 2: 1}]
    red, pivots = linalg.rref(rows)
    assert pivots == [0, 1]
    assert red == [{0: F(1), 2: F(1)}, {1: F(1), 2: F(1)}]


def test_rref_leaves_input_untouched():
    rows = [{0: F(1), 1: F(2)}, {0: F(3), 1: F(4)}]
    linalg.rref(rows)
    assert rows == [{0: F(1), 1: F(2)}, {0: F(3), 1: F(4)}]


def test_kernel_of_columns():
    # map (x, y, z) -> (x + z, y + z): kernel spanned by (1, 1, -1)... solve
    cols = [{0: F(1)}, {1: F(1)}, {0: F(1), 1: F(1)}]
    ker = linalg.kernel_of_columns(cols)
    assert len(ker) == 1
    x, y, z = (ker[0].get(j, 0) for j in range(3))
    assert x + z == 0 and y + z == 0 and z == 1


def test_solve_columns_consistent_and_not():
    cols = [{0: F(1)}, {0: F(1), 1: F(1)}]
    sol = linalg.solve_columns(cols, {0: F(3), 1: F(2)})
    assert sol == {0: F(1), 1: F(2)}
    cols = [{0: F(1)}, {0: F(2)}]
    assert linalg.solve_columns(cols, {1: F(1)}) is None


def test_solve_columns_target_in_a_row_no_column_touches():
    """A nonzero target entry in a row outside every column's support makes
    the system inconsistent, however far past the columns' rows it sits."""
    cols = [{0: F(1)}, {0: F(2), 1: F(1)}]
    assert linalg.solve_columns(cols, {0: F(1)}) == {0: F(1)}
    assert linalg.solve_columns(cols, {0: F(1), 2: F(3)}) is None
    assert linalg.solve_columns(cols, {0: F(1), 50: 1}) is None
    assert linalg.solve_columns(cols, {0: F(1), 50: 0}) == {0: F(1)}
    assert linalg.solve_columns([], {7: F(-1)}) is None


def test_reduce_against():
    red, piv = linalg.rref([{0: 1, 2: 2}, {1: 1, 2: 3}])
    out = linalg.reduce_against({0: F(2), 1: F(1)}, red, piv)
    assert out == {2: F(-7)}


def test_reduce_against_returns_a_whole_result_as_an_int():
    """Fraction arithmetic can leave a whole value; it comes back as an int,
    as does a whole Fraction that no row touches."""
    out = linalg.reduce_against({0: F(1, 2), 1: 1}, [{0: 1, 1: 4}], [0])
    assert repr(out) == repr({1: -1})
    out = linalg.reduce_against({0: F(1, 2), 1: F(3), 2: F(1, 3)},
                                [{0: 1, 1: F(2, 3)}], [0])
    assert repr(out) == repr({1: F(8, 3), 2: F(1, 3)})
    assert repr(linalg.reduce_against({5: F(6, 3)}, [], [])) == repr({5: 2})


def test_rref_rows_are_ints_when_whole():
    red, piv = linalg.rref([{0: 2, 1: 4}, {0: 3, 1: 1}])
    assert (repr(red), piv) == (repr([{0: 1}, {1: 1}]), [0, 1])
    red, piv = linalg.rref([{0: F(3, 2), 1: F(1, 2)}])
    assert repr(red) == repr([{0: 1, 1: F(1, 3)}])
    red, piv = linalg.rref([{1: -2, 2: 4, 3: 3}])
    assert repr(red) == repr([{1: 1, 2: -2, 3: F(-3, 2)}])
    kernel = linalg.kernel_of_columns([{0: 1}, {0: 2}])
    assert kernel == [{0: -2, 1: 1}]
    assert all(type(x) is int for x in kernel[0].values())
    assert repr(linalg.solve_columns([{0: 2}, {1: 3}], {0: 4, 1: 1})) == \
        repr({0: 2, 1: F(1, 3)})


def test_symmetric_inertia_diagonal_and_hyperbolic():
    assert linalg.symmetric_inertia([[2, 0], [0, -3]]) == (1, 1, 0)
    # hyperbolic plane: zero diagonal, off-diagonal 1
    assert linalg.symmetric_inertia([[0, 1], [1, 0]]) == (1, 1, 0)
    assert linalg.symmetric_inertia([[0, 0], [0, 0]]) == (0, 0, 2)
    assert linalg.symmetric_inertia([[1, 1], [1, 1]]) == (1, 0, 1)


def test_rref_and_rank_of_empty_and_zero_inputs():
    for rows in ([], [{}], [{}, {}], [{0: 0, 1: 0}, {0: F(0), 1: 0}]):
        assert linalg.rref(rows) == ([], [])
        assert linalg.rank(rows) == 0
    out = linalg.reduce_against({0: 0, 1: 2}, [], [])
    assert out == {1: 2} and type(out[1]) is int


def test_kernel_of_columns_without_rows_or_columns():
    assert linalg.kernel_of_columns([]) == []
    assert linalg.kernel_of_columns([{}, {}]) == [{0: F(1)}, {1: F(1)}]
    assert linalg.kernel_of_columns([{0: 0}, {3: F(0)}]) == [{0: F(1)},
                                                             {1: F(1)}]


def test_solve_columns_zero_target():
    cols = [{0: F(1), 1: F(2)}, {0: F(2), 1: F(4)}]
    assert linalg.solve_columns(cols, {0: 0, 1: F(0)}) == {}
    assert linalg.solve_columns(cols, {}) == {}
    assert linalg.solve_columns([], {0: 0, 1: 0}) == {}
    assert linalg.solve_columns([], {0: 0, 1: 1}) is None


def test_kernel_and_solve_leave_inputs_untouched():
    cols = [{0: F(1), 1: 0}, {0: F(2), 1: F(0)}, {1: F(5)}]
    target = {0: F(3), 1: 1}
    linalg.kernel_of_columns(cols)
    linalg.solve_columns(cols, target)
    assert cols == [{0: F(1), 1: 0}, {0: F(2), 1: F(0)}, {1: F(5)}]
    assert target == {0: F(3), 1: 1}
    red, piv = linalg.rref([{0: 1, 2: 2}, {1: 1, 2: 3}])
    vec = {0: F(2), 1: 1, 2: 0}
    linalg.reduce_against(vec, red, piv)
    assert vec == {0: F(2), 1: 1, 2: 0}
    assert red == [{0: 1, 2: 2}, {1: 1, 2: 3}]


def test_solve_columns_inverts_the_hilbert_matrix():
    """The 8x8 Hilbert matrix 1/(i+j+1) is badly conditioned and its inverse
    has large integer entries, so elimination entries grow on the way."""
    n = 8
    cols = [{i: F(1, i + j + 1) for i in range(n)} for j in range(n)]
    inverse = [linalg.solve_columns(cols, {i: 1}) for i in range(n)]
    assert [inverse[0][j] for j in range(n)] == \
        [64, -2016, 20160, -92400, 221760, -288288, 192192, -51480]
    for i in range(n):
        for j in range(n):
            # closed form of the inverse's entries, indices from 1
            a, b = i + 1, j + 1
            known = ((-1) ** (a + b) * (a + b - 1) * comb(n + a - 1, n - b)
                     * comb(n + b - 1, n - a) * comb(a + b - 2, a - 1) ** 2)
            assert inverse[i][j] == known
            assert type(inverse[i][j]) is int
