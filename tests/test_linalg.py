from fractions import Fraction

from rht import linalg

F = Fraction


def test_rref_small():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    red, pivots = linalg.rref(rows)
    assert pivots == [0, 1]
    assert red == [[F(1), F(0), F(1)], [F(0), F(1), F(1)]]


def test_rref_leaves_input_untouched():
    rows = [[F(1), F(2)], [F(3), F(4)]]
    linalg.rref(rows)
    assert rows == [[F(1), F(2)], [F(3), F(4)]]


def test_kernel_of_columns():
    # map (x, y, z) -> (x + z, y + z): kernel spanned by (1, 1, -1)... solve
    cols = [[F(1), F(0)], [F(0), F(1)], [F(1), F(1)]]
    ker = linalg.kernel_of_columns(cols, 2)
    assert len(ker) == 1
    x, y, z = ker[0]
    assert x + z == 0 and y + z == 0 and z == 1


def test_solve_columns_consistent_and_not():
    cols = [[F(1), F(0)], [F(1), F(1)]]
    sol = linalg.solve_columns(cols, 2, [F(3), F(2)])
    assert sol == [F(1), F(2)]
    cols = [[F(1), F(0)], [F(2), F(0)]]
    assert linalg.solve_columns(cols, 2, [F(0), F(1)]) is None


def test_reduce_against():
    red, piv = linalg.rref([[1, 0, 2], [0, 1, 3]])
    out = linalg.reduce_against([F(2), F(1), F(0)], red, piv)
    assert out == [F(0), F(0), F(-7)]


def test_symmetric_inertia_diagonal_and_hyperbolic():
    assert linalg.symmetric_inertia([[2, 0], [0, -3]]) == (1, 1, 0)
    # hyperbolic plane: zero diagonal, off-diagonal 1
    assert linalg.symmetric_inertia([[0, 1], [1, 0]]) == (1, 1, 0)
    assert linalg.symmetric_inertia([[0, 0], [0, 0]]) == (0, 0, 2)
    assert linalg.symmetric_inertia([[1, 1], [1, 1]]) == (1, 0, 1)


def test_rref_and_rank_of_empty_and_zero_inputs():
    for rows in ([], [[]], [[], []], [[0, 0], [F(0), 0]]):
        assert linalg.rref(rows) == ([], [])
        assert linalg.rank(rows) == 0
    assert linalg.reduce_against([0, 2], [], []) == [F(0), F(2)]


def test_kernel_of_columns_without_rows_or_columns():
    assert linalg.kernel_of_columns([], 3) == []
    cols = [[F(1), F(2)], [F(3), F(4)]]
    assert linalg.kernel_of_columns(cols, 0) == [[F(1), F(0)], [F(0), F(1)]]


def test_solve_columns_zero_target():
    cols = [[F(1), F(2)], [F(2), F(4)]]
    sol = linalg.solve_columns(cols, 2, [0, F(0)])
    assert sol == [F(0), F(0)] and all(type(x) is F for x in sol)
    assert linalg.solve_columns([], 2, [0, 0]) == []
    assert linalg.solve_columns([], 2, [0, 1]) is None


def test_kernel_and_solve_leave_inputs_untouched():
    cols = [[F(1), 0], [F(2), F(0)], [0, F(5)]]
    target = [F(3), 1]
    linalg.kernel_of_columns(cols, 2)
    linalg.solve_columns(cols, 2, target)
    assert cols == [[F(1), 0], [F(2), F(0)], [0, F(5)]]
    assert target == [F(3), 1]
    red, piv = linalg.rref([[1, 0, 2], [0, 1, 3]])
    vec = [F(2), 1, 0]
    linalg.reduce_against(vec, red, piv)
    assert vec == [F(2), 1, 0] and red == [[1, 0, 2], [0, 1, 3]]
