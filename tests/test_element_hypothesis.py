"""Property-based variant of the Element-vs-oracle check."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from test_element_arithmetic import build_algebras, check_ring_ops  # noqa: E402

ALGEBRAS = build_algebras()
COEFF = st.one_of(st.integers(-4, 4),
                  st.fractions(min_value=-3, max_value=3, max_denominator=5))


@st.composite
def element_pairs(draw):
    alg = draw(st.sampled_from(ALGEBRAS))

    def element():
        terms = {}
        for _ in range(draw(st.integers(0, 4))):
            basis = alg.basis(draw(st.integers(0, 12)))
            if basis:
                mon = basis[draw(st.integers(0, len(basis) - 1))]
                terms[mon] = terms.get(mon, 0) + draw(COEFF)
        return alg.element(terms)

    return alg, element(), element()


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(element_pairs())
def test_arithmetic_matches_oracle_hypothesis(case):
    alg, x, y = case
    check_ring_ops(alg, x, y)
    check_ring_ops(alg, x * Fraction(2, 3), y + x)
