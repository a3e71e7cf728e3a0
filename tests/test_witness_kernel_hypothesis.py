"""Property-based variant of the witness-kernel-vs-oracle check."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from rht import exterior_algebra  # noqa: E402
from rht.scalability import omega_ring, pi_ring, sigma_ring  # noqa: E402
from test_scalability import (check_kernel_against_oracle,  # noqa: E402
                              random_candidate)

CASES = [(sigma_ring(2, 4), exterior_algebra(4)),
         (pi_ring(3, 2), exterior_algebra(6)),
         (omega_ring(2, 2), exterior_algebra(4))]
COEFF = st.sampled_from([Fraction(c) for c in (-2, -1, 1, 2)])


@st.composite
def candidates(draw):
    ring, ext = draw(st.sampled_from(CASES))

    def choose(basis):
        mons = draw(st.lists(st.sampled_from(basis), max_size=4, unique=True))
        return [(mon, draw(COEFF)) for mon in mons]

    return ring, random_candidate(ring, ext, choose)


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(candidates())
def test_kernel_matches_oracle_hypothesis(case):
    ring, witness = case
    check_kernel_against_oracle(ring, witness)
