"""Euler-Poincare: ranks from sparse elimination against closed-form
chain dimensions.

Truncating a free CDGA above a top degree leaves a finite complex, so the
alternating sum of the ranks of its cohomology equals the alternating sum of
the dimensions of its chain groups.  The ranks come from exact elimination in
``DegreeCohomology``; the dimensions from ``FreeCdga.basis_sizes``, a
generating function that enumerates nothing.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from rht.cdga import TruncatedCdga  # noqa: E402
from rht.cohomology import DegreeCohomology  # noqa: E402
from rht.verify import fixture_algebras  # noqa: E402

ALGEBRAS = fixture_algebras()


@pytest.mark.parametrize("index", range(len(ALGEBRAS)),
                         ids=[alg.name for alg in ALGEBRAS])
@hypothesis.settings(max_examples=15, deadline=None)
@hypothesis.given(top=st.integers(0, 10))
def test_euler_characteristic_of_truncations(index, top):
    base = ALGEBRAS[index]
    trunc = TruncatedCdga(base, top)
    from_ranks = sum((-1) ** k * DegreeCohomology(trunc, k).rank
                     for k in range(top + 1))
    from_dims = sum((-1) ** k * n for k, n in enumerate(base.basis_sizes(top)))
    assert from_ranks == from_dims
