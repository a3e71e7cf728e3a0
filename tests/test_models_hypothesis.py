"""Property-based variant of the minimal/bigraded cross-route check."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from rht.models import bigraded_model, minimal_model  # noqa: E402
from rht.presentations import wedge_of_spheres_ring  # noqa: E402
from test_models import generators_per_degree  # noqa: E402

# at most two degree-2 spheres: a third makes the model too large to be quick
SPHERE_DEGREES = st.lists(st.integers(2, 6), min_size=1, max_size=3).filter(
    lambda degrees: degrees.count(2) <= 2)


@hypothesis.settings(max_examples=25, deadline=None)
@hypothesis.given(SPHERE_DEGREES)
def test_minimal_and_bigraded_models_agree_hypothesis(degrees):
    ring = wedge_of_spheres_ring(degrees)
    assert generators_per_degree(minimal_model(ring, 7)) == \
        generators_per_degree(bigraded_model(ring, 7))
