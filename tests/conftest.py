import random

import pytest

from rht import FreeCdga
from rht.verify import load_fixture, random_homogeneous  # noqa: F401


@pytest.fixture(scope="session")
def wedge_table() -> FreeCdga:
    """The literal ten-generator model fragment from the packaged fixture."""
    return load_fixture("wedge335_model.cdga")


@pytest.fixture(scope="session")
def s2_model_algebra() -> FreeCdga:
    return load_fixture("s2_model.cdga")


@pytest.fixture(scope="session")
def cp2_model_algebra() -> FreeCdga:
    return load_fixture("cp2_model.cdga")


@pytest.fixture
def rng():
    return random.Random(20260808)
