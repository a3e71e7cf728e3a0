"""The draw contract of ``verify.random_homogeneous``, the element source of
the randomized batteries.

Each choice is one ``rng.random()`` call scaled as ``int(r * n)``: a degree
from the listed ones, 1 to 3 picks of a basis monomial plus an int from -4
to 4, up to 8 tries, then the unit.
"""

import hashlib
import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from rht import verify  # noqa: E402

ALGEBRAS = verify.fixture_algebras()
EXT4 = next(alg for alg in ALGEBRAS if alg.name == "Ext4")
SEEDS = st.integers(0, 2 ** 64)


class Scripted:
    """An rng whose ``random()`` returns the given values, then raises."""

    def __init__(self, values):
        self.random = iter(values).__next__


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(alg=st.sampled_from(ALGEBRAS), seed=SEEDS,
                  degrees=st.lists(st.integers(0, 14), min_size=1, max_size=6))
def test_draw_is_homogeneous_small_and_seeded(alg, seed, degrees):
    e = verify.random_homogeneous(alg, random.Random(seed), degrees)
    assert e == alg.unit() or (e.is_homogeneous() and e.degree in degrees)
    assert 1 <= len(e.terms) <= 3
    assert all(type(c) is int and 0 < abs(c) <= 12 for c in e.terms.values())
    again = verify.random_homogeneous(alg, random.Random(seed), degrees)
    assert again == e and repr(again) == repr(e)


@hypothesis.settings(max_examples=50, deadline=None)
@hypothesis.given(seed=SEEDS,
                  degrees=st.lists(st.integers(5, 30), min_size=1, max_size=6))
def test_no_basis_in_any_listed_degree_gives_the_unit(seed, degrees):
    assert verify.random_homogeneous(EXT4, random.Random(seed), degrees) == EXT4.unit()


def test_each_choice_is_one_scaled_random_call():
    basis = EXT4.basis(2)
    assert len(basis) == 6
    # degree [1, 2, 3][1]; 1 + 2 picks: basis[0] + 4, basis[3] + 0, basis[5] - 4
    rng = Scripted([0.5, 0.7, 0.0, 0.99, 0.5, 0.5, 0.99, 0.0])
    e = verify.random_homogeneous(EXT4, rng, [1, 2, 3])
    assert e == EXT4.element({basis[0]: 4, basis[5]: -4})


def test_empty_degrees_and_zero_sums_are_retried_eight_times():
    # try 1 draws degree 9 (no basis); try 2 draws degree 1 and one pick
    # whose coefficient is 0; tries 3 to 8 draw degree 9 again
    values = [0.0, 0.99, 0.0, 0.0, 0.5] + [0.0] * 6
    assert verify.random_homogeneous(EXT4, Scripted(values), [9, 1]) == EXT4.unit()
    with pytest.raises(StopIteration):
        verify.random_homogeneous(EXT4, Scripted(values[:-1]), [9, 1])


def test_seeded_draws_are_pinned():
    """The first 200 draws at the cdga-laws seed, 40 per fixture algebra;
    the CI smoke job pins the same digest on the oldest and newest
    supported interpreters."""
    rng = random.Random(0xC0F1)
    degrees = list(range(1, 13))
    draws = [repr(verify.random_homogeneous(alg, rng, degrees))
             for alg in verify.fixture_algebras() for _ in range(40)]
    assert hashlib.sha256("\n".join(draws).encode()).hexdigest() == (
        "f1688a6c4a07bcff794ce4011647c8c373edbd787fc860c98cff40fab49c1485")
