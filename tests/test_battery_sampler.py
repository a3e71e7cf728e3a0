"""The per-algebra sampler of the ``cdga-laws`` battery is
``random_homogeneous``, draw for draw.

``homogeneous_sampler(alg, degrees)`` keeps each degree's basis after its
first draw; ``random_homogeneous`` is one call of a fresh sampler.  Both must
give the same elements from the same rng state and leave the rng in the same
state, so the pinned 200-draw digest of ``random_homogeneous`` also pins what
``run_cdga_laws`` draws.
"""

import random

import pytest

from rht import verify

DEGREES = list(range(1, 13))


@pytest.mark.parametrize("seed", [0, 0xC0F1, 20261020])
def test_sampler_reproduces_random_homogeneous(seed):
    for alg, twin in zip(verify.fixture_algebras(), verify.fixture_algebras()):
        sample = verify.homogeneous_sampler(alg, DEGREES)
        rng, again = random.Random(seed), random.Random(seed)
        for _ in range(200):
            x = sample(rng)
            y = verify.random_homogeneous(twin, again, DEGREES)
            assert x.alg is alg and x.terms == y.terms and repr(x) == repr(y)
        assert rng.getstate() == again.getstate()


def test_cdga_laws_draws_the_random_homogeneous_sequence(monkeypatch):
    drawn = []
    good = verify.homogeneous_sampler

    def recording(alg, degrees):
        sample = good(alg, degrees)

        def draw(rng):
            e = sample(rng)
            drawn.append(repr(e))
            return e
        return draw

    monkeypatch.setattr(verify, "homogeneous_sampler", recording)
    assert verify.run_cdga_laws(iterations=25, seed=7).passed
    monkeypatch.undo()
    rng = random.Random(7)
    expected = [repr(verify.random_homogeneous(alg, rng, DEGREES))
                for alg in verify.fixture_algebras() for _ in range(50)]
    assert drawn == expected
