"""Ring presentations against their closed-form Hilbert series.

Each builder's dimension in degree k, ``len(ring.basis(k))``, comes from the
quotient basis that ``RingPresentation`` computes by elimination.  The
expected dimensions come from the Poincare polynomial of the space the ring
describes, and the expected Euler characteristic from the product and
connected-sum formulas (chi(M # N) = chi(M) + chi(N) - chi(S^m)), not from
the polynomial.
Parameters are small so that the whole module stays within a few seconds.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from rht.presentations import (projective_ring, sphere_ring,  # noqa: E402
                               wedge_of_spheres_ring)
from rht.scalability import connected_sum_ring, pi_ring, sigma_ring  # noqa: E402

SETTINGS = hypothesis.settings(max_examples=30, deadline=None)


def poincare(*terms):
    """{degree: dimension} summed from (degree, dimension) pairs."""
    out = {}
    for k, n in terms:
        out[k] = out.get(k, 0) + n
    return out


def sphere_chi(n):
    return 1 + (-1) ** n


def assert_series(ring, series, chi, top):
    """dim(k) matches ``series`` for 0 <= k <= top + 2 (zero above the
    top), and the alternating sum of the dimensions is ``chi``."""
    dims = [len(ring.basis(k)) for k in range(top + 3)]
    assert dims == [series.get(k, 0) for k in range(top + 3)]
    assert sum((-1) ** k * n for k, n in enumerate(dims)) == chi


@SETTINGS
@hypothesis.given(n=st.integers(1, 9))
def test_sphere(n):
    assert_series(sphere_ring(n), poincare((0, 1), (n, 1)), sphere_chi(n), n)


@SETTINGS
@hypothesis.given(d=st.sampled_from([2, 4, 6]), p=st.integers(1, 4))
def test_projective(d, p):
    assert_series(projective_ring(d, p),
                  poincare(*((d * i, 1) for i in range(p + 1))), p + 1, d * p)


@SETTINGS
@hypothesis.given(degrees=st.lists(st.integers(1, 6), min_size=1, max_size=4))
def test_wedge_of_spheres(degrees):
    # chi of a wedge: the summands' chi minus one per wedge point
    chi = sum(sphere_chi(d) for d in degrees) - (len(degrees) - 1)
    assert_series(wedge_of_spheres_ring(degrees),
                  poincare((0, 1), *((d, 1) for d in degrees)), chi,
                  max(degrees))


@SETTINGS
@hypothesis.given(n=st.sampled_from([2, 4]), r=st.integers(1, 4))
def test_sigma(n, r):
    assert_series(sigma_ring(n, r), poincare((0, 1), (n, r), (2 * n, 1)),
                  2 + r, 2 * n)


@SETTINGS
@hypothesis.given(n=st.integers(2, 4), r=st.integers(1, 3))
def test_pi(n, r):
    series = poincare((0, 1), *((2 * k, r) for k in range(1, n)), (2 * n, 1))
    assert_series(pi_ring(n, r), series, 2 + r * (n - 1), 2 * n)


@st.composite
def connected_sums(draw):
    """(atoms, orientations) of one fundamental degree m, 2 to 3 summands."""
    m = draw(st.integers(2, 6))
    kinds = [("sphere_product", n, m - n) for n in range(1, m)]
    kinds += [("projective", d, m // d) for d in (2, 4) if m % d == 0]
    atoms = draw(st.lists(st.sampled_from(kinds), min_size=2, max_size=3))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=len(atoms),
                          max_size=len(atoms)))
    return m, atoms, signs


def atom_series(atom):
    if atom[0] == "sphere_product":
        _kind, n, k = atom
        return poincare((0, 1), (n, 1), (k, 1), (n + k, 1))
    _kind, d, p = atom
    return poincare(*((d * i, 1) for i in range(p + 1)))


def atom_chi(atom):
    if atom[0] == "sphere_product":
        return sphere_chi(atom[1]) * sphere_chi(atom[2])
    return atom[2] + 1


@SETTINGS
@hypothesis.given(case=connected_sums())
def test_connected_sum(case):
    m, atoms, signs = case
    # each summand keeps its classes strictly between degrees 0 and m
    inner = [(k, n) for atom in atoms
             for k, n in atom_series(atom).items() if 0 < k < m]
    chi = sum(atom_chi(a) for a in atoms) - (len(atoms) - 1) * sphere_chi(m)
    assert_series(connected_sum_ring(atoms, signs),
                  poincare((0, 1), *inner, (m, 1)), chi, m)
