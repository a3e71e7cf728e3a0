"""The generator interface that every algebra derives from its key primitives.

``GradedAlgebra`` defines ``alg[name]``, ``degree_of``, ``differential_of``
and ``generator_names`` once, from ``gens``, ``gen_key`` and the key
primitives.  The oracles below are the per-class definitions these replace,
written out by hand; on every algebra the derived methods must agree with
them, and an unknown name must raise ``KeyError``.
"""

from fractions import Fraction

import pytest

from rht.cdga import Element, FreeCdga, TruncatedCdga
from rht.models import CellAttachmentModel, attach_cell_model
from rht.presentations import RingPresentation
from rht.scalability import connected_sum_ring
from rht.verify import load_fixture

_ONE = Fraction(1)


# -- oracles: one set of definitions per algebra class -----------------------


def free_item(alg, name):
    return Element(alg, {((alg.index[name], 1),): _ONE})


def free_degree(alg, name):
    return alg.gens[alg.index[name]].degree


def free_differential(alg, name):
    return Element(alg, alg._diff.get(alg.index[name], {}))


def free_names(alg):
    return tuple(g.name for g in alg.gens)


def truncated_item(alg, name):
    if free_degree(alg.base, name) > alg.top:
        return alg.zero()
    return Element(alg, {alg.base.gen_key(name): _ONE})


def truncated_differential(alg, name):
    e = free_differential(alg.base, name)
    return Element(alg, {k: c for k, c in e.terms.items()
                         if alg.base.key_degree(k) <= alg.top})


def ring_item(alg, name):
    return Element(alg, alg.reduce_terms({alg.base.gen_key(name): _ONE}))


def ring_differential(alg, name):
    return Element(alg, {})


def cell_item(alg, name):
    if name == alg.cell_name:
        return Element(alg, {alg.cell_name: _ONE})
    return Element(alg, {alg.base.gen_key(name): _ONE})


def cell_degree(alg, name):
    if name == alg.cell_name:
        return alg.cell_degree
    return free_degree(alg.base, name)


def cell_differential(alg, name):
    if name == alg.cell_name:
        return alg.zero()
    return Element(alg, alg.d_key(alg.base.gen_key(name)))


def oracle(alg):
    """(item, degree_of, differential_of, generator_names) for ``alg``."""
    if isinstance(alg, FreeCdga):
        return free_item, free_degree, free_differential, free_names
    base_degree = lambda a, name: free_degree(a.base, name)  # noqa: E731
    base_names = lambda a: free_names(a.base)  # noqa: E731
    if isinstance(alg, TruncatedCdga):
        return truncated_item, base_degree, truncated_differential, base_names
    if isinstance(alg, RingPresentation):
        return ring_item, base_degree, ring_differential, base_names
    if isinstance(alg, CellAttachmentModel):
        # the cell is reached by name but is not one of the base's gens
        return cell_item, cell_degree, cell_differential, base_names
    raise TypeError(type(alg).__name__)


# -- the algebras --------------------------------------------------------------


def _linear_ring():
    A = FreeCdga([("x", 2), ("y", 2)])
    return RingPresentation([("x", 2), ("y", 2)], [A["x"] - A["y"]],
                            name="diagonal")


def _cell():
    B = FreeCdga.define([("x", 2), ("v", 3)], d=lambda X: {"v": X["x"] ** 2},
                        name="B")
    return attach_cell_model(B, {"v": 2})


ALGEBRAS = {
    "free": lambda: load_fixture("wedge335_model.cdga"),
    # w_b and above lie over the top; d(u_c) and d(v_b) are cut off
    "truncated": lambda: TruncatedCdga(load_fixture("wedge335_model.cdga"), 7),
    "ring": lambda: load_fixture("wedge335.ring"),
    # a generator that is not a basis element: alg[name] reduces it
    "ring_linear": _linear_ring,
    "connected_sum": lambda: connected_sum_ring(
        [("sphere_product", 2, 2), ("projective", 2, 2)], [1, -1]),
    "cell": _cell,
}


@pytest.mark.parametrize("kind", sorted(ALGEBRAS))
def test_generator_interface_matches_oracle(kind):
    alg = ALGEBRAS[kind]()
    item, degree_of, differential_of, generator_names = oracle(alg)
    names = list(generator_names(alg))
    if kind == "cell":
        names.append(alg.cell_name)
    assert names
    assert alg.generator_names() == generator_names(alg)
    for name in names:
        assert alg[name] == item(alg, name), name
        assert alg.degree_of(name) == degree_of(alg, name), name
        assert alg.differential_of(name) == differential_of(alg, name), name
    if kind == "truncated":
        assert alg["w_b"] == 0 and alg.differential_of("u_c") == 0
        assert alg.base.differential_of("u_c") != 0
    if kind == "ring_linear":
        assert alg["x"] == alg["y"] and alg.basis(2) == (alg.base.gen_key("y"),)
    if kind == "cell":
        assert alg["y"].degree == alg.degree_of("y") == 4
        assert alg.differential_of("v") == alg["x"] ** 2 + 2 * alg["y"]


@pytest.mark.parametrize("kind", sorted(ALGEBRAS))
def test_unknown_generator_is_a_key_error(kind):
    alg = ALGEBRAS[kind]()
    for lookup in (alg.__getitem__, alg.degree_of, alg.differential_of):
        with pytest.raises(KeyError):
            lookup("nope")
