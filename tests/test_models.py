from collections import Counter

import pytest

from rht import (DgaMorphism, Element, FreeCdga, attach_cell_model,
                 bigraded_model, cohomology, compute_generator_depths,
                 distortion_exponent, is_quasi_isomorphism, minimal_model,
                 parse_bracket, u0_surjectivity, whitehead_pair)
from rht.presentations import projective_ring, sphere_ring, wedge_of_spheres_ring
from rht.scalability import connected_sum_ring
from rht.verify import (EXPECTED_WEDGE_DIMS, build_wedge_model,
                        embed_table_in_model, free_lie_generator_counts,
                        load_fixture)


@pytest.fixture(scope="module")
def s2_model():
    return minimal_model(sphere_ring(2), 7)


@pytest.fixture(scope="module")
def wedge_model():
    return build_wedge_model(13)


@pytest.fixture(scope="module")
def w33_model():
    return minimal_model(wedge_of_spheres_ring([3, 3], name="w33"), 8)


def _cell_fixture(w33):
    alg = w33.algebra
    a3 = [g.name for g in alg.gens if g.degree == 3]
    u5 = [g.name for g in alg.gens if g.degree == 5][0]
    target = alg[a3[0]] * alg[u5]
    vb = next(g.name for g in alg.gens if g.degree == 7
              and alg.differential_of(g.name) in (target, -target))
    return attach_cell_model(alg, {vb: 1}), a3, vb


# -- the sphere model ---------------------------------------------------------


def test_s2_model_structure(s2_model):
    degs = sorted(g.degree for g in s2_model.algebra.gens)
    assert degs == [2, 3]
    a, b = (g.name for g in s2_model.algebra.gens)
    db = s2_model.algebra.differential_of(b)
    assert db in (s2_model.algebra[a] ** 2, -(s2_model.algebra[a] ** 2))
    assert s2_model.depths() == {a: 0, b: 1}
    assert is_quasi_isomorphism(s2_model.quasi_iso, 7)


def test_s2_distortion_exponent(s2_model):
    b = next(g.name for g in s2_model.algebra.gens if g.degree == 3)
    report = distortion_exponent(s2_model.algebra, b)
    assert report.exponent == 4
    assert report.sharpness == "sharp-if-scalable"
    a = next(g.name for g in s2_model.algebra.gens if g.degree == 2)
    assert distortion_exponent(s2_model.algebra, a).exponent == 2


def test_linear_differential_is_rejected():
    """distortion_exponent and whitehead_pair take the algebra itself and
    refuse one that is not minimal."""
    nm = FreeCdga.define([("a", 2), ("w", 2), ("p", 3), ("b", 3)],
                         d=lambda A: {"w": A["p"], "b": A["a"] ** 2})
    with pytest.raises(ValueError, match=r"not minimal: d\(w\)"):
        distortion_exponent(nm, "b")
    with pytest.raises(ValueError, match=r"not minimal: d\(w\)"):
        whitehead_pair(nm, "b", parse_bracket("[a,a]"))


def test_model_of_a_model_is_idempotent(s2_model):
    again = minimal_model(s2_model.algebra, 7)
    assert sorted(g.degree for g in again.algebra.gens) == [2, 3]


def test_minimal_model_rejects_non_simply_connected():
    circleish = wedge_of_spheres_ring([1, 3])
    with pytest.raises(ValueError, match="simply connected"):
        minimal_model(circleish, 5)


def test_trivial_model_warning():
    model = minimal_model(sphere_ring(9), 8)
    assert model.trivial_warning
    assert not model.algebra.gens


def test_minimal_model_of_truncated_stand_in():
    from rht import TruncatedCdga
    base = FreeCdga.define([("e", 2), ("s", 3)], d=lambda A: {"s": A["e"] ** 2})
    stand_in = TruncatedCdga(base, 7)
    # below the cutoff the truncation still looks like the sphere
    model = minimal_model(stand_in, 5)
    assert sorted(g.degree for g in model.algebra.gens) == [2, 3]


# -- the wedge model ----------------------------------------------------------


def test_wedge_dimensions_match_series_oracle(wedge_model):
    oracle = free_lie_generator_counts([2, 2, 4], 12)
    assert oracle == EXPECTED_WEDGE_DIMS
    for k, dim in EXPECTED_WEDGE_DIMS.items():
        assert wedge_model.v_dim(k) == dim


def test_wedge_depth_pattern(wedge_model):
    depths = wedge_model.depths()
    counts = {}
    for g in wedge_model.algebra.gens:
        counts[(g.degree, depths[g.name])] = counts.get(
            (g.degree, depths[g.name]), 0) + 1
    # the named low-degree generators: two closed of degree 3, one closed of
    # degree 5, and the laddered killers one depth step at a time
    assert counts[(3, 0)] == 2
    assert counts[(5, 0)] == 1 and counts[(5, 1)] == 1
    assert counts[(7, 1)] == 2 and counts[(7, 2)] == 2
    assert counts[(9, 2)] >= 1 and counts[(9, 3)] >= 1
    assert counts[(11, 3)] >= 1
    assert counts[(13, 4)] >= 1


def test_wedge_quasi_isomorphism(wedge_model):
    assert is_quasi_isomorphism(wedge_model.quasi_iso, 13)


def test_table_embeds_in_wedge_model(wedge_table, wedge_model):
    psi = embed_table_in_model(wedge_table, wedge_model)
    alg = wedge_model.algebra
    images = {name: psi[name] for name in wedge_table.generator_names()}
    phi = DgaMorphism(wedge_table, alg, images)   # chain map check runs here
    # depth can only drop under a morphism (checked on generators)
    tdepths = compute_generator_depths(wedge_table)
    for name, e in images.items():
        if not e.is_zero():
            assert element_depth(wedge_model, e) <= tdepths[name]
    assert not psi["z"].is_zero()


def element_depth(model, element):
    """Least i with the nonzero element in U_i: the largest depth-weighted
    exponent sum over its monomials."""
    gens, depth = model.algebra.gens, model.depths()
    return max(sum(e * depth[gens[i].name] for i, e in mon)
               for mon in element.terms)


# -- bigraded models ----------------------------------------------------------


def test_cp2_bigraded_structure():
    model = bigraded_model(projective_ring(2, 2, name="CP2"), 12)
    tags = {(g.degree, g.stage) for g in model.algebra.gens}
    assert (2, 0) in tags and (5, 1) in tags
    x = next(g.name for g in model.algebra.gens if g.degree == 2)
    y = next(g.name for g in model.algebra.gens if g.degree == 5)
    dy = model.algebra.differential_of(y)
    assert dy in (model.algebra[x] ** 3, -(model.algebra[x] ** 3))
    assert distortion_exponent(model.algebra, y).exponent == 6


def test_odd_sphere_bigraded_model_single_generator():
    model = bigraded_model(sphere_ring(3), 9)
    assert [(g.degree, g.stage) for g in model.algebra.gens] == [(3, 0)]


def test_wedge_ring_bigraded_stage_one():
    model = bigraded_model(wedge_of_spheres_ring([3, 3, 5]), 8)
    stage0 = sorted(g.degree for g in model.algebra.gens if g.stage == 0)
    assert stage0 == [3, 3, 5]
    stage1 = [g for g in model.algebra.gens if g.stage == 1]
    assert {g.degree for g in stage1} >= {5, 7}
    for g in stage1:
        dv = model.algebra.differential_of(g.name)
        assert not dv.is_zero()


def test_bigraded_cohomology_reproduces_ring():
    ring = projective_ring(2, 2, name="CP2")
    model = bigraded_model(ring, 10)
    for k in range(0, 11):
        assert cohomology(model.algebra, k, 10).rank == len(ring.basis(k))


def test_bigraded_rejects_nonzero_differential(s2_model):
    with pytest.raises(ValueError, match="zero-differential"):
        bigraded_model(s2_model.algebra, 6)


# -- grading automorphisms ----------------------------------------------------


def generators_per_degree(model):
    return Counter(g.degree for g in model.algebra.gens)


FORMAL_RINGS = {
    "S2": lambda: sphere_ring(2),
    "S3": lambda: sphere_ring(3),
    "S4": lambda: sphere_ring(4),
    "CP2": lambda: projective_ring(2, 2),
    "P(2,3)": lambda: projective_ring(2, 3),
    "HP2": lambda: projective_ring(4, 2),
    "S2vS2": lambda: wedge_of_spheres_ring([2, 2]),
    "S2vS3": lambda: wedge_of_spheres_ring([2, 3]),
    "S3vS3vS5": lambda: wedge_of_spheres_ring([3, 3, 5]),
    "s2s2.ring": lambda: load_fixture("s2s2.ring"),
    "cp2.ring": lambda: load_fixture("cp2.ring"),
}


@pytest.mark.parametrize("make_ring", FORMAL_RINGS.values(),
                         ids=FORMAL_RINGS.keys())
def test_minimal_and_bigraded_models_agree_per_degree(make_ring):
    """Two independent constructions of the model of a formal ring have the
    same number of generators in every degree."""
    ring = make_ring()
    assert generators_per_degree(minimal_model(ring, 8)) == \
        generators_per_degree(bigraded_model(ring, 8))


@pytest.mark.parametrize("ring,cap", [
    (sphere_ring(2), 7), (projective_ring(2, 2), 10),
    (wedge_of_spheres_ring([3, 3, 5]), 8), (wedge_of_spheres_ring([3, 3]), 6)],
    ids=["S2", "CP2", "w335", "w33"])
def test_bigraded_differentials_are_pure(ring, cap):
    """Every monomial of d(v) has stage sum stage(v) - 1, so that
    w -> t^(stage + degree) w is a chain map for every t."""
    alg = bigraded_model(ring, cap).algebra
    for g in alg.gens:
        for mon in alg.differential_of(g.name).terms:
            assert sum(e * alg.gens[i].stage for i, e in mon) == g.stage - 1


# -- cell attachments ---------------------------------------------------------


def lift(cell, element):
    """A base element read in the cell attachment."""
    return Element(cell, dict(element.terms))


def test_attach_cell_wedge_table(wedge_table):
    cell = attach_cell_model(wedge_table, {"u_c": 1, "v_b": 1})
    assert cell.cell_degree == 8
    du = cell.differential_of("u_c")
    assert du == lift(cell, wedge_table["a"] * wedge_table["c"]) + cell["y"]
    dv = cell.differential_of("v_b")
    assert dv == lift(cell, wedge_table["a"] * wedge_table["u_b"]) + cell["y"]


def test_minimal_model_of_a_cell_attachment(wedge_table):
    # the cone mixes tuple keys with the cell's name "y", which do not order
    cell = attach_cell_model(wedge_table, {"v_b": 1})
    model = minimal_model(cell, 9)
    assert [g.degree for g in model.algebra.gens] == [3, 3, 5, 5, 7, 9]


def test_attach_cell_zero_pairing_gives_closed_top(w33_model):
    alg = w33_model.algebra
    v7 = next(g.name for g in alg.gens if g.degree == 7)
    cell = attach_cell_model(alg, {v7: 0})
    assert cell.differential_of(v7) == lift(cell, alg.differential_of(v7))
    assert cohomology(cell, 8, 8).rank == 1
    assert cohomology(cell, 8, 8).classes[0] == cell["y"]


def test_attach_cell_cp2_from_s2(s2_model):
    b = next(g.name for g in s2_model.algebra.gens if g.degree == 3)
    a = next(g.name for g in s2_model.algebra.gens if g.degree == 2)
    cell = attach_cell_model(s2_model.algebra, {b: 1})
    db = cell.differential_of(b)
    assert db == lift(cell, s2_model.algebra[a] ** 2) + cell["y"]
    res = cohomology(cell, 4, 4)
    assert res.rank == 1
    rep = res.classes[0]
    # [a^2] = [-y] in the attachment
    assert rep in (lift(cell, s2_model.algebra[a] ** 2), -cell["y"], cell["y"])


def test_attach_cell_products_vanish_off_the_unit(s2_model):
    """The cell class y has y*y = 0 and y*x = 0 for positive-degree x; only
    the unit multiplies it to itself."""
    b = next(g.name for g in s2_model.algebra.gens if g.degree == 3)
    a = next(g.name for g in s2_model.algebra.gens if g.degree == 2)
    cell = attach_cell_model(s2_model.algebra, {b: 1})
    y, x = cell["y"], cell[a]
    assert (y * y).is_zero()
    assert (y * x).is_zero() and (x * y).is_zero()
    assert cell.unit() * y == y == y * cell.unit()


def test_attach_cell_rejects_mixed_degrees(wedge_table):
    with pytest.raises(ValueError, match="single degree"):
        attach_cell_model(wedge_table, {"u_c": 1, "a": 1})


def test_attach_cell_rejects_a_base_generator_named_like_the_cell():
    base = FreeCdga([("x", 2), ("y", 3)])
    with pytest.raises(ValueError, match="'y' collides with a generator"):
        attach_cell_model(base, {"y": 1})


def test_attach_cell_rejects_inconsistent_pairing():
    # non-minimal base with a linear differential: d(w) = p makes
    # d'(d'(w)) = pairing(p) * y nonzero
    base = FreeCdga.define([("w", 2), ("p", 3)], d=lambda A: {"w": A["p"]})
    with pytest.raises(ValueError, match="w"):
        attach_cell_model(base, {"p": 1})


# -- formality probe ----------------------------------------------------------


def test_u0_surjectivity_on_bigraded_models():
    for ring, cap in ((projective_ring(2, 2), 10),
                      (wedge_of_spheres_ring([3, 3, 5]), 8),
                      (sphere_ring(3), 9)):
        model = bigraded_model(ring, cap)
        flags = u0_surjectivity(model.algebra, cap)
        assert all(flags.values())


def test_u0_surjectivity_flags_cell_attachment(w33_model):
    cell, _a3, _vb = _cell_fixture(w33_model)
    flags = u0_surjectivity(cell, 8)
    assert flags[8] is False
    assert all(flags[k] for k in range(8))


@pytest.mark.parametrize("build", [
    lambda: minimal_model(wedge_of_spheres_ring([2, 2]), 6),
    lambda: bigraded_model(projective_ring(2, 2), 6),
    lambda: bigraded_model(connected_sum_ring([("sphere_product", 2, 2)] * 2), 4),
], ids=["minimal_wedge_2_2", "bigraded_CP2", "bigraded_csum_2_S2xS2"])
def test_carried_tables_agree_with_a_build_from_scratch(build):
    """Each stage's extension starts from its parent's d_key and mul_keys
    tables; every entry must be what the final algebra computes afresh."""
    model = build()
    alg = model.algebra
    fresh = FreeCdga(alg.gens, {g.name: alg.d_key(alg.gen_key(g.name))
                                for g in alg.gens})
    for mon, terms in list(alg._d_cache.items()):
        assert terms == fresh.d_key(mon), mon
    for (m1, m2), terms in list(alg._mul_cache.items()):
        assert terms == fresh.mul_keys(m1, m2), (m1, m2)
    keys = {k: alg.basis(k) for k in range(model.cap + 1)}
    for k in keys:
        assert keys[k] == fresh.basis(k)
        for mon in keys[k]:
            assert alg.d_key(mon) == fresh.d_key(mon), mon
            for j in range(model.cap - k + 1):
                for other in keys[j]:
                    assert alg.mul_keys(mon, other) == \
                        fresh.mul_keys(mon, other), (mon, other)
