import dataclasses
from fractions import Fraction

import pytest

from rht import (DgaHomotopy, DgaMorphism, FreeCdga, Leaf, Node,
                 RingPresentation, TruncatedCdga, attach_cell_model,
                 bracket_degree, extend_with_witness, hopf_invariant,
                 integrate_0_1, integrate_0_t, interval_algebra, massey_triple,
                 bigraded_model, minimal_model, obstruction_class, parse_bracket,
                 scale_leaves, whitehead_pair)
from rht.homotopy import at
from rht.presentations import projective_ring, wedge_of_spheres_ring

from conftest import random_homogeneous

F = Fraction


# -- integration operators ------------------------------------------------------


def test_integral_0_t_annihilates_body(wedge_table):
    a = wedge_table["a"]
    assert integrate_0_t(interval_algebra(wedge_table).lift(a, 2)).is_zero()


def test_integral_0_t_odd_coefficient(wedge_table):
    a = wedge_table["a"]        # degree 3
    interval = interval_algebra(wedge_table)
    out = integrate_0_t(interval.lift(a, 0, dt=True))
    assert out == interval.lift(-1 * a, 1)


def test_integral_0_t_divides_by_exponent():
    A = FreeCdga([("x", 2)])
    interval = interval_algebra(A)
    out = integrate_0_t(interval.lift(A["x"], 1, dt=True))
    assert out == interval.lift(A["x"] * Fraction(1, 2), 2)


@pytest.mark.parametrize("c,i,expected", [
    (3, 2, 1), (-4, 1, -2), (6, 0, 6), (1, 1, F(1, 2)), (5, 3, F(5, 4)),
    (-7, 2, F(-7, 3)), (F(3, 2), 2, F(1, 2)), (F(4, 3), 3, F(1, 3)),
])
def test_integral_keeps_whole_quotients_as_ints(c, i, expected):
    """c/(i+1) is an int exactly when whole, for int and Fraction c, and
    the odd generator's sign applies on either path."""
    A = FreeCdga([("x", 2), ("y", 3)])
    interval = interval_algebra(A)
    for name, sign in (("x", 1), ("y", -1)):
        u = interval.lift(A[name] * c, i, dt=True)
        (value,) = integrate_0_t(u).terms.values()
        assert value == sign * expected
        assert (type(value) is int) == (F(expected).denominator == 1)
        (value,) = integrate_0_1(u).terms.values()
        assert value == sign * expected


def test_integral_0_1_values(wedge_table):
    A = FreeCdga([("x", 2)])
    interval = interval_algebra(A)
    assert integrate_0_1(interval.lift(A["x"], 5)).is_zero()
    assert integrate_0_1(interval.lift(A["x"], 0, dt=True)) == A["x"]
    a = wedge_table["a"]
    lifted = interval_algebra(wedge_table).lift(a, 3, dt=True)
    assert integrate_0_1(lifted) == a * F(-1, 4)


def test_lift_refuses_a_negative_power_of_t():
    A = FreeCdga([("x", 2)])
    interval = interval_algebra(A)
    for dt in (False, True):
        with pytest.raises(ValueError, match="power of t must be nonnegative"):
            interval.lift(A["x"], -1, dt=dt)


def _random_homotopy_element(alg, rng):
    interval = interval_algebra(alg)
    u = interval.zero()
    degrees = list(range(1, 10))
    for _ in range(rng.randint(1, 3)):
        e = random_homogeneous(alg, rng, degrees)
        i = rng.randint(0, 5)
        u = u + interval.lift(e, i, dt=rng.random() >= 0.5)
    return u


def test_integration_identities_randomized(wedge_table, rng):
    alg = wedge_table
    interval = interval_algebra(alg)
    for _ in range(400):
        u = _random_homotopy_element(alg, rng)
        assert (integrate_0_t(u).d() + integrate_0_t(u.d())
                == u - interval.lift(at(u, 0)))
        assert integrate_0_1(u).d() + integrate_0_1(u.d()) == at(u, 1) - at(u, 0)


def test_high_t_degrees_are_elements(wedge_table):
    """An interval key (i, e, k) is a dict key, so no power of t is too
    large: lifts, products and integrals past t^16 are exact elements."""
    a = wedge_table["a"]        # degree 3
    interval = interval_algebra(wedge_table)
    lifted = interval.lift(a, 17)
    assert repr(lifted) == "a*t^17"
    X = FreeCdga([("x", 2)])
    big = interval_algebra(X).lift(X["x"], 9)
    assert repr(big * big) == "x^2*t^18"
    top = interval.lift(a, 16, dt=True)
    assert integrate_0_t(top) == lifted * F(-1, 17)
    for u in (lifted, big * big, top):
        assert (integrate_0_t(u).d() + integrate_0_t(u.d())
                == u - u.alg.lift(at(u, 0)))
        assert integrate_0_1(u).d() + integrate_0_1(u.d()) == at(u, 1) - at(u, 0)


def test_interval_algebra_is_one_per_base(wedge_table):
    interval = interval_algebra(wedge_table)
    assert interval_algebra(wedge_table) is interval
    assert interval.base is wedge_table
    assert interval.unit() == 1
    assert interval.unit() == interval.lift(wedge_table.unit())
    u = interval.lift(wedge_table["a"], 2, dt=True) + interval.unit()
    assert repr(u) == "1 + a*t^2*dt"


def test_interval_repr_orders_by_the_base_token():
    """A cell model mixes str and monomial keys in one degree; the interval
    algebra sorts them by the base's own token."""
    B = FreeCdga.define([("x", 2), ("v", 3)], d=lambda X: {"v": X["x"] ** 2})
    cell = attach_cell_model(B, {"v": 1})
    interval = interval_algebra(cell)
    u = interval.lift(cell["y"] + cell["x"] ** 2, 1)
    assert repr(u) == "x^2*t + y*t"


def test_homotopy_is_a_morphism_into_the_interval_algebra():
    _A, _AV, _B, C, f, g, h = _square()
    start = DgaMorphism(f.source, C, {"a": C["e"]})
    H = DgaHomotopy.constant(start)
    assert isinstance(H, DgaMorphism) and H.target is interval_algebra(C)
    assert H.apply(f.source.unit()) == H.target.unit()
    lifted = H.target.lift(C["e"])
    with pytest.raises(ValueError, match="at t=1 differs from the end map"):
        DgaHomotopy(start, DgaMorphism(f.source, C, {"a": 2 * C["e"]}),
                    {"a": lifted})
    with pytest.raises(ValueError, match="no homotopy image"):
        DgaHomotopy(start, start, {})
    # t*e at t=0 is 0, so start the map there; d(e t) = e dt is no image of d(a) = 0
    zero = DgaMorphism(f.source, C, {"a": C.zero()})
    ramp = DgaMorphism(f.source, C, {"a": C["e"]})
    with pytest.raises(ValueError) as exc:
        DgaHomotopy(zero, ramp, {"a": H.target.lift(C["e"], 1)})
    assert str(exc.value) == ("not a chain map on 'a': phi(d a) = 0 "
                              "but d(phi a) = e*dt")


# -- obstruction classes ---------------------------------------------------------


def _square():
    A = FreeCdga([("a", 2)], name="A")
    AV = FreeCdga.define([("a", 2), ("v", 3)], d=lambda X: {"v": X["a"] ** 2},
                         name="AV")
    B = FreeCdga.define([("a", 2), ("b", 3)], d=lambda X: {"b": X["a"] ** 2},
                        name="B")
    Cfree = FreeCdga.define([("e", 2), ("s", 3)], d=lambda X: {"s": X["e"] ** 2},
                            name="Cfree")
    C = TruncatedCdga(Cfree, 5, name="C")
    f = DgaMorphism(A, B, {"a": B["a"]})
    h = DgaMorphism(B, C, {"a": C["e"], "b": C["s"]})
    g = DgaMorphism(AV, C, {"a": C["e"], "v": C["s"]})
    return A, AV, B, C, f, g, h


def test_obstruction_vanishes_for_identity_target():
    A, AV, B, _C, f, _g, _h = _square()
    g = DgaMorphism(AV, B, {"a": B["a"], "v": B["b"]})
    ob = obstruction_class(f, g, DgaMorphism.identity(B))
    assert ob.vanishes
    f_ext, H_ext = extend_with_witness(ob)
    assert f_ext.images["v"].d() == f.apply(A["a"] ** 2)


def test_obstruction_model_map_fixture():
    _A, _AV, B, _C, f, g, h = _square()
    ob = obstruction_class(f, g, h)
    assert ob.vanishes
    b_v, c_v = ob.primitives["v"]
    assert b_v == B["b"] and c_v.is_zero()
    f_ext, H_ext = extend_with_witness(ob)
    # at t = 0 the extension homotopy restricts to g
    assert at(H_ext.images["v"], 0) == g.images["v"]
    assert at(H_ext.images["v"], 1) == h.apply(B["b"])


def _two_generator_square(order):
    """A = <a, c> in degree 2 into B = <a, c, s> with ds = a^2, and
    A<V> with dv = a^2 listing its generators in ``order``."""
    A = FreeCdga([("a", 2), ("c", 2)], name="A")
    degrees = {"a": 2, "c": 2, "v": 3}
    AV = FreeCdga.define([(n, degrees[n]) for n in order],
                         d=lambda X: {"v": X["a"] ** 2}, name="AV")
    B = FreeCdga.define([("a", 2), ("c", 2), ("s", 3)],
                        d=lambda X: {"s": X["a"] ** 2}, name="B")
    f = DgaMorphism(A, B, {"a": B["a"], "c": B["c"]})
    g = DgaMorphism(AV, B, {"a": B["a"], "c": B["c"], "v": B["s"]})
    return f, g, DgaMorphism.identity(B)


def test_extension_must_list_the_base_generators_first_in_order():
    ob = obstruction_class(*_two_generator_square("acv"))
    assert ob.vanishes and ob.primitives["v"][0] == ob.f.target["s"]
    # a term dict of A<c, a, v> read as one of A would turn a^2 into c^2
    for order in ("cav", "avc"):
        with pytest.raises(ValueError, match="must list the generators of A "
                                             "first"):
            obstruction_class(*_two_generator_square(order))


def test_extension_generators_must_be_new_of_one_degree_over_the_base():
    A = FreeCdga([("a", 2)], name="A")
    f = DgaMorphism.identity(A)
    with pytest.raises(ValueError, match="adds no generators"):
        obstruction_class(f, f, f)
    AV = FreeCdga([("a", 2), ("v", 3), ("w", 5)], name="AV")
    g = DgaMorphism(AV, A, {"a": A["a"], "v": A.zero(), "w": A.zero()})
    with pytest.raises(ValueError, match="share one degree"):
        obstruction_class(f, g, f)
    X = FreeCdga([("x", 1)], name="X")
    XV = FreeCdga.define([("x", 1), ("v", 3), ("w", 3)],
                         d=lambda G: {"v": G["w"] * G["x"]}, name="XV")
    e = DgaMorphism.identity(X)
    g = DgaMorphism(XV, X, {"x": X["x"], "v": X.zero(), "w": X.zero()})
    with pytest.raises(ValueError, match=r"d\(v\) leaves the base algebra"):
        obstruction_class(e, g, e)


def test_obstruction_cocycle_property():
    from rht.cohomology import MappingCone
    _A, _AV, _B, _C, f, g, h = _square()
    ob = obstruction_class(f, g, h)
    cone = MappingCone(h)
    for name, (b_part, c_part) in ob.cocycle.items():
        terms = cone.terms_of_pair(b_part, c_part)
        out = {}
        for key, c in terms.items():
            for k2, c2 in cone.d_key(key).items():
                out[k2] = out.get(k2, F(0)) + c * c2
        assert not any(out.values())


def test_obstruction_nonvanishing_rank_one():
    A, AV, B, _C, f, _g, _h = _square()
    C2free = FreeCdga.define([("e", 2), ("s", 3), ("sp", 3)],
                             d=lambda X: {"s": X["e"] ** 2})
    C2 = TruncatedCdga(C2free, 5, name="C2")
    h2 = DgaMorphism(B, C2, {"a": C2["e"], "b": C2["s"]})
    g2 = DgaMorphism(AV, C2, {"a": C2["e"], "v": C2["s"] + C2["sp"]})
    ob = obstruction_class(f, g2, h2)
    assert not ob.vanishes and ob.rank == 1
    with pytest.raises(ValueError, match="does not vanish"):
        extend_with_witness(ob)


def test_obstruction_requires_matching_homotopy():
    _A, _AV, B, C, f, g, h = _square()
    # g|_A with a different image than h(f(a)) and no homotopy given
    AV2 = g.source
    g_bad = DgaMorphism(AV2, C, {"a": 2 * C["e"],
                                 "v": 4 * C["s"]})
    with pytest.raises(ValueError, match="homotopy"):
        obstruction_class(f, g_bad, h)


def test_obstruction_rejects_mixed_extension_degrees():
    A = FreeCdga([("a", 2)], name="A")
    bad = FreeCdga.define([("a", 2), ("v", 3), ("w", 5)],
                          d=lambda X: {"v": X["a"] ** 2, "w": X["a"] ** 3})
    B = FreeCdga.define([("a", 2), ("b", 3)], d=lambda X: {"b": X["a"] ** 2})
    f = DgaMorphism(A, B, {"a": B["a"]})
    g = DgaMorphism(bad, B, {"a": B["a"], "v": B["b"], "w": B["a"] * B["b"]})
    with pytest.raises(ValueError, match="one degree"):
        obstruction_class(f, g, DgaMorphism.identity(B))


@pytest.mark.parametrize("part", ["b", "c"])
def test_extension_rejects_an_invalid_primitive(part):
    """Doubling b(v) breaks d(b(v)) = f(dv), which the chain-map check of f~
    catches; adding s to c(v) moves H~(v) at t = 1 off h(b(v)), which the
    endpoint check of H~ catches."""
    _A, _AV, _B, C, f, g, h = _square()
    ob = obstruction_class(f, g, h)
    b_v, c_v = ob.primitives["v"]
    bad = (2 * b_v, c_v) if part == "b" else (b_v, c_v + C["s"])
    ob = dataclasses.replace(ob, primitives={"v": bad})
    match = "not a chain map on 'v'" if part == "b" else "H\\(v\\) at t=1"
    with pytest.raises(ValueError, match=match):
        extend_with_witness(ob)


def test_every_morphism_is_checked_at_construction(monkeypatch):
    """Each morphism and homotopy that the library builds runs its checks:
    the constructor on every generator, ``DgaMorphism.extend`` on every
    generator that the extension appends."""
    built, checked, extended = [], [], []
    init, extend = DgaMorphism.__init__, DgaMorphism.extend
    check = DgaMorphism._check

    def recording_init(self, *args):
        built.append((self, 0))
        init(self, *args)

    def recording_extend(self, *args):
        old_count = len(self.source.gens)
        out = extend(self, *args)
        built.append((out, old_count))
        extended.append(out)
        return out

    def recording_check(self, start):
        checked.append((self, start))
        check(self, start)

    monkeypatch.setattr(DgaMorphism, "__init__", recording_init)
    monkeypatch.setattr(DgaMorphism, "extend", recording_extend)
    monkeypatch.setattr(DgaMorphism, "_check", recording_check)
    _A, _AV, B, _C, f, g, h = _square()
    results = [DgaMorphism.identity(B), h.compose(f)]
    results.append(DgaHomotopy.constant(results[-1]))
    ob = obstruction_class(f, g, h)
    results += [ob.homotopy, ob.homotopy.start]
    ring = projective_ring(2, 2, name="CP2")
    results += [minimal_model(ring, 4).quasi_iso,
                bigraded_model(ring, 4).quasi_iso]
    assert built and [(id(m), s) for m, s in checked] == [
        (id(m), s) for m, s in built]
    assert all(any(m is c for c, _s in checked) for m in results)
    # the stage maps are grown by extend, which checks no old generator
    assert any(m is results[-1] for m in extended)
    assert any(m is results[-2] for m in extended)


def test_constant_extension_keeps_constant_homotopy():
    _A, _AV, B, _C, f, g, h = _square()
    ob = obstruction_class(f, g, h)
    f_ext, H_ext = extend_with_witness(ob)
    img = H_ext.images["v"]
    # c = 0 here, so the homotopy on v is g(v) plus the integral tail only
    assert at(img, 0) == g.images["v"]


# -- Whitehead pairings ------------------------------------------------------------


def test_bracket_parsing_roundtrip():
    """A multiplier is any literal rational reads, '+' included; a leaf
    carries one multiplier at most."""
    e = parse_bracket("[[a,c],[a,[a,b]]]")
    assert isinstance(e, Node) and isinstance(e.left, Node)
    assert parse_bracket("3*a") == Leaf("a", F(3))
    assert parse_bracket("[+3*a,b]").left.multiplier == 3
    assert parse_bracket(" [ -2/3 * a , [b, 4*c] ] ") == Node(
        Leaf("a", F(-2, 3)), Node(Leaf("b"), Leaf("c", F(4))))
    for text in ("[a,", "[a b]", "2*1*a", "2*3*a", "2*[a,b]", "[a,b,c]", "[a]",
                 "[[a,b]", "[a,b]]", "a*2", "*a", "3*", "", "[a,b]x"):
        with pytest.raises(ValueError):
            parse_bracket(text)


def test_bracket_degrees(wedge_table):
    assert bracket_degree(wedge_table, parse_bracket("[a,b]")) == 5
    assert bracket_degree(wedge_table, parse_bracket("[a,[a,b]]")) == 7
    assert bracket_degree(wedge_table, parse_bracket("[[a,c],[a,[a,b]]]")) == 13


def test_whitehead_unit_pairings(wedge_table):
    assert abs(whitehead_pair(wedge_table, "u_b", parse_bracket("[a,b]"))) == 1
    assert abs(whitehead_pair(wedge_table, "v_b", parse_bracket("[a,[a,b]]"))) == 1
    assert whitehead_pair(wedge_table, "u_c", parse_bracket("[a,c]")) != 0


def test_whitehead_seventeenth_power_scaling(wedge_table):
    expr = parse_bracket("[[a,c],[a,[a,b]]]")
    base = whitehead_pair(wedge_table, "z", expr)
    assert base != 0
    for n in (1, 2, 3, 4, 5):
        scaled = scale_leaves(expr, lambda leaf: F(n) ** wedge_table.degree_of(leaf.name))
        assert whitehead_pair(wedge_table, "z", scaled) == F(n) ** 17 * base


def test_whitehead_multilinearity_in_single_leaf(wedge_table):
    expr = Node(Node(Leaf("a"), Leaf("c")),
                Node(Leaf("a", F(1)), Node(Leaf("a"), Leaf("b"))))
    base = whitehead_pair(wedge_table, "z", expr)
    scaled = Node(Node(Leaf("a"), Leaf("c", F(7))),
                  Node(Leaf("a"), Node(Leaf("a"), Leaf("b"))))
    assert whitehead_pair(wedge_table, "z", scaled) == 7 * base


def test_whitehead_square_convention():
    # db = a^2 makes b dual to the bracket square of the degree-2 class, with
    # the even-square convention contributing a factor of 2
    s2 = FreeCdga.define([("a", 2), ("b", 3)], d=lambda A: {"b": A["a"] ** 2})
    assert abs(whitehead_pair(s2, "b", parse_bracket("[a,a]"))) == 2


def test_whitehead_degree_mismatch_rejected(wedge_table):
    with pytest.raises(ValueError, match="degree"):
        whitehead_pair(wedge_table, "z", parse_bracket("[a,b]"))


# -- Massey triples ----------------------------------------------------------------


def test_massey_wedge_vanishes():
    w33 = minimal_model(wedge_of_spheres_ring([3, 3], name="w33"), 8)
    alg = w33.algebra
    a, b = (alg[g.name] for g in alg.gens if g.degree == 3)
    res = massey_triple(alg, a, a, b)
    assert res.vanishes_mod_indeterminacy


def test_massey_cell_attachment_certifies_nonformality():
    w33 = minimal_model(wedge_of_spheres_ring([3, 3], name="w33"), 8)
    alg = w33.algebra
    a3 = [g.name for g in alg.gens if g.degree == 3]
    u5 = [g.name for g in alg.gens if g.degree == 5][0]
    target = alg[a3[0]] * alg[u5]
    vb = next(g.name for g in alg.gens if g.degree == 7
              and alg.differential_of(g.name) in (target, -target))
    cell = attach_cell_model(alg, {vb: 1})
    res = massey_triple(cell, cell[a3[0]], cell[a3[0]], cell[a3[1]])
    assert not res.vanishes_mod_indeterminacy
    assert res.indeterminacy_dim == 0
    assert res.class_coords


def test_massey_zero_input_gives_zero_class(wedge_table):
    res = massey_triple(wedge_table, wedge_table.zero(), wedge_table["a"],
                        wedge_table["b"])
    assert res.vanishes_mod_indeterminacy
    assert res.class_representative.is_zero()


def test_massey_rejects_open_or_foreign_elements(wedge_table):
    W = wedge_table
    with pytest.raises(ValueError, match="not closed"):
        massey_triple(W, W["u_b"], W["a"], W["b"])
    other = FreeCdga([("a", 3), ("b", 3)])
    with pytest.raises(ValueError, match="different algebra"):
        massey_triple(W, other["a"], W["a"], W["b"])


def test_massey_rejects_an_inhomogeneous_representative():
    """x = a + a^2 is closed but has no degree: a ValueError, not the
    TypeError of adding its missing degree."""
    A = FreeCdga([("a", 2)])
    x = A["a"] + A["a"] * A["a"]
    for args in ((x, A["a"], A["a"]), (A["a"], A["a"], x), (A.zero(), x, A["a"])):
        with pytest.raises(ValueError, match="not homogeneous"):
            massey_triple(A, *args)


def test_massey_rejects_nonvanishing_products():
    A = FreeCdga([("a", 3), ("b", 3), ("c", 5)])
    with pytest.raises(ValueError, match="does not vanish"):
        massey_triple(A, A["a"], A["b"], A["c"])


# -- Hopf invariants ----------------------------------------------------------------


def test_hopf_cp2_is_one():
    assert hopf_invariant(projective_ring(2, 2, name="CP2"), "x") == 1


def test_hopf_s2s2_is_zero():
    amb = FreeCdga([("w1", 2), ("w2", 2)])
    ring = RingPresentation([("w1", 2), ("w2", 2)],
                            [amb["w1"] ** 2, amb["w2"] ** 2],
                            fundamental_degree=4, duality=True)
    assert hopf_invariant(ring, "w1") == 0
    assert hopf_invariant(ring, "w2") == 0


@pytest.mark.parametrize("k", [1, 2, 3])
def test_hopf_cup_square_bilinearity(k):
    amb = FreeCdga([("w", 2), ("b", 4)])
    ring = RingPresentation(
        [("w", 2), ("b", 4)],
        [amb["w"] ** 2 - k * k * amb["b"], amb["w"] * amb["b"], amb["b"] ** 2],
        fundamental_degree=4)
    assert hopf_invariant(ring, "w") == k * k


def test_hopf_rejects_fat_top_degree():
    ring = RingPresentation([("w", 2), ("u", 4), ("v", 4)], [],
                            fundamental_degree=4)
    with pytest.raises(ValueError, match="rank"):
        hopf_invariant(ring, "w")
