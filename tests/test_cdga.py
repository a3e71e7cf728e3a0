import itertools
import random
import re
from fractions import Fraction

import pytest

from rht import DgaMorphism, FreeCdga, TruncatedCdga
from rht.verify import fixture_algebras

from conftest import random_homogeneous

F = Fraction


@pytest.fixture
def odd_pair():
    return FreeCdga([("a", 3), ("b", 3)])


def test_odd_square_vanishes(odd_pair):
    a = odd_pair["a"]
    assert (a * a).is_zero()


def test_koszul_sign_on_odd_odd(odd_pair):
    a, b = odd_pair["a"], odd_pair["b"]
    assert a * b == -(b * a)


def test_even_generator_squares():
    A = FreeCdga([("x", 2)])
    x = A["x"]
    assert (x * x).terms == {((0, 2),): F(1)}
    assert x * x == x ** 2


def test_mixed_algebra_elements_rejected(odd_pair):
    other = FreeCdga([("a", 3), ("b", 3)])
    with pytest.raises(ValueError, match="different algebras"):
        odd_pair["a"] + other["b"]
    with pytest.raises(ValueError, match="different algebras"):
        odd_pair["a"] * other["b"]


def test_differential_on_table_generator(wedge_table):
    W = wedge_table
    assert W["u_b"].d() == W["a"] * W["b"]


def test_leibniz_on_product_with_closed_factor(wedge_table):
    W = wedge_table
    # hand expansion: d(u_b c) = (du_b) c - u_b (dc) = a b c
    assert (W["u_b"] * W["c"]).d() == W["a"] * W["b"] * W["c"]


def test_d_squared_on_thirteen_dimensional_generator(wedge_table):
    z = wedge_table["z"]
    assert not z.d().is_zero()
    assert z.d().d().is_zero()


def test_differential_raises_degree_validation():
    with pytest.raises(ValueError, match="degree"):
        FreeCdga([("a", 2), ("b", 4)], {"b": {((0, 1),): F(1)}})


def test_d_squared_validation_rejects_bad_data():
    # d(u) = x y with d(y) = x^2 gives d(d u) = -x^3 != 0
    with pytest.raises(ValueError, match=r"d\(d\("):
        FreeCdga.define(
            [("x", 2), ("y", 3), ("u", 4)],
            d=lambda A: {"y": A["x"] ** 2, "u": A["x"] * A["y"]})


def test_apply_morphism_identity(wedge_table):
    ident = DgaMorphism.identity(wedge_table)
    x = wedge_table["u_c"] * wedge_table["v_b"] - 3 * wedge_table["z"]
    assert ident.apply(x) == x


def test_apply_morphism_multiplicative_scaling():
    A = FreeCdga([("a", 3), ("b", 3)])
    # a -> t^3 a and b -> t^3 b with t = 2 multiplies ab by 2^6
    phi = DgaMorphism(A, A, {"a": 8 * A["a"], "b": 8 * A["b"]})
    assert phi.apply(A["a"] * A["b"]) == 64 * (A["a"] * A["b"])


def test_apply_zero_image_morphism_kills_decomposables():
    A = FreeCdga([("a", 3), ("b", 3)])
    zero = DgaMorphism(A, A, {"a": A.zero(), "b": A.zero()})
    assert zero.apply(A["a"] * A["b"]).is_zero()
    assert zero.apply(A.unit()) == A.unit()


def test_morphism_key_images_match_unit_products():
    """Key images equal the products started from the unit, and a result of
    apply_terms shares no dict with the images."""
    A = FreeCdga([("a", 2), ("b", 3), ("c", 3)])
    images = {"a": -A["a"], "b": A["b"], "c": 3 * A["c"] - A["b"]}
    phi = DgaMorphism(A, A, images)
    keys = [(), ((0, 1),), ((1, 1),), ((2, 1),), ((0, 3),), ((0, 1), (2, 1)),
            ((1, 1), (2, 1))]
    for key in keys:
        expect = {(): Fraction(1)}
        for i, e in key:
            for _ in range(e):
                expect = A.mul_terms(expect, images[A.gens[i].name].terms)
        got = phi.apply_terms({key: Fraction(1)})
        assert list(got.items()) == list(expect.items())
    before = {name: list(e.terms.items()) for name, e in phi.images.items()}
    for g in A.gens:
        got = phi.apply_terms({A.gen_key(g.name): Fraction(1)})
        for k in got:
            got[k] = Fraction(7)
        got[()] = Fraction(5)
    assert {name: list(e.terms.items())
            for name, e in phi.images.items()} == before


def test_morphism_chain_condition_enforced():
    S2 = FreeCdga.define([("a", 2), ("b", 3)], d=lambda A: {"b": A["a"] ** 2})
    with pytest.raises(ValueError, match="chain map"):
        DgaMorphism(S2, S2, {"a": S2["a"], "b": S2.zero()})
    with pytest.raises(ValueError) as exc:
        DgaMorphism(S2, S2, {"a": S2["a"], "b": 2 * S2["b"]})
    assert str(exc.value) == ("not a chain map on 'b': phi(d b) = a^2 "
                              "but d(phi b) = 2*a^2")


def test_graded_basis_odd_pair(odd_pair):
    assert [odd_pair.format_key(k) for k in odd_pair.basis(6)] == ["a*b"]


def test_graded_basis_even_power():
    A = FreeCdga([("x", 2)])
    assert [A.format_key(k) for k in A.basis(4)] == ["x^2"]


def test_graded_basis_matches_exhaustive_enumeration(wedge_table):
    W = wedge_table
    degrees = [g.degree for g in W.gens]
    # independent oracle: loop over all exponent vectors directly
    ranges = [range(0, 2) if d % 2 else range(0, 9) for d in degrees]
    expect = set()
    for exps in itertools.product(*ranges):
        if sum(e * d for e, d in zip(exps, degrees)) == 8:
            expect.add(tuple((i, e) for i, e in enumerate(exps) if e))
    got = W.basis(8)
    assert set(got) == expect
    assert len(got) == len(expect) == 4
    names = {W.format_key(k) for k in got}
    assert names == {"a*c", "a*u_b", "b*c", "b*u_b"}


def test_basis_size_counts_without_enumerating(wedge_table):
    mixed = FreeCdga([("a", 2), ("b", 3), ("c", 3), ("d", 4), ("e", 5)])
    for alg in (wedge_table, mixed, FreeCdga([("x", 2)]), FreeCdga([])):
        assert alg.basis_sizes(20) == [len(alg.basis(k)) for k in range(21)]


def test_basis_deterministic_and_cached(wedge_table):
    assert wedge_table.basis(13) == wedge_table.basis(13)
    assert wedge_table.basis(13) is wedge_table.basis(13)


def recursive_basis(alg, degree):
    """The recursive walk FreeCdga.basis made before it kept an explicit
    stack: one call per generator.  The order oracle for the stack walk."""
    out = []

    def rec(start, remaining, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        if start >= len(alg.gens):
            return
        deg = alg.gens[start].degree
        top = remaining // deg
        if deg % 2:
            top = min(top, 1)
        for e in range(top, -1, -1):
            if e:
                acc.append((start, e))
                rec(start + 1, remaining - e * deg, acc)
                acc.pop()
            else:
                rec(start + 1, remaining, acc)

    rec(0, degree, [])
    return tuple(out)


def test_basis_matches_recursive_order_on_fixtures():
    for alg in fixture_algebras():
        for k in range(19):
            assert alg.basis(k) == recursive_basis(alg, k), (alg.name, k)


def test_basis_matches_recursive_order_on_random_generators():
    rng = random.Random(7101)
    for _ in range(60):
        gens = [(f"g{i}", rng.randint(1, 6)) for i in range(rng.randint(0, 9))]
        rng.shuffle(gens)
        alg = FreeCdga(gens)
        for k in range(16):
            assert alg.basis(k) == recursive_basis(alg, k), (gens, k)


def test_basis_of_1200_generators_does_not_recurse():
    alg = FreeCdga([(f"g{i}", 2) for i in range(1200)])
    basis = alg.basis(2)
    assert basis == tuple(((i, 1),) for i in range(1200))


def test_monomial_normalization_idempotent_order_independent(wedge_table, rng):
    W = wedge_table
    for _ in range(300):
        deg = rng.choice(range(3, 14))
        basis = W.basis(deg)
        if not basis:
            continue
        mon = basis[rng.randrange(len(basis))]
        factors = []
        for i, e in mon:
            factors.extend([(i, 1)] * e)
        rng.shuffle(factors)
        sign, key = W.monomial(factors)
        assert key == mon
        # independent route: multiply generator elements one at a time
        stepwise = W.unit()
        for i, _e in factors:
            stepwise = stepwise * W[W.gens[i].name]
        assert stepwise == W.element({mon: sign})


@pytest.mark.parametrize("alg_index", range(5))
def test_algebra_laws_randomized(alg_index, rng):
    alg = fixture_algebras()[alg_index]
    degrees = list(range(1, 13))
    for _ in range(250):
        x = random_homogeneous(alg, rng, degrees)
        y = random_homogeneous(alg, rng, degrees)
        sign = -1 if ((x.degree or 0) * (y.degree or 0)) % 2 else 1
        assert x * y == sign * (y * x)
        assert (x * y).d() == x.d() * y + (-1) ** (x.degree or 0) * (x * y.d())
        assert x.d().d().is_zero()


def test_truncated_algebra_kills_high_degrees():
    base = FreeCdga.define([("e", 2), ("s", 3)], d=lambda A: {"s": A["e"] ** 2})
    C = TruncatedCdga(base, 5)
    e = C["e"]
    assert (e ** 2) * e == C.zero()
    assert (e ** 2).d().is_zero()
    assert C.basis(6) == ()
    assert C["s"].d() == e ** 2


def test_element_formatting_is_deterministic(wedge_table):
    W = wedge_table
    e = W["w_c"] * W["b"] - W["c"] * W["w_b"]
    assert repr(e) == repr(W["w_c"] * W["b"] - W["c"] * W["w_b"])
    assert repr(W.zero()) == "0"
    assert repr(W.unit()) == "1"


def test_extend_preserves_existing_monomials(wedge_table):
    W = wedge_table
    closed = (W["u_c"] * W["v_b"]).d()
    bigger = W.extend([("q", 14)], {"q": closed.terms})
    assert bigger.degree_of("q") == 14
    assert bigger.adopt(W["u_b"].d()) == bigger["a"] * bigger["b"]


def test_adopt_refuses_a_reordered_source():
    """adopt copies the keys of a source whose generators lead the target's;
    a reordered source is refused, not re-signed, and a refused source is
    not remembered as a passing one."""
    A = FreeCdga([("a", 1), ("b", 1), ("c", 2)])
    B = FreeCdga([("b", 1), ("a", 1), ("c", 2)], name="B")
    lead = FreeCdga([("b", 1), ("a", 1)])
    for _ in range(2):
        with pytest.raises(ValueError, match="^generator 'a' of degree 1 is "
                                             "not generator 1 of B$"):
            B.adopt(A["a"] * A["b"] + A["c"])
    assert B.adopt(lead["b"] * lead["a"]) == B["b"] * B["a"]


@pytest.mark.parametrize("gens,name", [
    ([("b", 1), ("z", 2)], "'z'"),
    ([("b", 3), ("a", 1)], "'b'"),   # the leading names, one degree off
    ([("b", 1), ("a", 3)], "'a'"),
    ([("a", 1), ("b", 1)], "'a'"),   # the target's generators, reordered
    ([("b", 1), ("a", 1), ("c", 2)], "'c'"),   # one generator too many
])
def test_adopt_names_a_generator_it_lacks(gens, name):
    """The error names the source's first generator that is not the
    target's generator in the same place, by name and degree."""
    source = FreeCdga(gens)
    target = FreeCdga([("b", 1), ("a", 1)], name="T")
    place = [g for g, _d in gens].index(name.strip("'")) + 1
    with pytest.raises(ValueError, match=f"generator {name} of degree "
                                         f"\\d+ is not generator {place} of T"):
        target.adopt(source[gens[0][0]] * source[gens[1][0]])


def _a_b():
    """a in degree 2 and b in degree 3 with d(b) = a^2."""
    return FreeCdga.define([("a", 2), ("b", 3)], d=lambda A: {"b": A["a"] ** 2})


def test_extend_rejects_a_differential_for_an_existing_generator():
    A = _a_b()
    with pytest.raises(ValueError, match="existing generator 'b'"):
        A.extend([("c", 5)], {"b": {}, "c": {((0, 3),): 1}})
    assert A.differential_of("b") == A["a"] ** 2


def test_extend_rejects_a_new_generator_with_nonzero_d_squared():
    # d(c) = a*b, and d(a*b) = a^3
    with pytest.raises(ValueError, match=r"d\(d\(c\)\) = a\^3 != 0"):
        _a_b().extend([("c", 4)], {"c": {((0, 1), (1, 1)): 1}})


def test_extend_validates_only_the_new_generators(monkeypatch):
    A = _a_b()
    A.d_key(((0, 1), (1, 1)))
    parent_d_keys = set(A._d_cache)
    seen = []
    original = FreeCdga.d_terms

    def spy(self, terms):
        seen.append(dict(terms))
        return original(self, terms)

    monkeypatch.setattr(FreeCdga, "d_terms", spy)
    B = A.extend([("c", 5)], {"c": {((0, 3),): 1}})
    assert seen == [{((0, 3),): F(1)}]
    assert B.differential_of("b") == B["a"] ** 2
    # the extension starts from a copy of the parent's table, and the
    # parent never sees the keys the extension adds
    assert parent_d_keys <= set(B._d_cache)
    assert set(A._d_cache) == parent_d_keys


@pytest.mark.parametrize("gens,d,problem", [
    # once built, d(z) printed y*x
    ([("x", 1), ("y", 1), ("z", 1)], {"z": {((1, 1), (0, 1)): 1}},
     "generator indices are not strictly increasing"),
    # once built, d(y) printed x^0*x^3
    ([("x", 2), ("y", 5)], {"y": {((0, 0), (0, 3)): 1}},
     "exponent 0 is below 1"),
    # once built, d(y) printed u^2*x, a square of an odd generator
    ([("u", 1), ("x", 2), ("y", 3)], {"y": {((0, 2), (1, 1)): 1}},
     "odd generator 0 has exponent 2"),
    # raised IndexError from key_degree
    ([("x", 2), ("y", 3)], {"y": {((3, 1),): 1}},
     "generator index 3 is out of range 0..1"),
], ids=["indices-decreasing", "exponent-zero", "odd-square", "index-out-of-range"])
def test_malformed_differential_keys_are_rejected(gens, d, problem):
    """A differential key that is no monomial raises ValueError naming the
    key, as a malformed relation key does; ``extend`` takes the same check."""
    ((name, terms),) = d.items()
    (key,) = terms
    message = re.escape(f"d({name}) key {key!r} is not a monomial: {problem}")
    with pytest.raises(ValueError, match=message):
        FreeCdga(gens, d)
    with pytest.raises(ValueError, match=message):
        FreeCdga(gens[:-1]).extend(gens[-1:], d)
