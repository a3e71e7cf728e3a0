import itertools
import os
import re
import subprocess
import sys
import textwrap
import time
from pathlib import Path
from fractions import Fraction
from math import comb

import pytest
from coefficients import is_exact_coefficient

import rht
from rht import linalg
from rht import (EmbeddingWitness, FreeCdga, SetFamily, classify,
                 connected_sum_ring, decide_omega, decide_pi, decide_sigma,
                 exterior_algebra, family_local_forms, intersection_complete,
                 verify_witness, wedge_pairing_signature)
from rht import scalability
from rht.cdga import DgaMorphism, Element, Generator, TruncatedCdga
from rht.cli import main
from rht.presentations import (RingPresentation, projective_ring,
                               wedge_of_spheres_ring)
from rht.scalability import (Atom, CSum, DimensionCountRefutation,
                             ExteriorAlgebra, Prod, Wedge, WitnessReport,
                             omega_ring, parse_descriptor, pi_ring, sigma_ring,
                             subset_monomial, symplectic_form,
                             SCALABLE, NOT_SCALABLE, UNKNOWN)
from rht.scalability import (_complementary_pairs, _middle_pairs,
                             _plane_sum_witness, _projective_witness,
                             _subsets_containing_first, _verified)

F = Fraction


# -- wedge pairing signature -----------------------------------------------------


@pytest.mark.parametrize("n,expect", [(2, 3), (4, 35), (8, 6435)])
def test_signature_values(n, expect):
    sig = wedge_pairing_signature(n)
    assert sig.as_tuple() == (expect, expect)
    assert sig.positive + sig.negative == comb(2 * n, n)


def test_signature_dense_cross_check_runs_for_small_n():
    assert wedge_pairing_signature(2).dense_checked
    assert not wedge_pairing_signature(8).dense_checked


def test_signature_rejects_odd_middle_degree():
    with pytest.raises(ValueError, match="symplectic"):
        wedge_pairing_signature(3)


# -- the three families ------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_omega_flips_exactly_at_half_binomial(n):
    bound = comb(2 * n, n) // 2
    good = decide_omega(n, bound)
    bad = decide_omega(n, bound + 1)
    assert good.embeddable and good.witness is not None
    assert verify_witness(good.witness.ring, good.witness).passed
    assert not bad.embeddable and bad.refutation.check()


def test_omega_small_cases():
    one = decide_omega(1, 1)
    assert one.embeddable
    ext = one.witness.target
    assert one.witness.images["a1"] == ext["dx1"]
    three = decide_omega(2, 3)
    ext = three.witness.target
    assert [three.witness.images[f"a{i}"] for i in range(1, 4)] == \
        [subset_monomial(ext, s) for s in ((1, 2), (1, 3), (1, 4))]


def _no_rings(monkeypatch):
    import rht.scalability as sc

    def refuse(*_args, **_kwargs):
        raise AssertionError("a certificate needs no ring")

    monkeypatch.setattr(sc, "omega_ring", refuse)
    monkeypatch.setattr(sc, "sigma_ring", refuse)
    monkeypatch.setattr(sc.ConnectedSumRing, "__init__", refuse)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_omega_certificate_builds_no_ring(monkeypatch, n):
    _no_rings(monkeypatch)
    bad = decide_omega(n, comb(2 * n, n) // 2 + 1)
    assert bad.embeddable is False and bad.witness is None
    assert bad.refutation.check()


def test_sigma_certificate_builds_no_ring(monkeypatch):
    _no_rings(monkeypatch)
    bad = decide_sigma(4, 60)
    assert bad.embeddable is False and bad.refutation.check()
    assert bad.refutation.required == 60


def test_classify_large_sum_certificate_builds_no_ring(monkeypatch):
    _no_rings(monkeypatch)
    got = classify("csum(400*(S2xS2))")
    assert got.verdict == NOT_SCALABLE and got.refutation.check()


def test_classify_huge_sum_is_a_cheap_certificate():
    start = time.perf_counter()
    got = classify("csum(10000*(S2xS2))")
    assert time.perf_counter() - start < 5
    assert got.verdict == NOT_SCALABLE
    assert isinstance(got.refutation, DimensionCountRefutation)
    assert got.refutation.check()


@pytest.mark.parametrize("n", [2, 4])
def test_sigma_flips_exactly_at_half_binomial(n):
    bound = comb(2 * n, n) // 2
    good = decide_sigma(n, bound)
    bad = decide_sigma(n, bound + 1)
    assert good.embeddable
    assert verify_witness(good.witness.ring, good.witness).passed
    assert not bad.embeddable and bad.refutation.check()


def test_sigma_rejects_odd_degree():
    with pytest.raises(ValueError, match="even"):
        decide_sigma(3, 2)


@pytest.mark.parametrize("r", [0, -1])
def test_sigma_rejects_nonpositive_r(r):
    with pytest.raises(ValueError, match="n and r must be positive"):
        decide_sigma(4, r)
    for build in (sigma_ring, pi_ring):
        with pytest.raises(ValueError, match="r must be positive"):
            build(4, r)


def test_equal_powers_witness_and_relations_are_pinned():
    """Witness images, relation order and fundamental monomials, as printed."""
    images = decide_sigma(2, 3).witness.images
    assert {k: repr(v) for k, v in images.items()} == {
        "a1": "dx1*dx2 + dx3*dx4", "a2": "dx1*dx3 - dx2*dx4",
        "a3": "dx1*dx4 + dx2*dx3"}
    sigma, pi = sigma_ring(2, 3), pi_ring(3, 3)
    assert [sigma.base.format_terms(r) for r in sigma.relations] == [
        "a1*a2", "a1*a3", "a2*a3", "-a1^2 + a2^2", "-a1^2 + a3^2"]
    assert [pi.base.format_terms(r) for r in pi.relations] == [
        "a1*a2", "a1*a3", "a2*a3", "-a1^3 + a2^3", "-a1^3 + a3^3"]
    assert sigma.fundamental_monomial == ((0, 2),)
    assert pi.fundamental_monomial == ((0, 3),)


@pytest.mark.parametrize("build,n,model", [
    (sigma_ring, 2, (2, 2)), (sigma_ring, 4, (4, 2)),
    (pi_ring, 2, (2, 2)), (pi_ring, 3, (2, 3)), (pi_ring, 4, (2, 4))])
def test_one_generator_equal_powers_ring_is_truncated(build, n, model):
    """With r = 1 the fundamental class a1^power is the last power:
    sigma_ring(n, 1) is P(n, 2) and pi_ring(n, 1) is CP^n = P(2, n)."""
    ring, expect = build(n, 1), projective_ring(*model)
    through = range(2 * ring.fundamental_degree + 1)
    assert ([len(ring.basis(k)) for k in through]
            == [len(expect.basis(k)) for k in through])


@pytest.mark.parametrize("n,dim", [(2, 1), (3, 0), (4, 0), (5, 0), (6, 0)])
def test_pi_nullspace_dimensions(n, dim):
    assert decide_pi(n, 2).nullspace_dim == dim


def _omega_wedge_kernel_dim(n):
    """Nullspace dimension of the whole condition omega ^ eta = 0 over the
    C(2n, 2) coefficients of eta: one product column per unknown."""
    ext = exterior_algebra(2 * n)
    omega = symplectic_form(ext, n)
    cols = [(omega * subset_monomial(ext, pair)).terms
            for pair in itertools.combinations(range(1, 2 * n + 1), 2)]
    return len(linalg.kernel_of_columns(cols))


@pytest.mark.parametrize("n", range(3, 11))
def test_pi_reduced_system_agrees_with_the_whole_wedge_kernel(n):
    assert decide_pi(n, 2).nullspace_dim == _omega_wedge_kernel_dim(n) == 0


def test_pi_at_n_2_is_inconclusive_because_lambda_4_has_one_equation():
    """On R^4, omega ^ eta = 0 is one equation on six unknowns; the reduced
    system is no subset of it, so its nullspace line proves nothing."""
    assert _omega_wedge_kernel_dim(2) == 5
    decision = decide_pi(2, 2)
    assert decision.embeddable is None and decision.nullspace_dim == 1


def test_decide_pi_checks_each_row_against_the_wedge_equation(monkeypatch):
    """With the last symplectic pair left out of omega, the row u_1 + u_4
    no longer reads off omega ^ eta = 0 on {1, 2, 7, 8}."""
    monkeypatch.setattr(scalability, "symplectic_form",
                        lambda ext, n: symplectic_form(ext, n - 1))
    with pytest.raises(AssertionError, match="reduced system disagrees"):
        decide_pi(4, 2)


def test_decide_pi_forms_quadratically_many_exterior_products(monkeypatch):
    """decide_pi(60, 2) reads each of its C(120, 2) + 60 row entries off
    one exterior product, and ranks those rows alone: no column of
    omega ^ dx_i dx_j is formed."""
    n = 60
    products, entries = [0], []

    def mul_keys(self, m1, m2, _original=ExteriorAlgebra.mul_keys):
        products[0] += 1
        return _original(self, m1, m2)

    def kernel(cols, _original=linalg.kernel_of_columns):
        entries.append(sum(len(col) for col in cols))
        return _original(cols)

    monkeypatch.setattr(ExteriorAlgebra, "mul_keys", mul_keys)
    monkeypatch.setattr(linalg, "kernel_of_columns", kernel)
    decision = decide_pi(n, 2)
    assert decision.embeddable is False and decision.nullspace_dim == 0
    assert products[0] == entries[0] == comb(2 * n, 2) + n
    assert len(entries) == 1


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_pi_one_generator_is_cp_n_and_embeds(n):
    """At r = 1 the space is CP^n = P(2, n): x goes to the symplectic form
    of R^(2n)."""
    d = decide_pi(n, 1)
    assert d.embeddable is True and d.boundary == 1
    assert d.refutation is None and d.nullspace_dim is None
    ext = d.witness.target
    assert ext.name == f"Ext{2 * n}"
    assert d.witness.images == {"x": symplectic_form(ext, n)}
    assert d.witness.ring.name == f"P(2,{n})"
    assert verify_witness(d.witness.ring, d.witness).passed


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_pi_one_generator_carries_the_classifier_witness(n):
    """decide_pi(n, 1) and classify("CPn") build one witness: the same
    images on a ring of the same name."""
    mine, theirs = decide_pi(n, 1).witness, classify(f"CP{n}").witness
    assert mine.ring.name == theirs.ring.name == f"P(2,{n})"
    assert mine.target.name == theirs.target.name
    assert ({k: v.terms for k, v in mine.images.items()}
            == {k: v.terms for k, v in theirs.images.items()})


def test_cp_n_witness_is_bounded():
    """Past CP^12 the witness check would expand more than 2^12 terms; both
    routes to it refuse before building anything."""
    for call in (lambda: decide_pi(13, 1), lambda: classify("CP13"),
                 lambda: classify("prod(S3,CP100)")):
        with pytest.raises(ValueError, match="supported up to n = 12"):
            call()


def test_cp_n_sum_is_bounded():
    """A sum of CP^n is refuted through a system on C(2n, 2) unknowns, so
    classify takes it up to n = 100 and refuses a larger n before building
    anything."""
    assert classify("csum(2*CP100)").verdict == NOT_SCALABLE
    with pytest.raises(ValueError, match=re.escape(
            "a sum of CP101s is too large to refute: its linear system has "
            "C(202, 2) unknowns; sums of CP^n are supported up to n = 100")):
        classify("csum(2*CP101)")


def test_connected_sum_size_is_bounded_before_any_relation(monkeypatch):
    """csum(6435*OP2) lies within the inertia bound, so it classifies as
    Scalable with a checked witness and duality certificate, and its
    20,714,264 relations are never built: the ``relations`` tuple refuses
    them from the summand blocks before building one.  A sum of more than
    _MAX_CONNECTED_SUM_GENERATORS generators is refused from its atoms."""
    got = classify("csum(6435*OP2)")
    ring = got.witness.ring
    assert got.verdict == SCALABLE and ring.duality_verified
    assert verify_witness(ring, got.witness).passed
    assert "relations" not in vars(ring)

    def refuse(*args):
        raise AssertionError("built before the size was checked")

    monkeypatch.setattr(scalability.ConnectedSumRing, "cross_pairs", refuse)
    with pytest.raises(ValueError, match=r"20714264 relations; at most 1000000"):
        ring.relations
    monkeypatch.setattr(RingPresentation, "__init__", refuse)
    monkeypatch.setattr(scalability, "_complementary_pairs", refuse)
    with pytest.raises(ValueError, match=re.escape(
            "connected sum is too large to verify: it has 15002 generators; "
            "at most 15000 are supported")):
        classify("csum(7501*(S9xS9))")


def test_connected_sum_size_bound_counts_every_relation(monkeypatch):
    """The count taken from the summand blocks is the number of relations
    built: a bound equal to it admits the tuple, one less refuses it."""
    atoms = ([("sphere_product", 2, 2)] * 3 + [("projective", 2, 2)] * 2
             + [("sphere_product", 1, 3)] * 2)
    built = len(connected_sum_ring(atoms).relations)
    # 12 generators, 61 cross products, 8 even generators, 6 identifications
    assert built == (12 ** 2 - (3 * 4 + 2 * 1 + 2 * 4)) // 2 + 8 + 6
    monkeypatch.setattr(scalability, "_MAX_CONNECTED_SUM_RELATIONS", built)
    assert len(connected_sum_ring(atoms).relations) == built
    monkeypatch.setattr(scalability, "_MAX_CONNECTED_SUM_RELATIONS", built - 1)
    ring = connected_sum_ring(atoms)
    assert ring.duality_verified
    with pytest.raises(ValueError, match=f"{built} relations"):
        ring.relations


def test_pi_verdicts():
    assert decide_pi(3, 2).embeddable is False
    assert decide_pi(2, 2).embeddable is None
    with pytest.raises(ValueError):
        decide_pi(1, 2)


def test_witness_fuzz_never_passes_for_sigma_2_4(rng):
    """Random rational candidates all fail: non-existence is proved separately."""
    ring = sigma_ring(2, 4)
    ext = exterior_algebra(4)
    basis = ext.basis(2)
    failures = 0
    trials = 10_000
    for _ in range(trials):
        images = {}
        for i in range(1, 5):
            terms = {}
            for mon in basis:
                c = rng.randint(-2, 2)
                if c:
                    terms[mon] = F(c)
            images[f"a{i}"] = ext.element(terms)
        witness = EmbeddingWitness(ring, ext, images)
        if not verify_witness(ring, witness).passed:
            failures += 1
    assert failures == trials


def test_zero_witness_fails_injectivity():
    ring = sigma_ring(2, 1)
    ext = exterior_algebra(4)
    witness = EmbeddingWitness(ring, ext, {"a1": ext.zero()})
    report = verify_witness(ring, witness)
    assert not report.passed


# -- rank bound ---------------------------------------------------------------------


def within_rank_bound(ring, n):
    """A closed n-manifold ring has dim H^k at most C(n, k) in every degree."""
    return all(len(ring.basis(k)) <= comb(n, k) for k in range(n + 1))


def test_rank_bound_fail_case():
    ring = omega_ring(2, 4)
    assert [k for k in range(5) if len(ring.basis(k)) > comb(4, k)] == [2]
    assert (len(ring.basis(2)), comb(4, 2)) == (8, 6)


def test_rank_bound_pass_cases():
    assert within_rank_bound(sigma_ring(2, 3), 4)
    from rht.presentations import sphere_ring
    assert within_rank_bound(sphere_ring(5), 5)


# -- connected sums -------------------------------------------------------------------


def _rename_reduce(src_ring, dst_ring, mapping):
    """Map each relation of src through a generator renaming and reduce in dst."""
    for rel in src_ring.relations:
        terms = {}
        for mon, c in rel.items():
            factors = [(mapping[src_ring.gens[i].name], e) for i, e in mon]
            sign, key = dst_ring.base.monomial(
                [(dst_ring.base.index[n], e) for n, e in factors])
            if key is None:
                continue
            terms[key] = terms.get(key, F(0)) + c * sign
        reduced = dst_ring.reduce_terms(terms)
        assert not reduced, (f"relation {src_ring.base.format_terms(rel)} "
                             "does not vanish after renaming")


def test_four_projective_planes_present_equal_squares():
    csum = connected_sum_ring([("projective", 2, 2)] * 4)
    sigma = sigma_ring(2, 4)
    for k in range(0, 5):
        assert len(csum.basis(k)) == len(sigma.basis(k))
    _rename_reduce(sigma, csum, {f"a{i}": f"x{i}" for i in range(1, 5)})
    _rename_reduce(csum, sigma, {f"x{i}": f"a{i}" for i in range(1, 5)})


def test_sphere_product_sum_presents_omega():
    csum = omega_ring(2, 3)
    gens = [(f"a{i}", 2) for i in range(1, 4)] + [(f"b{i}", 2) for i in range(1, 4)]
    amb = FreeCdga(gens)
    rels = []
    for i in range(1, 4):
        for j in range(1, 4):
            rels.append(amb[f"a{i}"] * amb[f"a{j}"])
            rels.append(amb[f"b{i}"] * amb[f"b{j}"])
            if i != j:
                rels.append(amb[f"a{i}"] * amb[f"b{j}"])
            if i >= 2:
                rels.append(amb[f"a{i}"] * amb[f"b{i}"] - amb["a1"] * amb["b1"])
    literal = RingPresentation(gens, rels, fundamental_degree=4, duality=True)
    for k in range(0, 5):
        assert len(csum.basis(k)) == len(literal.basis(k))
    _rename_reduce(literal, csum, {g: g for g, _d in gens})
    _rename_reduce(csum, literal, {g: g for g, _d in gens})


def test_orientation_reversal_flips_top_sign():
    ring = connected_sum_ring([("projective", 2, 2)] * 2, [1, -1])
    x1, x2 = ring.base["x1"], ring.base["x2"]
    assert not ring.reduce_terms((x1 ** 2 + x2 ** 2).terms)
    assert ring.reduce_terms((x1 ** 2 - x2 ** 2).terms)


@pytest.mark.parametrize("orientation", [0, 5, -3, 2, F(1, 2), "1"])
def test_connected_sum_refuses_an_orientation_other_than_one_or_minus_one(
        orientation):
    with pytest.raises(ValueError, match=re.escape(
            f"orientation must be 1 or -1, not {orientation!r}")):
        connected_sum_ring([("sphere_product", 2, 2)] * 2, [1, orientation])


def test_connected_sum_orientations_are_stored_as_ints():
    ring = connected_sum_ring([("projective", 2, 2)] * 3, (F(1), -1.0, True))
    assert ring.name == "CP2#rev(CP2)#CP2"
    assert all(type(c) is int for r in ring.relations for c in r.values())


def test_mixed_fundamental_degree_rejected():
    with pytest.raises(ValueError, match="mixed fundamental"):
        connected_sum_ring([("sphere_product", 2, 2), ("projective", 2, 3)])


@pytest.mark.parametrize("descriptor,degrees", [
    ("csum(CP2,HP2)", "[4, 8]"), ("csum(S2xS2,CP3)", "[4, 6]"),
    ("csum(S3,CP2)", "[3, 4]"), ("prod(S2,csum(2*HP2,OP2))", "[8, 16]")])
def test_classify_refuses_mixed_dimension_sums(descriptor, degrees):
    """A connected sum needs summands of one dimension; classify refuses
    the others as connected_sum_ring does instead of calling them Unknown."""
    with pytest.raises(ValueError, match=re.escape(
            f"summands have mixed fundamental degrees {degrees}")):
        classify(descriptor)


@pytest.mark.parametrize("descriptor,reason", [
    ("csum(CP4,HP2)", "different projective atoms"),
    ("csum(S2xS4,S3xS3)", "mixed sphere-product dimensions")])
def test_same_dimension_mixed_sums_are_unknown(descriptor, reason):
    got = classify(descriptor)
    assert got.verdict == UNKNOWN and reason in got.reason


def test_connected_sum_duality_verified_structurally():
    """Every sum carries the blockwise certificate, whatever its size; the
    generic check agrees with it where it can run."""
    big = connected_sum_ring([("projective", 4, 2)] * 36)
    assert big.duality
    assert big.fundamental_monomial is not None
    assert big.duality_verified is True
    assert big.verify_blockwise_duality()
    small = connected_sum_ring([("projective", 2, 2)] * 3)
    assert small.duality_verified
    assert small.verify_duality()


@pytest.mark.parametrize("r,monomials", [(10, 190), (11, 231)])
def test_connected_sum_duality_checks_atoms_not_the_sum(monkeypatch, r,
                                                       monomials):
    """On either side of the old 200-monomial limit the generic check runs
    once, on the one-summand ring of S3xS3, and never on the sum."""
    ran = []
    real = RingPresentation.verify_duality

    def spy(ring):
        ran.append(ring)
        return real(ring)

    monkeypatch.setattr(RingPresentation, "verify_duality", spy)
    ring = omega_ring(3, r)
    assert len(ring.base.basis(6)) == monomials
    assert ring.duality_verified is True
    (atom,) = ran
    assert atom is not ring and atom.name == "S3xS3"
    assert [g.degree for g in atom.gens] == [3, 3]


def _corrupt_top_coefficient(ring):
    rel = dict(ring.top_relations[0])
    top = next(k for k in rel if k != ring.fundamental_monomial)
    rel[top] = 2
    ring.top_relations = (rel,) + ring.top_relations[1:]


def _drop_power_relation(ring):
    ring.power_relations = ring.power_relations[1:]


def _shift_summand_entry(ring):
    summand_of = list(ring.summand_of)
    summand_of[1] += 1
    ring.summand_of = tuple(summand_of)


@pytest.mark.parametrize("corrupt,message", [
    (_corrupt_top_coefficient, "a top relation has a coefficient other than +-1"),
    (_drop_power_relation, "power relations are not the summands'"),
    (_shift_summand_entry, "not one block per summand")],
    ids=["top_coefficient_2", "power_relation_dropped", "summand_shifted"])
def test_connected_sum_duality_certificate_catches_a_fault(corrupt, message):
    """One corrupted entry of a sum's structure fails the certificate."""
    ring = connected_sum_ring([("sphere_product", 2, 2), ("projective", 2, 2),
                               ("sphere_product", 1, 3)], [1, -1, 1])
    assert ring.verify_blockwise_duality()
    corrupt(ring)
    with pytest.raises(ValueError, match=re.escape(message)):
        ring.verify_blockwise_duality()


def test_connected_sum_duality_certificate_checks_each_atom(monkeypatch):
    """An atom whose one-summand ring fails the generic check fails the
    certificate: here S2xS2 without the square of its first generator."""
    real = scalability._summand

    def short(atom):
        degrees, powers, top = real(atom)
        return degrees, powers[1:], top

    monkeypatch.setattr(scalability, "_summand", short)
    with pytest.raises(ValueError, match="top degree 4 has rank 2, expected 1"):
        connected_sum_ring([("sphere_product", 2, 2)] * 2)


def _element_product_relations(atoms, orientations):
    """The connected-sum relations built as Element products in a separate
    free algebra on the same generators (the construction that preceded the
    direct term dicts)."""
    gens = []
    atom_gens = []
    for i, atom in enumerate(atoms, start=1):
        if atom[0] == "sphere_product":
            _k, n, m = atom
            names = ([(f"a{i}", n), (f"b{i}", m)] if n <= m
                     else [(f"a{i}", m), (f"b{i}", n)])
            gens.extend(names)
            atom_gens.append(tuple(nm for nm, _d in names))
        else:
            gens.append((f"x{i}", atom[1]))
            atom_gens.append((f"x{i}",))
    amb = FreeCdga(gens)

    def top_element(i):
        atom = atoms[i - 1]
        if atom[0] == "sphere_product":
            ga, gb = atom_gens[i - 1]
            return amb[ga] * amb[gb]
        (g,) = atom_gens[i - 1]
        return amb[g] ** atom[2]

    rels = []
    for i, atom in enumerate(atoms, start=1):
        if atom[0] == "sphere_product":
            ga, gb = atom_gens[i - 1]
            rels.extend(e for e in (amb[ga] ** 2, amb[gb] ** 2) if not e.is_zero())
        else:
            (g,) = atom_gens[i - 1]
            rels.append(amb[g] ** (atom[2] + 1))
    for i in range(1, len(atoms) + 1):
        for j in range(i + 1, len(atoms) + 1):
            for gi in atom_gens[i - 1]:
                for gj in atom_gens[j - 1]:
                    e = amb[gi] * amb[gj]
                    if not e.is_zero():
                        rels.append(e)
    mu1 = orientations[0] * top_element(1)
    for i in range(2, len(atoms) + 1):
        rels.append(orientations[i - 1] * top_element(i) - mu1)
    return [e for e in rels if not e.is_zero()], mu1


@pytest.mark.parametrize("atoms,orientations", [
    ([("sphere_product", 3, 3), ("sphere_product", 2, 4),
      ("sphere_product", 1, 5)], [1, -1, 1]),
    ([("sphere_product", 5, 1), ("sphere_product", 4, 2)], [-1, -1]),
    ([("projective", 2, 2), ("projective", 2, 2), ("projective", 2, 2)],
     [1, 1, -1]),
    ([("projective", 3, 1), ("projective", 3, 1)], [-1, 1]),
    ([("projective", 4, 2), ("projective", 4, 2)], [-1, -1]),
    ([("sphere_product", 2, 2), ("sphere_product", 1, 3)], [-1, 1]),
])
def test_connected_sum_relations_match_element_products(atoms, orientations):
    ring = connected_sum_ring(atoms, orientations)
    want, mu1 = _element_product_relations(atoms, orientations)
    assert [list(r.items()) for r in ring.relations] == \
        [list(e.terms.items()) for e in want]
    assert all(is_exact_coefficient(c)
               for r in ring.relations for c in r.values())
    assert [ring.base.format_terms(r) for r in ring.relations] == \
        [repr(e) for e in want]
    assert ring.generator_names() == want[0].alg.generator_names()
    assert {ring.fundamental_monomial: ring.fundamental_monomial_sign} == mu1.terms


def test_connected_sum_rejects_odd_projective_power():
    with pytest.raises(ValueError, match="odd generator"):
        connected_sum_ring([("projective", 3, 2)])


# -- set families ----------------------------------------------------------------------


def test_intersection_complete_examples():
    good = SetFamily(4, (frozenset({0, 1}), frozenset({0, 2}), frozenset({1, 2})))
    ok, violation = intersection_complete(good)
    assert ok and violation is None

    complementary = SetFamily(4, (frozenset({0, 1}), frozenset({2, 3})))
    ok, violation = intersection_complete(complementary)
    assert not ok
    assert violation[2] == "I * J"

    # subsets of fixed size containing 0, with n <= m, are always complete
    for n, m in ((2, 2), (2, 3), (3, 3)):
        members = tuple(frozenset({0} | set(tail))
                        for tail in itertools.combinations(range(1, n + m), n - 1))
        ok, _ = intersection_complete(SetFamily(n + m, members))
        assert ok


def test_set_family_invariants():
    with pytest.raises(ValueError, match="duplicate"):
        SetFamily(3, (frozenset({0}), frozenset({0})))
    with pytest.raises(ValueError, match="proper"):
        SetFamily(2, (frozenset({0, 1}),))


def test_family_local_forms_matches_omega_witness():
    members = tuple(frozenset({0, i}) for i in range(1, 4))
    forms = family_local_forms(SetFamily(4, members))
    assert forms.caveat is None
    assert verify_witness(forms.ring, forms.witness).passed
    ext = forms.witness.target
    assert [forms.witness.images[f"a{i}"] for i in range(1, 4)] == \
        [subset_monomial(ext, [0, i]) for i in range(1, 4)]


def test_family_local_forms_circle_caveat():
    forms = family_local_forms(SetFamily(2, (frozenset({0}),)))
    assert forms.caveat is not None
    assert verify_witness(forms.ring, forms.witness).passed


def test_family_local_forms_rejects_incomplete():
    with pytest.raises(ValueError, match="intersection-complete"):
        family_local_forms(SetFamily(4, (frozenset({0, 1}), frozenset({2, 3}))))


# -- descriptor grammar -------------------------------------------------------------------


def test_descriptor_parsing():
    node = parse_descriptor("csum(2*(S2xS2), 1*rev(CP2))")
    assert isinstance(node, CSum)
    (c1, a1), (c2, a2) = node.parts
    assert c1 == 2 and a1 == Atom("sphere_product", (2, 2))
    assert c2 == 1 and a2 == Atom("projective", (2, 2), True)
    assert isinstance(parse_descriptor("prod(S3, S5)"), Prod)
    assert isinstance(parse_descriptor("wedge(S3,S3,S5)"), Wedge)
    with pytest.raises(ValueError, match="unsupported"):
        parse_descriptor("T4")


@pytest.mark.parametrize("descriptor,head", [
    ("csum(2*CP2,,CP2)", "csum"), ("prod(S3,)", "prod"), ("wedge(,S3)", "wedge"),
    ("prod(csum(CP2, ,CP2),S2)", "csum"), ("csum(,)", "csum")])
def test_empty_descriptor_arguments_are_refused(descriptor, head):
    with pytest.raises(ValueError, match=rf"{head}\(\) has an empty argument"):
        parse_descriptor(descriptor)


# -- classification --------------------------------------------------------------------------


TABLE = [
    ("S2", SCALABLE), ("S7", SCALABLE), ("CP2", SCALABLE), ("CP4", SCALABLE),
    ("HP2", SCALABLE), ("OP2", SCALABLE),
    ("csum(2*CP2)", SCALABLE), ("csum(3*CP2)", SCALABLE),
    ("csum(3*CP2,3*rev(CP2))", SCALABLE),
    ("csum(4*CP2)", NOT_SCALABLE), ("csum(1*CP2,4*rev(CP2))", NOT_SCALABLE),
    ("csum(3*(S2xS2))", SCALABLE), ("csum(4*(S2xS2))", NOT_SCALABLE),
    ("csum(2*CP3)", NOT_SCALABLE), ("csum(36*HP2)", NOT_SCALABLE),
    ("csum(1*(S2xS2),1*CP2)", UNKNOWN),
    ("prod(S3,S5)", SCALABLE), ("wedge(S3,S3,S5)", SCALABLE),
    ("prod(CP2,wedge(S3,S3))", SCALABLE),
    ("prod(S2,csum(4*CP2))", NOT_SCALABLE),
    ("wedge(S2,csum(1*(S2xS2),1*CP2))", UNKNOWN),
    ("csum(5*(S2xS4))", SCALABLE),
    ("csum(11*(S2xS4))", UNKNOWN),
    ("csum(16*(S2xS4))", NOT_SCALABLE),
]


@pytest.mark.parametrize("descriptor,expected", TABLE)
def test_classification_table(descriptor, expected):
    got = classify(descriptor)
    assert got.verdict == expected, got.reason
    if expected == NOT_SCALABLE:
        assert got.refutation is not None and got.refutation.check()


def _scalable_csum_rings():
    yield connected_sum_ring([("projective", 2, 2)] * 3), 4
    yield omega_ring(2, 3), 4
    yield connected_sum_ring([("sphere_product", 2, 4)] * 5), 6


def test_classify_consistent_with_rank_bound():
    """Nothing failing the rank bound is ever classified scalable."""
    for ring, dim in _scalable_csum_rings():
        assert within_rank_bound(ring, dim)
    got = classify("csum(4*(S2xS2))")
    assert got.verdict == NOT_SCALABLE
    assert not within_rank_bound(omega_ring(2, 4), 4)


def test_every_scalable_verdict_carries_verified_witness():
    for descriptor in ("S4", "CP3", "csum(3*CP2)", "csum(3*(S2xS2))",
                       "csum(2*(S2xS4))"):
        got = classify(descriptor)
        assert got.verdict == SCALABLE
        assert got.witness is not None
        assert verify_witness(got.witness.ring, got.witness).passed


def test_failed_witness_check_raises_under_optimized_python():
    """A witness that fails verify_witness is never returned, even with -O."""
    script = textwrap.dedent("""
        import rht.scalability as sc
        sc.verify_witness = lambda ring, witness: sc.WitnessReport(
            False, message="forced failure")
        for descriptor in ("S3", "CP3"):
            try:
                sc.classify(descriptor)
            except AssertionError as exc:
                print(descriptor, "raised", exc)
            else:
                print(descriptor, "returned")
    """)
    src = str(Path(rht.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.splitlines() == [
        "S3 raised sphere witness failed verification: forced failure",
        "CP3 raised projective witness failed verification: forced failure"]


def test_unsupported_descriptors_rejected():
    with pytest.raises(ValueError):
        classify("csum(2*S3)")
    with pytest.raises(ValueError):
        classify("HP3")


@pytest.mark.parametrize("descriptor,token", [
    ("S", "'S'"), ("S2xS", "'S'"), ("CP", "'CP'"), ("S-1", "'S-1'"),
    ("S0", "'S0'"), ("CP0", "'CP0'"), ("csum(2*(S2xS))", "'S'")])
def test_bad_atom_tokens_are_named(descriptor, token):
    with pytest.raises(ValueError, match=f"bad space descriptor {token}"):
        classify(descriptor)


@pytest.mark.parametrize("descriptor,cnt", [
    ("csum(x*S2)", "'x'"), ("csum(*S2)", "''"), ("csum(0*CP2)", "'0'"),
    ("csum(-1*CP2)", "'-1'")])
def test_bad_multiplicities_are_named(descriptor, cnt):
    with pytest.raises(ValueError, match=f"positive whole number, got {cnt}"):
        classify(descriptor)


@pytest.mark.parametrize("descriptor", [
    "csum(2*CP1)", "csum(CP1,rev(CP1))", "csum(1*CP1,1*S2)"])
def test_cp1_sums_rejected_as_sphere_sums(descriptor):
    with pytest.raises(ValueError, match="bare spheres"):
        classify(descriptor)
    assert classify("CP1").verdict == SCALABLE


# -- exterior algebras against their free-algebra form ------------------------------


def _mask_key(mask):
    """The FreeCdga key of an exterior monomial: its set bits, ascending."""
    return tuple((i, 1) for i in range(mask.bit_length()) if mask >> i & 1)


def free_form(ext):
    """The exterior algebra ``ext`` as a FreeCdga on the same degree-1
    generators, with tuple keys ((i, 1), ...)."""
    return FreeCdga([(g.name, 1) for g in ext.gens], name=ext.name)


def to_free(free, terms):
    """Exterior terms as an element of the free-algebra form."""
    return Element(free, {_mask_key(m): c for m, c in terms.items()})


@pytest.mark.parametrize("n", range(7))
def test_exterior_algebra_matches_its_free_form(rng, n):
    """Basis order, every monomial product with its sign, and the text of
    random elements agree with the FreeCdga on n odd degree-1 generators."""
    ext = exterior_algebra(n, first_index=0)
    free = free_form(ext)
    for k in range(-1, n + 2):
        assert [_mask_key(m) for m in ext.basis(k)] == list(free.basis(k))
    keys = [m for k in range(n + 1) for m in ext.basis(k)]
    for m1 in keys:
        for m2 in keys:
            assert {_mask_key(m): c for m, c in ext.mul_keys(m1, m2).items()} \
                == free.mul_keys(_mask_key(m1), _mask_key(m2))
    for _ in range(50):
        terms = {rng.choice(keys): F(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3))
                 for _ in range(rng.randint(0, 6))}
        assert ext.format_terms(terms) == \
            free.format_terms(to_free(free, terms).terms)


def test_subset_monomial_rejects_a_repeated_index():
    ext = exterior_algebra(4)
    assert subset_monomial(ext, [2, 1]) == ext["dx1"] * ext["dx2"]
    with pytest.raises(ValueError, match="index 1 repeats"):
        subset_monomial(ext, [1, 1])


@pytest.mark.parametrize("first,index,valid", [
    (1, 9, "1..4"), (1, 0, "1..4"), (1, -1, "1..4"), (0, 4, "0..3")])
def test_subset_monomial_rejects_an_index_out_of_range(first, index, valid):
    """An index with no generator raises ValueError naming the index and the
    valid range, as a repeated one does (not KeyError)."""
    ext = exterior_algebra(4, first_index=first)
    with pytest.raises(ValueError,
                       match=f"index {index} is out of range {valid}$"):
        subset_monomial(ext, [first, index])


@pytest.mark.parametrize("first", [0, 1])
def test_generator_names_are_subset_monomials(first):
    ext = exterior_algebra(6, first_index=first)
    assert ext.generator_names() == tuple(f"dx{i}" for i in range(first, first + 6))
    for i in range(first, first + 6):
        assert ext[f"dx{i}"] == subset_monomial(ext, [i])
        assert ext.gen_key(f"dx{i}") == 1 << (i - first)


@pytest.mark.parametrize("first,name", [
    (1, "dx0"), (1, "dx5"), (1, "dx01"), (1, "dx+1"), (1, "dx²"), (1, "dx١"),
    (1, "ab1"), (1, ""), (0, "dx4"), (0, "dx-0"), (0, "dx 1"), (0, "dx"),
    (0, None)])
def test_gen_key_rejects_every_other_name_with_a_key_error(first, name):
    """Only the exact spelling dx{first_index + p} is a generator: a name
    int() would accept but that does not round-trip, or one int() rejects,
    raises KeyError, never ValueError."""
    ext = exterior_algebra(4, first_index=first)
    with pytest.raises(KeyError):
        ext.gen_key(name)
    with pytest.raises(KeyError):
        ext[name]


def test_gen_key_reads_a_negative_first_index():
    ext = exterior_algebra(3, first_index=-1)
    assert [ext.gen_key(name) for name in ext.generator_names()] == [1, 2, 4]
    assert ext.format_key(7) == "dx-1*dx0*dx1"


def inversion_pairs(ext, subsets):
    """(mask of dx_I, mask of dx_(I^c), s_I) for each index set I, with s_I
    the parity of the pairs i in I, j in I^c with j < i."""
    first = ext.first_index
    total = range(first, first + ext.n)
    out = []
    for subset in subsets:
        comp = [i for i in total if i not in subset]
        swaps = sum(1 for i in subset for j in comp if j < i)
        out.append((sum(1 << (i - first) for i in subset),
                    sum(1 << (j - first) for j in comp), (-1) ** swaps))
    return out


@pytest.mark.parametrize("first", [0, 1])
@pytest.mark.parametrize("n", range(1, 9))
def test_complementary_pairs_match_the_inversion_count(n, first):
    """On every index set, the pair and its sign read from mul_keys agree
    with the inversion count, and the pair multiplies to +volume."""
    ext = exterior_algebra(n, first_index=first)
    indices = range(first, first + n)
    subsets = [s for k in range(n + 1) for s in itertools.combinations(indices, k)]
    pairs = _complementary_pairs(ext, subsets)
    expected = inversion_pairs(ext, subsets)
    volume = ext.element({(1 << n) - 1: 1})
    assert len(pairs) == len(expected) == 2 ** n
    for (lo, hi), (mask, comp, sign) in zip(pairs, expected):
        assert lo.terms == {mask: 1}
        assert hi.terms == {comp: sign}
        assert lo * hi == volume


def test_scalable_sphere_builds_no_generator_objects(monkeypatch, capsys):
    """The witness of S400000 targets Ext400000 without one Generator per
    dimension: the algebra is its two numbers, and ``gens`` is built only
    when asked for."""
    built = []

    class Counted(Generator):
        def __post_init__(self):
            built.append(self.name)
            super().__post_init__()

    monkeypatch.setattr(scalability, "Generator", Counted)
    assert main(["scalable", "S400000", "--machine"]) == 0
    assert "verdict = Scalable\n" in capsys.readouterr().out
    assert built == []
    assert len(exterior_algebra(3).gens) == 3 and built == ["dx1", "dx2", "dx3"]


def test_scalable_sphere_cost_is_linear_in_the_dimension(capsys):
    """``rht scalable S<k>`` builds, checks and prints one k-bit mask; with
    the mask built or read bit by bit it grows as k^2, and S400000 took 27
    times as long as S50000."""
    def seconds(k):
        best = float("inf")
        for _ in range(2):
            start = time.perf_counter()
            code = main(["scalable", f"S{k}", "--machine"])
            best = min(best, time.perf_counter() - start)
            assert code == 0
            assert "verdict = Scalable\n" in capsys.readouterr().out
        return best

    assert seconds(400000) < 16 * seconds(50000)


# -- witnesses against the free-algebra form -------------------------------------------


def oracle_morphism(ring, witness):
    """The witness's images carried into the free-algebra form of the
    target."""
    free = free_form(witness.target)
    return DgaMorphism(ring.base, free, {name: to_free(free, img.terms)
                                         for name, img in witness.images.items()})


def oracle_relation_images(ring, witness):
    """Each relation's image through ``oracle_morphism``, one Element at a
    time."""
    phi = oracle_morphism(ring, witness)
    return [phi.apply(Element(ring.base, rel)) for rel in ring.relations]


def oracle_failure(ring, images):
    """(failing_relation, message) of the first relation whose oracle image
    is nonzero, as verify_witness reports it, or None."""
    for rel, img in zip(ring.relations, images):
        if not img.is_zero():
            shown = ring.base.format_terms(rel)
            return shown, f"relation {shown} maps to {img}"
    return None


def oracle_report(ring, witness):
    """The report of verify_witness on a ring with the duality flag, worked
    out relation by relation in the free-algebra form of the target."""
    failure = oracle_failure(ring, oracle_relation_images(ring, witness))
    if failure is not None:
        return WitnessReport(False, failing_relation=failure[0],
                             message=failure[1])
    mu = ring.fundamental_monomial
    if mu is None:
        mu = ring.top_basis_key()
    if oracle_morphism(ring, witness).apply(Element(ring.base, {mu: 1})).is_zero():
        return WitnessReport(False, failing_degree=ring.fundamental_degree,
                             message="fundamental class maps to zero")
    return WitnessReport(True, message="relations verified; duality shortcut")


def kernel_relation_images(ring, witness):
    """Each relation's image through the witness's own morphism."""
    phi = witness.morphism()
    return [phi.apply_terms(rel) for rel in ring.relations]


def check_kernel_against_oracle(ring, witness):
    got = kernel_relation_images(ring, witness)
    want = oracle_relation_images(ring, witness)
    assert [{_mask_key(m): c for m, c in img.items()} for img in got] == \
        [img.terms for img in want]
    assert all(is_exact_coefficient(c) for img in got for c in img.values())
    report = verify_witness(ring, witness)
    failure = oracle_failure(ring, want)
    if failure is None:
        assert report.failing_relation is None
        if ring.duality:   # the verdict is the fundamental class's survival
            mu = ring.fundamental_monomial
            if mu is None:
                mu = ring.top_basis_key()
            top = oracle_morphism(ring, witness).apply(Element(ring.base, {mu: 1}))
            assert report.passed == (not top.is_zero())
    else:
        assert not report.passed
        assert (report.failing_relation, report.message) == failure


def _family_witness():
    members = _subsets_containing_first(2, 5, 6, 0)
    return family_local_forms(SetFamily(6, tuple(map(frozenset, members)))).witness


KERNEL_WITNESSES = {
    **{f"omega_{n}_{r}": (lambda n=n, r=r: decide_omega(n, r).witness)
       for n, r in ((2, 1), (2, 2), (2, 3), (3, 2), (3, 4), (3, 10))},
    "sigma_2_3": lambda: decide_sigma(2, 3).witness,
    "sigma_4_35": lambda: decide_sigma(4, 35).witness,
    "plane_sum_CP2_2_1": lambda: _plane_sum_witness(2, 2, 1),
    "plane_sum_CP2_0_3": lambda: _plane_sum_witness(2, 0, 3),
    "plane_sum_HP2_3_2": lambda: _plane_sum_witness(4, 3, 2),
    "CP3": lambda: _projective_witness(2, 3),
    "S4": lambda: classify("S4").witness,
    "HP2": lambda: _projective_witness(4, 2),
    "family_6_5": _family_witness,
    "csum_3_S2xS4": lambda: classify("csum(3*(S2xS4))").witness,
}


@pytest.mark.parametrize("name", sorted(KERNEL_WITNESSES))
def test_kernel_matches_oracle_on_every_witness(name):
    witness = KERNEL_WITNESSES[name]()
    assert witness.ring.relations
    check_kernel_against_oracle(witness.ring, witness)
    assert verify_witness(witness.ring, witness).passed


def random_candidate(ring, ext, choose_terms):
    """The witness sending each generator of ``ring`` to the sum of c * mon
    over ``choose_terms(basis)``, a list of (monomial, coefficient) pairs
    drawn from the degree-matching basis of ``ext``."""
    images = {g.name: ext.element(dict(choose_terms(ext.basis(g.degree))))
              for g in ring.gens}
    return EmbeddingWitness(ring, ext, images)


def random_terms(rng):
    """Two to five distinct monomials with coefficients in -2..2, not 0."""
    def choose(basis):
        mons = rng.sample(basis, rng.randint(2, min(5, len(basis))))
        return [(mon, F(rng.choice((-2, -1, 1, 2)))) for mon in mons]
    return choose


@pytest.mark.parametrize("make_ring,ext_dim", [
    (lambda: sigma_ring(2, 4), 4), (lambda: pi_ring(3, 2), 6)],
    ids=["sigma_2_4", "pi_3_2"])
def test_kernel_matches_oracle_on_random_candidates(rng, make_ring, ext_dim):
    ring, ext = make_ring(), exterior_algebra(ext_dim)
    choose = random_terms(rng)
    for _ in range(2000):
        check_kernel_against_oracle(ring, random_candidate(ring, ext, choose))


def test_kernel_matches_oracle_on_unit_and_power_relations():
    gens = [("x", 2), ("y", 2)]
    amb = FreeCdga(gens)
    x, y = amb["x"], amb["y"]
    ring = RingPresentation(gens, [x * y - y * y, x ** 2 * y, 3 * x ** 2,
                                   amb.scalar(F(-2, 3))])
    ext = exterior_algebra(4)
    images = {"x": subset_monomial(ext, [1, 2]) + subset_monomial(ext, [3, 4]),
              "y": subset_monomial(ext, [1, 3]) - 2 * subset_monomial(ext, [2, 4])}
    witness = EmbeddingWitness(ring, ext, images)
    check_kernel_against_oracle(ring, witness)
    assert [bool(img) for img in kernel_relation_images(ring, witness)] == \
        [True, False, True, True]


# -- failure reports -----------------------------------------------------------------


def _broken_omega(n, r, first, second):
    witness = decide_omega(n, r).witness
    images = dict(witness.images)
    images[first], images[second] = images[second], images[first]
    return witness.ring, witness.target, images


def _broken_sigma():
    witness = decide_sigma(2, 3).witness
    ((first, second),) = _middle_pairs(witness.target, 2, 3)[1:2]
    images = dict(witness.images, a2=first - second)
    return witness.ring, witness.target, images


def _broken_plane_sum():
    """CP2#CP2#rev(CP2) with x3 sent where x2 goes: x1 * x3 still cancels,
    x2 * x3 = x2^2 does not."""
    witness = _plane_sum_witness(2, 2, 1)
    images = dict(witness.images, x3=witness.images["x2"])
    return witness.ring, witness.target, images


def _broken_s2xs4_sum():
    """csum(3*(S2xS4)) into Lambda R^6 with a2 sent to dx2*dx3, disjoint from
    a1's dx0*dx1: a product of degree 2 + 2 < 6 that survives."""
    witness = classify("csum(3*(S2xS4))").witness
    images = dict(witness.images, a2=subset_monomial(witness.target, [2, 3]))
    return witness.ring, witness.target, images


@pytest.mark.parametrize("build,relation,message", [
    (lambda: _broken_omega(2, 3, "a1", "a2"), "a1*b2",
     "relation a1*b2 maps to dx1*dx2*dx3*dx4"),
    (lambda: _broken_omega(3, 10, "a3", "a7"), "a3*b7",
     "relation a3*b7 maps to dx1*dx2*dx3*dx4*dx5*dx6"),
    (_broken_sigma, "-a1^2 + a2^2",
     "relation -a1^2 + a2^2 maps to -4*dx1*dx2*dx3*dx4"),
    (_broken_plane_sum, "x2*x3", "relation x2*x3 maps to 2*dx1*dx2*dx3*dx4"),
    (_broken_s2xs4_sum, "a1*a2", "relation a1*a2 maps to dx0*dx1*dx2*dx3"),
], ids=["omega_2_3", "omega_3_10", "sigma_2_3", "plane_sum_CP2_2_1",
        "csum_3_S2xS4"])
def test_broken_witness_reports_are_pinned(build, relation, message):
    ring, ext, images = build()
    witness = EmbeddingWitness(ring, ext, images)
    report = verify_witness(ring, witness)
    assert report == WitnessReport(False, failing_relation=relation,
                                   message=message)
    assert oracle_failure(ring, oracle_relation_images(ring, witness)) == \
        (relation, message)
    with pytest.raises(AssertionError, match="omega witness failed "
                       "verification: " + re.escape(message)):
        _verified(ring, ext, images, "omega")


def _wedge_witness(**images):
    """wedge_of_spheres_ring([2, 2]) into Lambda R^4, x_i -> dx_I."""
    ring = wedge_of_spheres_ring([2, 2])
    ext = exterior_algebra(4)
    images = {name: c * subset_monomial(ext, subset)
              for name, (c, subset) in images.items()}
    return ring, EmbeddingWitness(ring, ext, images)


@pytest.mark.parametrize("images,report", [
    (dict(x0=(1, [1, 2]), x1=(1, [1, 3])),
     WitnessReport(True, message="relations and degreewise independence "
                                 "verified")),
    (dict(x0=(1, [1, 2]), x1=(2, [1, 2])),
     WitnessReport(False, failing_degree=2,
                   message="images of the degree-2 basis are linearly "
                           "dependent")),
    (dict(x0=(1, [1, 2]), x1=(1, [3, 4])),
     WitnessReport(False, failing_relation="x0*x1",
                   message="relation x0*x1 maps to dx1*dx2*dx3*dx4")),
], ids=["independent", "dependent", "relation"])
def test_degreewise_witness_reports_are_pinned(images, report):
    """A ring without the duality flag takes the degreewise branch."""
    ring, witness = _wedge_witness(**images)
    assert not ring.duality
    assert verify_witness(ring, witness) == report


@pytest.mark.parametrize("power,report", [
    (4, WitnessReport(False, failing_degree=6,
                      message="images of the degree-6 basis are linearly "
                              "dependent")),
    (3, WitnessReport(True, message="relations and degreewise independence "
                                    "verified")),
])
def test_degreewise_witness_checks_past_the_target_top(power, report):
    """x -> omega on R^4 kills x^3 in degree 6, past the target's top degree:
    Q[x]/(x^4) must fail there, and Q[x]/(x^3) still embeds."""
    amb = FreeCdga([("x", 2)])
    ring = RingPresentation([("x", 2)], [amb["x"] ** power])
    ext = exterior_algebra(4)
    witness = EmbeddingWitness(ring, ext, {"x": symplectic_form(ext, 2)})
    assert verify_witness(ring, witness) == report


def basis_requests(monkeypatch):
    """Spy on FreeCdga.basis and ExteriorAlgebra.basis: the list of
    (algebra name, degree) asked for."""
    asked = []
    for cls in (FreeCdga, ExteriorAlgebra):
        def spied(self, degree, _original=cls.basis):
            asked.append((self.name, degree))
            return _original(self, degree)

        monkeypatch.setattr(cls, "basis", spied)
    return asked


def element_inits(monkeypatch):
    """Spy on Element.__init__: a one-item list counting its calls."""
    count = [0]

    def spied(self, alg, terms=None, _original=Element.__init__):
        count[0] += 1
        _original(self, alg, terms)

    monkeypatch.setattr(Element, "__init__", spied)
    return count


def test_connected_sum_copies_no_relation(monkeypatch):
    """omega_ring(5, 126) wraps its 31,625 relation dicts instead of copying
    each through Element.__init__, and the witness's morphism keeps nothing
    per mapped relation."""
    inits = element_inits(monkeypatch)
    ring = omega_ring(5, 126)
    assert len(ring.relations) == 31625 and len(ring.gens) == 252
    assert inits[0] <= len(ring.gens)
    phi = decide_omega(5, 126).witness.morphism()
    sizes = {name: len(value) for name, value in vars(phi).items()
             if isinstance(value, (dict, list, tuple, set))}
    assert sizes == {"images": 252, "_gen_terms": 252}


def apply_terms_calls(monkeypatch):
    """Spy on DgaMorphism.apply_terms: a one-item list counting its calls."""
    count = [0]

    def spied(self, terms, _original=DgaMorphism.apply_terms):
        count[0] += 1
        return _original(self, terms)

    monkeypatch.setattr(DgaMorphism, "apply_terms", spied)
    return count


@pytest.mark.parametrize("verdict", [
    lambda: decide_omega(5, 126), lambda: classify("csum(1412*OP2)")],
    ids=["omega_5_126", "csum_1412_OP2"])
def test_witness_path_builds_no_cross_product_relation(monkeypatch, verdict):
    """The cross products are checked by mask: the witness path never builds
    the relations tuple, and maps only the power and top relations and the
    fundamental class through apply_terms."""
    calls = apply_terms_calls(monkeypatch)
    ring = verdict().witness.ring
    assert "relations" not in vars(ring)
    assert calls[0] <= len(ring.power_relations) + len(ring.top_relations) + 1


@pytest.mark.parametrize("descriptor", ["csum(2*(S12xS24))", "csum(2*(S15xS30))"])
def test_cross_product_lookups_are_bounded_by_the_pairwise_count(monkeypatch,
                                                                 descriptor):
    """In a sum of unequal sphere products the degrees d1 + d2 of a cross
    product fall short of N, and the masks disjoint from a term of a_i are
    C(N - d1, d2) subsets (C(24, 12), about 2.7 million, for S12xS24).  The
    pass scans the few image masks instead, so checking the witness draws
    no more subsets than multiplying the images out pairwise takes
    products.  The spy is in place while classify builds and checks the
    witness too, and stops any run that draws a thousand subsets."""
    drawn = [0]

    def spied(iterable, r, _original=itertools.combinations):
        for subset in _original(iterable, r):
            drawn[0] += 1
            if drawn[0] > 1000:
                raise AssertionError("more than 1000 subsets drawn")
            yield subset

    monkeypatch.setattr(itertools, "combinations", spied)
    witness = classify(descriptor).witness
    ring = witness.ring
    images = [e.terms for e in witness.morphism().images.values()]
    bound = sum(len(images[p]) * len(images[q]) for p, q in ring.cross_pairs())
    drawn[0] = 0
    assert verify_witness(ring, witness).passed
    assert drawn[0] <= bound


def test_connected_sum_relations_on_demand_keep_their_order():
    """omega_ring(5, 126).relations, asked for after the witness path, is the
    31,625 relations in the order the sum always had: every product of
    generators from summands i < j, then a_i*b_i - a1*b1 for i >= 2."""
    witness = decide_omega(5, 126).witness
    ring = witness.ring
    want = [f"{g}{i}*{h}{j}" for i in range(1, 127) for j in range(i + 1, 127)
            for g in "ab" for h in "ab"]
    want += [f"-a1*b1 + a{i}*b{i}" for i in range(2, 127)]
    assert [ring.base.format_terms(r) for r in ring.relations] == want
    assert ring.relations is ring.relations


def test_decide_pi_enumerates_no_exterior_4_forms(monkeypatch):
    asked = basis_requests(monkeypatch)
    decision = decide_pi(6, 2)
    assert decision.embeddable is False and decision.nullspace_dim == 0
    assert ("Ext12", 4) not in asked


def test_degreewise_witness_enumerates_no_target_basis(monkeypatch):
    ring, witness = _wedge_witness(x0=(1, [1, 2]), x1=(1, [1, 3]))
    asked = basis_requests(monkeypatch)
    assert verify_witness(ring, witness).passed
    assert asked and all(name != "Ext4" for name, _degree in asked)


def test_broken_witness_raises_under_optimized_python():
    script = textwrap.dedent("""
        import rht.scalability as sc
        w = sc.decide_omega(2, 3).witness
        images = dict(w.images, a1=w.images["a2"], a2=w.images["a1"])
        try:
            sc._verified(w.ring, w.target, images, "omega")
        except AssertionError as exc:
            print("raised", exc)
        else:
            print("returned")
    """)
    src = str(Path(rht.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.splitlines() == [
        "raised omega witness failed verification: relation a1*b2 maps to "
        "dx1*dx2*dx3*dx4"]


def test_witness_target_must_be_exterior():
    ring = sigma_ring(2, 1)
    target = FreeCdga([("dx1", 1), ("y", 2)])
    with pytest.raises(ValueError, match="degree 1"):
        EmbeddingWitness(ring, target, {"a1": target["y"]})
    base = exterior_algebra(4)
    truncated = TruncatedCdga(base, 4)
    with pytest.raises(ValueError, match="exterior algebra"):
        EmbeddingWitness(ring, truncated, {"a1": truncated.zero()})


def test_witness_target_free_on_degree_1_is_not_exterior():
    """Only ExteriorAlgebra is a witness target, not the free-algebra form."""
    ring = sigma_ring(2, 1)
    free = free_form(exterior_algebra(4))
    with pytest.raises(ValueError, match="exterior algebra"):
        EmbeddingWitness(ring, free, {"a1": free["dx1"] * free["dx2"]})


def test_witness_image_of_wrong_degree_rejected_at_construction():
    ring = sigma_ring(2, 1)
    ext = exterior_algebra(4)
    with pytest.raises(ValueError, match="not homogeneous of degree 2"):
        EmbeddingWitness(ring, ext, {"a1": ext["dx1"]})
    with pytest.raises(ValueError, match="not homogeneous of degree 2"):
        EmbeddingWitness(ring, ext, {"a1": ext["dx1"] + ext["dx1"] * ext["dx2"]})


def test_witness_morphism_is_the_checked_one():
    witness = decide_sigma(2, 3).witness
    assert witness.morphism() is witness.morphism()
    assert witness.morphism().images == {g.name: witness.images[g.name]
                                         for g in witness.ring.gens}


def test_witness_for_another_presentation_rejected():
    witness = decide_sigma(2, 3).witness
    with pytest.raises(ValueError, match="another presentation"):
        verify_witness(sigma_ring(2, 3), witness)


def test_classifier_families_are_complete_without_a_pair_scan(monkeypatch):
    """The classifier's families share index 0, have one member size n and
    lie in a ground set larger than 2n, so every quadrant is settled for
    the whole family and no pair is looked at."""
    members = [frozenset(s) for s in _subsets_containing_first(6, 1287, 14, 0)]
    family = SetFamily(14, tuple(members))

    def refuse(*args):
        raise AssertionError("a pair was scanned")

    monkeypatch.setattr(scalability.itertools, "combinations", refuse)
    assert intersection_complete(family) == (True, None)
