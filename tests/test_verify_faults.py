"""Injected faults fail the verify-paper batteries with pinned reports.

Each case in ``FAULTS`` replaces one library entry point, through its
module, with a faulty version and runs the batteries.  The test pins the
exact ``(name, criterion, passed, detail)`` of every battery that fails, so
a change to how the batteries are written must keep their failure reports.
``cdga-laws`` is left out of those runs: it calls none of the patched
entries, only element arithmetic.  ``ALGEBRA_FAULTS`` covers it instead:
each case installs a faulty ``mul_keys`` or ``d_key`` on the fixture
algebras once they are built (a fault on the class would already fail the
d(d(v)) = 0 check that runs while they load) and pins the report of a
short ``cdga-laws`` run.

``python tests/test_verify_faults.py`` prints the current failures of every
case in the format of ``FAULTS``.
"""

import os
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import pytest

import rht
from rht import homotopy, models, scalability, verify

RUN = [name for name in verify.BATTERIES if name != "cdga-laws"]


def flip_sign(good):
    return lambda *args: -1 * good(*args)


def off_by_one(good):
    return lambda *args: good(*args) + 1


def doubled(good):
    return lambda *args: 2 * good(*args)


def one_negative_short(good):
    def fault(*args):
        sig = good(*args)
        return replace(sig, negative=sig.negative - 1)
    return fault


def nullspace_plus_one(good):
    def fault(n, r):
        d = good(n, r)
        return replace(d, nullspace_dim=d.nullspace_dim + 1)
    return fault


def parts_without_witness(good):
    def fault(descriptor):
        c = good(descriptor)
        return replace(c, parts=[replace(p, witness=None) for p in c.parts])
    return fault


def always_vanishing(good):
    return lambda *args: replace(good(*args), vanishes_mod_indeterminacy=True)


def all_surjective(good):
    return lambda *args: {k: True for k in good(*args)}


def unqualified_sharpness(good):
    return lambda *args: replace(good(*args), sharpness="sharp")


def rejecting(good):
    def fault(*args):
        raise ValueError("injected rejection")
    return fault


def rank_plus_one(good):
    def fault(*args):
        ob = good(*args)
        return replace(ob, rank=ob.rank + 1)
    return fault


def crashing(good):
    def fault(*args):
        raise RuntimeError("injected crash")
    return fault


# (module, entry point, fault) -> failing batteries as
# (name, criterion, passed, detail), in run order
FAULTS = {
    "integrate_0_t": (homotopy, "integrate_0_t", flip_sign, [
        ("integration", 2, False,
         "interval integration identity (0..t) fails"),
        ("obstruction", 10, False, "nonconstant-H: extension rejected: "
         "H(v) at t=1 differs from the end map"),
    ]),
    "integrate_0_1": (homotopy, "integrate_0_1", flip_sign, [
        ("integration", 2, False,
         "endpoint integration identity (0..1) fails"),
        ("obstruction", 0, False,
         "crashed: ValueError: element is not a cocycle of this degree"),
    ]),
    "hopf_invariant": (homotopy, "hopf_invariant", off_by_one, [
        ("hopf", 7, False, "projective-plane invariant is not 1"),
    ]),
    "whitehead_pair": (homotopy, "whitehead_pair", doubled, [
        ("whitehead", 5, False, "unit pairings came out as 2, 2"),
    ]),
    "wedge_pairing_signature": (scalability, "wedge_pairing_signature",
                                one_negative_short, [
        ("signatures", 6, False, "signature for n = 2 is (3, 2)"),
    ]),
    "decide_pi": (scalability, "decide_pi", nullspace_plus_one, [
        ("signatures", 6, False,
         "nullspace dimension 2 for n = 2, expected 1"),
    ]),
    "classify": (scalability, "classify", parts_without_witness, [
        ("classification", 9, False,
         "prod(S3,S5): scalable verdict without a witness"),
    ]),
    "massey_triple": (homotopy, "massey_triple", always_vanishing, [
        ("massey", 8, False,
         "cell-attachment triple product did not certify non-formality"),
    ]),
    "u0_surjectivity": (models, "u0_surjectivity", all_surjective, [
        ("massey", 8, False, "closed-generator surjectivity flags wrong: "
         "{0: True, 1: True, 2: True, 3: True, 4: True, 5: True, 6: True, "
         "7: True, 8: True}"),
    ]),
    "distortion_exponent": (models, "distortion_exponent",
                            unqualified_sharpness, [
        ("s2-model", 3, False, "distortion report DistortionReport("
         "generator='v3_0', degree=3, depth=1, exponent=4, "
         "sharpness='sharp') is not exponent 4"),
    ]),
    "extend_with_witness": (homotopy, "extend_with_witness", rejecting, [
        ("obstruction", 10, False,
         "identity-h: extension rejected: injected rejection"),
    ]),
    "obstruction_class": (homotopy, "obstruction_class", rank_plus_one, [
        ("obstruction", 10, False, "identity-h: class unexpectedly nonzero"),
    ]),
    "decide_sigma": (scalability, "decide_sigma", crashing, [
        ("signatures", 0, False, "crashed: RuntimeError: injected crash"),
    ]),
}


def koszul_signs_dropped(alg):
    good = alg.mul_keys
    alg.mul_keys = lambda m1, m2: {k: 1 for k in good(m1, m2)}


def d_signs_dropped(alg):
    good = alg.d_key
    alg.d_key = lambda key: {k: abs(c) for k, c in good(key).items()}


# fault installed on each fixture algebra -> the cdga-laws report
ALGEBRA_FAULTS = {
    "mul_keys": (koszul_signs_dropped, (
        "cdga-laws", 1, False, "graded commutativity fails in wedge335_model")),
    "d_key": (d_signs_dropped, (
        "cdga-laws", 1, False, "Leibniz rule fails in wedge335_model")),
}


@pytest.mark.parametrize("case", ALGEBRA_FAULTS)
def test_algebra_fault_fails_cdga_laws_with_pinned_detail(case, monkeypatch):
    install, expected = ALGEBRA_FAULTS[case]
    built = verify.fixture_algebras

    def faulty_fixtures():
        algebras = built()
        for alg in algebras:
            alg._mul_cache.clear()
            alg._d_cache.clear()
            install(alg)
        return algebras

    monkeypatch.setattr(verify, "fixture_algebras", faulty_fixtures)
    r = verify.run_cdga_laws(iterations=50)
    assert (r.name, r.criterion, r.passed, r.detail) == expected


def failures():
    return [(r.name, r.criterion, r.passed, r.detail)
            for r in verify.run_all(RUN) if not r.passed]


@pytest.mark.parametrize("case", FAULTS)
def test_injected_fault_fails_with_pinned_detail(case, monkeypatch):
    module, attr, fault, expected = FAULTS[case]
    monkeypatch.setattr(module, attr, fault(getattr(module, attr)))
    assert failures() == expected


def test_failed_check_survives_optimized_python():
    """A battery fails through an explicit raise, not an assert, so
    ``python -O`` still reports the failure."""
    script = textwrap.dedent("""
        import rht.homotopy, rht.verify
        rht.homotopy.hopf_invariant = lambda ring, g: 5
        (result,) = rht.verify.run_all(["hopf"])
        print(result.name, result.criterion, result.passed, result.detail)
    """)
    src = str(Path(rht.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout == "hopf 7 False projective-plane invariant is not 1\n"


if __name__ == "__main__":
    for case, (module, attr, fault, _expected) in FAULTS.items():
        good = getattr(module, attr)
        setattr(module, attr, fault(good))
        try:
            print(case, failures())
        finally:
            setattr(module, attr, good)
