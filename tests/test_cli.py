import subprocess
import sys
import time
from fractions import Fraction
from importlib import resources

import pytest

import golden_errors
import rht.homotopy
import rht.models
from rht.cli import main
from rht.fileformat import MAX_NESTING, MAX_POWER_TERMS
from rht.report import SCHEMA


def data_path(name):
    return str(resources.files("rht").joinpath("data").joinpath(name))


def machine_report(out):
    """The fields of a ``--machine`` report, in order: one ``key = value``
    pair per line, the first naming the schema."""
    fields = dict(line.split(" = ", 1) for line in out.splitlines())
    assert next(iter(fields.items())) == ("schema", SCHEMA)
    return fields


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cohomology_command_ranks(capsys):
    code, out, _ = run_cli(capsys, "cohomology", data_path("s2_model.cdga"),
                           "--through", "7", "--machine")
    assert code == 0
    report = machine_report(out)
    assert report.get("ranks") == "1,0,1,0,0,0,0,0"


def test_cohomology_single_degree(capsys):
    code, out, _ = run_cli(capsys, "cohomology", data_path("wedge335_seed.cdga"),
                           "--degree", "6", "--machine")
    assert code == 0
    report = machine_report(out)
    assert report.get("degree.6.rank") == "1"
    assert report.get("degree.6.rep.0") == "a*b"


def test_cohomology_malformed_file_names_line(capsys, tmp_path):
    bad = tmp_path / "bad.cdga"
    bad.write_text("cdga t\ngen a 2\ngen b 3\nd b = a\n", encoding="utf-8")
    code, _out, err = run_cli(capsys, "cohomology", str(bad), "--degree", "2")
    assert code == 2
    assert "line 4" in err


def test_cohomology_refuses_a_negative_through(capsys):
    """A negative cap has no degrees to report; it exits 2 naming the
    value instead of printing an empty rank list."""
    code, out, err = run_cli(capsys, "cohomology", data_path("s2_model.cdga"),
                             "--through", "-3")
    assert (code, out) == (2, "")
    assert err == "error: --through must be at least 0, got -3\n"


@pytest.mark.parametrize("name", golden_errors.ERRORS)
def test_bad_input_fails_as_recorded(name):
    """Each row of the bad-input table exits with its recorded code and
    prints its recorded stderr, and nothing on stdout."""
    assert golden_errors.mismatch(name) is None


def test_model_command_bigraded(capsys):
    code, out, _ = run_cli(capsys, "model", data_path("cp2.ring"),
                           "--bigraded", "--through", "12", "--machine")
    assert code == 0
    report = machine_report(out)
    rows = [v for k, v in report.items() if k.startswith("gen.")]
    assert any("degree=2" in r and "stage=0" in r for r in rows)
    assert any("degree=5" in r and "stage=1" in r for r in rows)


def test_model_command_warns_below_first_generator(capsys, tmp_path):
    ring = tmp_path / "s9.ring"
    ring.write_text("ring s9\ngen x 9\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "model", str(ring), "--through", "8",
                           "--machine")
    assert code == 0
    assert "warning" in out


def test_distortion_command(capsys):
    code, out, _ = run_cli(capsys, "distortion", data_path("s2_model.cdga"),
                           "--class", "b", "--machine")
    assert code == 0
    assert machine_report(out).get("exponent") == "4"
    code, out, _ = run_cli(capsys, "distortion", data_path("cp2_model.cdga"),
                           "--class", "y", "--machine")
    assert code == 0
    report = machine_report(out)
    assert report.get("exponent") == "6"
    assert report.get("sharpness") == "sharp-if-scalable"


def test_distortion_unknown_class(capsys):
    code, _out, err = run_cli(capsys, "distortion", data_path("s2_model.cdga"),
                              "--class", "nope")
    assert code == 2
    assert "unknown class" in err


def test_distortion_depth_sweep_stall_exits_2(capsys, tmp_path):
    cyclic = tmp_path / "cyclic.cdga"
    cyclic.write_text("cdga cyclic\ngen x 1\ngen v 3\ngen w 3\n"
                      "d v = w*x\nd w = v*x\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "distortion", str(cyclic), "--class", "v")
    assert (code, out) == (2, "")
    assert err == "error: depth filtration does not stabilize on: v, w\n"


def test_distortion_depth_resolves_on_a_later_sweep(capsys, tmp_path):
    # v is declared before the a its differential reads, so the first sweep
    # leaves it pending and the second gives it depth 1
    late = tmp_path / "late.cdga"
    late.write_text("cdga late\ngen v 3\ngen a 2\nd v = a^2\n",
                    encoding="utf-8")
    code, out, _ = run_cli(capsys, "distortion", str(late), "--class", "v",
                           "--machine")
    assert code == 0
    report = machine_report(out)
    assert (report["depth"], report["exponent"]) == ("1", "4")


def test_pair_unknown_class_exits_2(capsys, tmp_path):
    """The class is checked against the generators before a model is built,
    also on a cdga without generators."""
    empty = tmp_path / "empty.cdga"
    empty.write_text("cdga empty\n", encoding="utf-8")
    for path, known in ((str(empty), ""),
                        (data_path("s2_model.cdga"), "a, b")):
        code, out, err = run_cli(capsys, "pair", path, "--class", "nope",
                                 "--bracket", "x")
        assert code == 2
        assert out == ""
        assert err == f"error: unknown class 'nope'; generators are: {known}\n"


def test_non_minimal_cdga_exits_2(capsys, tmp_path):
    """distortion and pair read a hand-loaded cdga as it is and refuse one
    with a linear differential."""
    path = tmp_path / "nm.cdga"
    path.write_text("cdga nm\ngen a 2\ngen w 2\ngen p 3\ngen b 3\n"
                    "d w = p\nd b = a^2\n", encoding="utf-8")
    for argv in (["distortion", str(path), "--class", "b"],
                 ["pair", str(path), "--class", "b", "--bracket", "[a,a]"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == ("error: model is not minimal: d(w) has the linear "
                       "term p\n")


def test_scalable_refuses_cp_beyond_the_witness_bound():
    """Checking the CP^n witness expands 2^n terms, so a large n exits 2
    at once and names the largest n supported."""
    proc = subprocess.run(
        [sys.executable, "-m", "rht.cli", "scalable", "CP40", "--machine"],
        capture_output=True, text=True, timeout=30)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: CP40 is too large to verify")
    assert "supported up to n = 12" in proc.stderr


def test_scalable_refuses_connected_sum_beyond_the_size_bound():
    """csum(7501*(S9xS9)) is within the bound C(18, 9)/2, but its witness
    would need 15,002 generators; it exits 2 at once, naming the count and
    the bound."""
    proc = subprocess.run(
        [sys.executable, "-m", "rht.cli", "scalable", "csum(7501*(S9xS9))"],
        capture_output=True, text=True, timeout=30)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == ("error: connected sum is too large to verify: it "
                           "has 15002 generators; at most 15000 are "
                           "supported\n")


def test_scalable_admits_every_plane_sum_within_the_inertia_bound():
    """csum(6435*OP2) has 20,714,264 relations, but its witness is checked
    from the summand blocks and the images' masks, so it is Scalable."""
    proc = subprocess.run(
        [sys.executable, "-m", "rht.cli", "scalable", "csum(6435*OP2)",
         "--machine"], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "verdict = Scalable" in proc.stdout.splitlines()


def test_literals_in_any_script_on_the_command_line(capsys):
    """--scale and bracket multipliers read the decimal digits that
    presentation files read."""
    pair = ["pair", data_path("wedge335_model.cdga"), "--machine"]
    for argv in (["--class", "u_b", "--bracket", "[{}*a,b]"],
                 ["--class", "z", "--bracket", "[[a,c],[a,[a,b]]]",
                  "--scale", "{}"]):
        outs = []
        for digit in ("3", "٣"):
            code, out, err = run_cli(capsys, *pair,
                                     *(a.format(digit) for a in argv))
            assert code == 0 and err == ""
            outs.append(out.replace("٣", "3"))
        assert outs[0] == outs[1]


def test_scalable_command_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "scalable", "csum(4*CP2)", "--machine")
    assert code == 1
    report = machine_report(out)
    assert report.get("verdict") == "NotScalable"
    assert report.get("certificate.checked") == "true"

    code, out, _ = run_cli(capsys, "scalable", "csum(3*(S2xS2))", "--machine")
    assert code == 0
    assert machine_report(out).get("verdict") == "Scalable"

    code, out, _ = run_cli(capsys, "scalable", "csum(1*(S2xS2),1*CP2)",
                           "--machine")
    assert code == 1
    assert machine_report(out).get("verdict") == "Unknown"


def test_scalable_command_names_bad_input(capsys):
    for descriptor, message in (
            ("S", "bad space descriptor 'S'"),
            ("S2xS", "bad space descriptor 'S'"),
            ("csum(2*CP1)", "connected sums of bare spheres (CP1 is S2)"),
            ("csum(CP101,rev(CP101))", "sums of CP^n are supported up to n = 100")):
        code, out, err = run_cli(capsys, "scalable", descriptor, "--machine")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert message in err
        assert "int()" not in err and "pi decision" not in err


def test_deeply_nested_input_exits_2(capsys, tmp_path):
    """Nesting past MAX_NESTING is a user error in all three parsers, not a
    RecursionError; nesting up to the limit still parses."""
    deep = MAX_NESTING + 1
    model = tmp_path / "deep.cdga"
    model.write_text("cdga t\ngen x 2\ngen y 3\nd y = "
                     + "(" * 3000 + "x*x" + ")" * 3000 + "\n", encoding="utf-8")
    for argv, message in (
            (["scalable", "(" * 3000 + "S2" + ")" * 3000], "space descriptor"),
            (["scalable", "prod(" * 600 + "S2" + ")" * 600], "space descriptor"),
            (["scalable", "rev(" * deep + "S2" + ")" * deep], "space descriptor"),
            (["scalable", "x".join(["S2"] * 3000)], "unsupported product atom"),
            (["cohomology", str(model)], "line 4: expression"),
            (["pair", data_path("wedge335_model.cdga"), "--class", "z",
              "--bracket", "[" * 1500 + "a" + ",a]" * 1500],
             "bracket expression"),
            (["pair", data_path("wedge335_model.cdga"), "--class", "z",
              "--bracket", "1*" * 1500 + "a"], "bracket expression")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv[:2]
        assert out == ""
        assert err.startswith("error: ") and message in err
        assert "Recursion" not in err

    code, out, _ = run_cli(capsys, "scalable",
                           "prod(" * MAX_NESTING + "S2" + ")" * MAX_NESTING)
    assert code == 0
    model.write_text("cdga t\ngen x 2\ngen y 3\nd y = " + "(" * MAX_NESTING
                     + "x*x" + ")" * MAX_NESTING + "\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "cohomology", str(model), "--degree", "4")
    assert code == 0


def test_zero_denominator_literals_exit_2(capsys, tmp_path):
    """A p/0 literal is a user error in all three places that read one."""
    bad = tmp_path / "f.cdga"
    bad.write_text("cdga f\ngen x 2\ngen y 3\nd y = 1/0*x^2\n",
                   encoding="utf-8")
    pair = ["pair", data_path("wedge335_model.cdga")]
    for argv, message in (
            (["cohomology", str(bad)], "line 4: zero denominator in '1/0'"),
            (pair + ["--class", "u_b", "--bracket", "[1/0*a,b]"],
             "zero denominator in '1/0'"),
            (pair + ["--class", "z", "--bracket", "[[a,c],[a,[a,b]]]",
                     "--scale", "1/0"], "zero denominator in '1/0'")):
        code, out, err = run_cli(capsys, *argv, "--machine")
        assert code == 2, argv[:2]
        assert out == ""
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err and "ZeroDivisionError" not in err


def test_power_blow_up_exits_2_quickly(capsys, tmp_path):
    """A power of a sum is refused, with its line, before it is expanded
    past MAX_POWER_TERMS monomials, in rel and d lines alike; so is a power
    whose coefficient outgrows the int-string limit.  Powers at the bound,
    one-term powers and powers whose base squares to zero still load."""
    cases = (
        ("ring big\ngen x 2\ngen y 2\nrel (x+y)^99999999\n",
         "line 4: power of a 2-term sum to exponent 99999999 may expand to "
         f"more than {MAX_POWER_TERMS} monomials"),
        ("cdga big\ngen x 2\ngen y 2\ngen u 1\n\nd u = (x+y)^99999999\n",
         "line 6: power of a 2-term sum"),
        ("ring big\ngen x 2\ngen y 2\ngen z 2\nrel (x-y+2*z)^31\n",
         "line 5: power of a 3-term sum to exponent 31"),
    )
    if sys.get_int_max_str_digits():
        cases += (("ring big\ngen x 2\nrel (2*x)^99999999\n", "line 3: power "
                   "to exponent 99999999 has coefficients of more than"),)
    path = tmp_path / "big.ring"
    for text, message in cases:
        path.write_text(text, encoding="utf-8")
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "cohomology", str(path),
                                 "--through", "4", "--machine")
        assert time.perf_counter() - start < 2
        assert code == 2 and out == ""
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err

    # comb(30 + 2, 2) = 496 monomials at most, comb(31 + 2, 2) = 528 above
    for rel in ("(x-y+2*z)^30", "x^99999999", "(a+b)^99999999"):
        path.write_text("ring ok\ngen x 2\ngen y 2\ngen z 2\ngen a 3\n"
                        f"gen b 3\nrel {rel}\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "cohomology", str(path),
                               "--through", "4", "--machine")
        assert code == 0, rel
        assert machine_report(out).get("ranks") == "1,0,3,2,6", rel


def test_product_blow_up_exits_2_quickly(capsys, tmp_path):
    """A product is refused, with its line, before it is multiplied past
    MAX_POWER_TERMS monomials: expanding four 496-term factors would take
    about a minute.  A product with many term pairs but few monomials in
    its degree still loads, and so does every packaged fixture."""
    path = tmp_path / "big.ring"
    gens = "gen x 2\ngen y 2\ngen z 2\n"
    path.write_text(f"ring big\n{gens}rel " + "*".join(["(x+y+z)^30"] * 4)
                    + "\n", encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "cohomology", str(path),
                             "--through", "4", "--machine")
    assert time.perf_counter() - start < 2
    assert code == 2 and out == ""
    assert err == ("error: line 5: product of a 496-term and a 496-term "
                   f"factor may expand to more than {MAX_POWER_TERMS} "
                   "monomials\n")

    # a factor of huge degree is refused on its term pairs, uncounted
    path.write_text(f"ring deep\n{gens}rel x^99999999*(x+y+z)^30*(x+y)\n",
                    encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "cohomology", str(path),
                             "--through", "4", "--machine")
    assert time.perf_counter() - start < 2
    assert code == 2 and out == ""
    assert err == ("error: line 5: product of a 496-term and a 2-term "
                   f"factor may expand to more than {MAX_POWER_TERMS} "
                   "monomials\n")

    # 66 * 66 term pairs, but degree 40 holds comb(22, 2) = 231 monomials
    path.write_text(f"ring ok\n{gens}rel (x+y+z)^10*(x-y+z)^10\n",
                    encoding="utf-8")
    code, out, _ = run_cli(capsys, "cohomology", str(path),
                           "--through", "4", "--machine")
    assert code == 0 and machine_report(out).get("ranks") == "1,0,3,0,6"

    data = resources.files("rht").joinpath("data")
    fixtures = sorted(p.name for p in data.iterdir()
                      if p.name.endswith((".cdga", ".ring")))
    assert len(fixtures) >= 7
    for name in fixtures:
        code, out, err = run_cli(capsys, "cohomology", data_path(name),
                                 "--through", "4", "--machine")
        assert code == 0 and err == "", name


def test_non_integer_literals_exit_2(capsys):
    """--scale and bracket multipliers take integers and p/q only: exponent
    notation would otherwise scale the pairing by an unbounded number."""
    pair = ["pair", data_path("wedge335_model.cdga"), "--class", "u_b"]
    cases = [["--bracket", f"[{lit}*a,b]"]
             for lit in ("1e3000", "1e5", "1_000", "0x10", "2/-3")]
    cases += [["--bracket", "[a,b]", "--scale", lit]
              for lit in ("1e3000", "1e5", "1.5", "1_000", " 2", "2/-3")]
    for argv in cases:
        code, out, err = run_cli(capsys, *pair, *argv, "--machine")
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error: ") and "malformed rational literal" in err
        assert "Traceback" not in err


def test_failed_self_audit_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(rht.models, "is_quasi_isomorphism",
                        lambda phi, cap: False)
    code, out, err = run_cli(capsys, "model", data_path("cp2.ring"))
    assert code == 1
    assert out == ""
    assert err.startswith("error: internal check failed: ")
    assert "quasi-isomorphism audit" in err
    assert "Traceback" not in err


def test_pair_command_scaling(capsys):
    code, out, _ = run_cli(capsys, "pair", data_path("wedge335_model.cdga"),
                           "--class", "z", "--bracket", "[[a,c],[a,[a,b]]]",
                           "--scale", "2", "--machine")
    assert code == 0
    report = machine_report(out)
    base = Fraction(report.get("value"))
    scaled = Fraction(report.get("scaled_value"))
    assert scaled == base * 2 ** 17


def test_pair_command_unit(capsys):
    code, out, _ = run_cli(capsys, "pair", data_path("wedge335_model.cdga"),
                           "--class", "u_b", "--bracket", "[a,b]", "--machine")
    assert code == 0
    assert abs(Fraction(machine_report(out).get("value"))) == 1


def test_pair_degree_mismatch_rejected(capsys):
    code, _out, err = run_cli(capsys, "pair", data_path("wedge335_model.cdga"),
                              "--class", "z", "--bracket", "[a,b]")
    assert code == 2
    assert "degree" in err


def test_machine_reports_are_deterministic(capsys):
    _c, out1, _ = run_cli(capsys, "model", data_path("wedge335.ring"),
                          "--through", "9", "--machine")
    _c, out2, _ = run_cli(capsys, "model", data_path("wedge335.ring"),
                          "--through", "9", "--machine")
    assert out1 == out2
    lines = [f"{k} = {v}\n" for k, v in machine_report(out1).items()]
    assert "".join(lines) == out1


def test_cap_defaults_to_twelve(capsys):
    for command in ("cohomology", "model"):
        code, out, _ = run_cli(capsys, command, data_path("s2_model.cdga"),
                               "--machine")
        assert code == 0 and machine_report(out)["cap"] == "12", command


def test_degree_and_through_exclude_each_other(capsys):
    # 12 is the default cap: argparse skips the exclusion check for a value
    # that is the option's default, so --through must have none
    for cap in ("12", "13"):
        code, out, err = run_cli(capsys, "cohomology",
                                 data_path("s2_model.cdga"), "--degree", "3",
                                 "--through", cap)
        assert code == 2 and out == "", cap
        assert "not allowed with argument" in err, cap


def test_distortion_of_a_ring_file_uses_its_bigraded_model(capsys):
    code, out, _ = run_cli(capsys, "distortion", data_path("cp2.ring"),
                           "--class", "v5_1_0", "--machine")
    assert code == 0
    report = machine_report(out)
    assert (report.get("degree"), report.get("exponent")) == ("5", "6")


def test_bracket_multiplier_may_carry_a_plus_sign(capsys):
    code, out, _ = run_cli(capsys, "pair", data_path("wedge335_model.cdga"),
                           "--class", "u_b", "--bracket", "[+3*a,b]",
                           "--machine")
    assert code == 0 and machine_report(out).get("value") == "3"


def test_verify_paper_filter(capsys):
    code, out, _ = run_cli(capsys, "verify-paper", "--only", "s2-model",
                           "hopf", "--machine")
    assert code == 0
    report = machine_report(out)
    keys = [k for k, _v in report.items() if k.startswith("check.")]
    assert keys == ["check.s2-model", "check.hopf"]
    assert report.get("all_pass") == "true"


def test_verify_paper_unknown_battery(capsys):
    code, _out, err = run_cli(capsys, "verify-paper", "--only", "nothing")
    assert code == 2
    assert "unknown batteries" in err


def test_injected_sign_bug_fails_named_battery(capsys, monkeypatch):
    good = rht.homotopy.integrate_0_1

    def flipped(u):
        return -1 * good(u)

    monkeypatch.setattr(rht.homotopy, "integrate_0_1", flipped)
    code, out, _ = run_cli(capsys, "verify-paper", "--only", "integration",
                           "--machine")
    assert code == 1
    report = machine_report(out)
    assert report.get("all_pass") == "false"
    assert "FAIL" in report.get("check.integration")


def test_cli_subprocess_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "rht.cli", "scalable", "S3", "--machine"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "verdict = Scalable" in proc.stdout


def test_overlong_scale_literal_exits_2(capsys):
    """--scale and bracket multipliers longer than the int-string limit get
    a message about the literal, not about the interpreter."""
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("this interpreter has no int-string limit")
    ones = "1" * (limit + 700)
    pair = ["pair", data_path("wedge335_model.cdga"), "--class", "u_b"]
    for argv in (["--bracket", "[a,b]", "--scale", ones],
                 ["--bracket", f"[{ones}*a,b]"]):
        code, out, err = run_cli(capsys, *pair, *argv, "--machine")
        assert code == 2
        assert out == ""
        assert err.startswith("error: numeric literal '111111111111...1111' "
                              f"has {limit + 700} digits; at most {limit}")
        assert "Exceeds the limit" not in err and "Traceback" not in err


def test_malformed_long_bracket_gives_a_short_error(capsys):
    """The error quotes an excerpt of a long malformed bracket, not all of
    it (3,000 characters here), and the exit status stays 2."""
    code, out, err = run_cli(capsys, "pair", data_path("wedge335_model.cdga"),
                             "--class", "z", "--bracket", "1*" * 1500 + "a")
    assert code == 2
    assert out == ""
    assert err.startswith("error: malformed bracket expression '1*1*")
    assert len(err) < 200
