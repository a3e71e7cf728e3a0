import re
import sys
import time
from fractions import Fraction

import pytest

from rht import FreeCdga, RingPresentation
from rht.cli import main
from rht.fileformat import (PresentationError, load, loads, parse_expression,
                            rational, split_top, whole)


S2_TEXT = """\
# a sphere model
cdga s2
gen a 2
gen b 3
d b = a^2
"""


def test_loads_cdga():
    alg = loads(S2_TEXT)
    assert isinstance(alg, FreeCdga)
    assert alg.name == "s2"
    assert alg.differential_of("b") == alg["a"] ** 2


def test_loads_ring():
    ring = loads("ring cp2\ngen x 2\nrel x^3\n")
    assert isinstance(ring, RingPresentation)
    assert (ring["x"] ** 3).is_zero()
    assert not (ring["x"] ** 2).is_zero()


def test_rational_coefficients_and_signs():
    alg = loads("cdga t\ngen a 2\ngen b 3\nd b = 3/2*a^2 - a*a\n")
    assert alg.differential_of("b") == alg["a"] ** 2 * Fraction(1, 2)


def test_parse_error_names_line():
    bad = "cdga t\ngen a 2\ngen b 3\nd b = a\n"
    with pytest.raises(PresentationError, match="line 4"):
        loads(bad)


def test_unknown_generator_error_names_line():
    with pytest.raises(PresentationError, match="line 3.*unknown"):
        loads("cdga t\ngen a 2\nd a = q\n")


def test_d_squared_enforced_at_load():
    text = ("cdga t\ngen x 2\ngen y 3\ngen u 4\n"
            "d y = x^2\nd u = x*y\n")
    with pytest.raises(PresentationError):
        loads(text)


def test_ring_with_differential_rejected():
    with pytest.raises(PresentationError, match="ring files"):
        loads("ring t\ngen x 2\nd x = x\n")


def test_missing_header_rejected():
    with pytest.raises(PresentationError, match="header"):
        loads("gen a 2\n")


def test_duplicate_generator_rejected():
    with pytest.raises(PresentationError, match="duplicate"):
        loads("cdga t\ngen a 2\ngen a 3\n")


def test_expression_parser_precedence():
    alg = FreeCdga([("a", 2), ("b", 2)])
    e = parse_expression("-a^2 + 2*a*b", alg)
    assert e == -(alg["a"] ** 2) + 2 * alg["a"] * alg["b"]
    e2 = parse_expression("(a + b)^2", alg)
    assert e2 == (alg["a"] + alg["b"]) ** 2


def test_expression_trailing_garbage():
    alg = FreeCdga([("a", 2)])
    with pytest.raises(PresentationError, match="trailing"):
        parse_expression("a )", alg)


def presentation_text(alg):
    """A presentation file for ``alg`` that writes each differential or
    relation as the ``repr`` text reports print."""
    if isinstance(alg, RingPresentation):
        head, body = "ring", [f"rel {alg.base.format_terms(rel)}"
                              for rel in alg.relations]
    else:
        head = "cdga"
        body = [f"d {g.name} = {alg.differential_of(g.name)!r}"
                for g in alg.gens if not alg.differential_of(g.name).is_zero()]
    gens = [f"gen {g.name} {g.degree}" for g in alg.gens]
    return "\n".join([f"{head} {alg.name}", *gens, *body]) + "\n"


def test_dump_load_round_trip(wedge_table):
    again = loads(presentation_text(wedge_table))
    assert presentation_text(again) == presentation_text(wedge_table)
    assert all(again.differential_of(g.name).terms
               == wedge_table.differential_of(g.name).terms
               for g in wedge_table.gens)


def test_dump_load_round_trip_ring():
    ring = loads("ring w\ngen a 3\ngen b 3\nrel a*b\n")
    assert presentation_text(loads(presentation_text(ring))) == \
        presentation_text(ring)


def test_load_from_path(tmp_path):
    p = tmp_path / "alg.cdga"
    p.write_text(S2_TEXT, encoding="utf-8")
    alg = load(p)
    assert alg.name == "s2"


@pytest.mark.parametrize("degree,ranks", [(2, "1,0,1,0,1"), (3, "1,0,0,1,0")])
def test_huge_exponent_loads_quickly(tmp_path, capsys, degree, ranks):
    """x^N costs about log2(N) products, and an odd x^N is zero at once."""
    p = tmp_path / "big.ring"
    p.write_text(f"ring big\ngen x {degree}\nrel x^99999999999\n",
                 encoding="utf-8")
    start = time.perf_counter()
    code = main(["cohomology", str(p), "--through", "4", "--machine"])
    assert time.perf_counter() - start < 5
    assert code == 0
    assert f"ranks = {ranks}\n" in capsys.readouterr().out


def test_overlong_literal_is_a_presentation_error(tmp_path, capsys):
    """A coefficient longer than the int-string limit is named with its line
    before int() sees it; a literal exactly at the limit still loads."""
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("this interpreter has no int-string limit")
    long = "7" * (limit + 700)
    for text, line in ((f"ring big\ngen x 2\nrel {long}*x^2\n", 3),
                       (f"ring big\ngen x 2\n\nrel x^2 - 1/{long}*x^2\n", 4),
                       (f"ring big\ngen x 2\nrel x^{long}\n", 3)):
        with pytest.raises(PresentationError) as exc:
            loads(text)
        assert exc.value.line == line
        assert f"has {limit + 700} digits; at most {limit}" in str(exc.value)
        assert "777777777777...7777" in str(exc.value)
    p = tmp_path / "big.ring"
    p.write_text(f"ring big\ngen x 2\nrel {long}*x^2\n", encoding="utf-8")
    assert main(["cohomology", str(p), "--through", "4", "--machine"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: line 3: numeric literal")
    at_limit = "7" * limit
    ring = loads(f"ring edge\ngen x 2\nrel {at_limit}/{at_limit[1:]}*x^2\n")
    (rel,) = ring.relations
    assert rel == {((0, 2),): Fraction(int(at_limit), int(at_limit[1:]))}
    assert rational(at_limit) == int(at_limit)
    assert rational(f"-1/{at_limit}") == Fraction(-1, int(at_limit))
    for text in (long, f"-{long}", f"1/{long}", f"{long}/3"):
        with pytest.raises(PresentationError, match="digits; at most"):
            rational(text)


def test_literals_in_any_script_read_alike():
    """rational reads every literal, so the decimal digits a file accepts
    (any script's) are the ones brackets and --scale accept; the line of a
    bad literal is named."""
    from rht.homotopy import parse_bracket
    alg = FreeCdga([("x", 2)])
    assert rational("٣") == 3 and rational("-٣/٤") == Fraction(-3, 4)
    assert parse_expression("٣/٤*x", alg) == Fraction(3, 4) * alg["x"]
    assert parse_bracket("[٣*a,b]").left.multiplier == 3
    for text, message in (
            ("1/0", "zero denominator in '1/0'"),
            ("2/", "malformed rational literal '2/': expected an integer or p/q"),
            ("²", "malformed rational literal '²': expected an integer or p/q")):
        with pytest.raises(PresentationError) as exc:
            rational(text, 5)
        assert exc.value.line == 5 and str(exc.value) == f"line 5: {message}"


def test_names_start_with_a_letter_or_underscore():
    """A numeral that is no decimal digit (such as '²') may continue a name
    but not start one: not in an expression, and not at a gen line."""
    ring = loads("ring r\ngen x² 2\ngen _1 2\nrel x²*_1\n")
    assert [ring.base.format_terms(r) for r in ring.relations] == ["x²*_1"]
    with pytest.raises(PresentationError,
                       match=r"line 2: unexpected character '²' in expression"):
        loads("ring r\nrel ²x\ngen x 2\n")
    with pytest.raises(PresentationError,
                       match=r"line 3: generator name '²x' must start"):
        loads("ring r\ngen x² 2\ngen ²x 2\n")


@pytest.mark.parametrize("name", ["2x", "x*y", "x-1", "²x"])
@pytest.mark.parametrize("kind", ["cdga", "ring"])
def test_generator_names_no_expression_can_spell_are_refused(
        kind, name, tmp_path, capsys):
    """A gen name must read back as one name token: '2x' would print as
    2*x in every report, and 'x*y' as a product."""
    text = f"{kind} bad\ngen y 3\ngen {name} 2\n"
    message = (f"line 3: generator name {name!r} must start with a letter "
               "or '_' and go on with letters, digits or '_'")
    with pytest.raises(PresentationError, match=re.escape(message)):
        loads(text)
    p = tmp_path / f"bad.{kind}"
    p.write_text(text, encoding="utf-8")
    assert main(["cohomology", str(p), "--through", "4", "--machine"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


def test_whole_numbers_are_plain_decimal_digits():
    """whole reads decimal digits in any script and nothing else."""
    assert whole("17") == 17 and whole("٣") == 3 and whole("007") == 7
    for text in ("", "+5", "-5", "1_0", " 5", "5 ", "4/2", "1e3", "²", "x"):
        assert whole(text) is None, text
    limit = sys.get_int_max_str_digits()
    if limit:
        with pytest.raises(PresentationError, match="line 4: numeric literal"):
            whole("7" * (limit + 1), 4)


@pytest.mark.parametrize("degree", ["1_0", "+5", "0", "-2", "2/1", "x"])
def test_generator_degrees_are_positive_whole_numbers(degree):
    with pytest.raises(PresentationError,
                       match=f"line 2: generator degree must be a positive "
                             f"whole number, got '{re.escape(degree)}'"):
        loads(f"cdga t\ngen x {degree}\n")


@pytest.mark.parametrize("exponent", ["4/2", "8/2", "2/1", "1/0"])
def test_exponents_are_whole_numbers(exponent):
    """A p/q exponent is refused even when it names a whole number."""
    with pytest.raises(PresentationError, match="line 4: exponent must be"):
        loads(f"cdga t\ngen x 2\ngen y 7\nd y = x^{exponent}\n")
    alg = FreeCdga([("x", 2)])
    assert parse_expression("x^٤", alg) == alg["x"] ** 4


def test_split_top_cuts_outside_every_bracket():
    assert split_top("a, (b,c) ,[d,[e,f]]") == ["a", "(b,c)", "[d,[e,f]]"]
    assert split_top("") == [""] and split_top("a,") == ["a", ""]
