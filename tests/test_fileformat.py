import time

import pytest

from rht import FreeCdga, RingPresentation
from rht.cli import main
from rht.fileformat import (PresentationError, dumps, load, loads,
                            parse_expression, same_presentation)
from rht.report import Report


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
    assert alg.differential_of("b") == alg["a"] ** 2 / 2


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


def test_dump_load_round_trip(wedge_table):
    text = dumps(wedge_table)
    again = loads(text)
    assert same_presentation(wedge_table, again)
    assert dumps(again) == text


def test_dump_load_round_trip_ring():
    ring = loads("ring w\ngen a 3\ngen b 3\nrel a*b\n")
    assert same_presentation(ring, loads(dumps(ring)))


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
    assert Report.parse(capsys.readouterr().out).get("ranks") == ranks
