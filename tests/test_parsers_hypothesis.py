"""The four text parsers are total: a result or a ValueError.

Inputs are drawn from each parser's own token alphabet, so most examples get
past the first character and exercise the grammar.  ``PresentationError`` is
a ``ValueError``; every other exception type fails the test, and so does a
message from ``int()`` about the interpreter rather than the input.  The
descriptor and bracket parsers quote only an excerpt of their input, so their
messages stay under MAX_MESSAGE characters however long the input runs.
"""

from datetime import timedelta

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from rht import FreeCdga, fileformat, homotopy, scalability  # noqa: E402

SETTINGS = hypothesis.settings(max_examples=100, deadline=timedelta(seconds=5),
                               derandomize=True)

NUMBERS = st.one_of(
    st.integers(0, 10**12).map(str),
    st.sampled_from(["0", "1/0", "2/3", "-4", "+5", "1e3", "1.5", "1_0",
                     "٣", "²", "7" * 4400]))


def joined(tokens, max_size=14):
    return st.lists(tokens, max_size=max_size).map("".join)


# Longest error message the descriptor and bracket parsers may give.
MAX_MESSAGE = 300


def parses_or_refuses(parse, text, max_message=None):
    try:
        parse(text)
    except ValueError as exc:
        assert "int()" not in str(exc) and "sys." not in str(exc), str(exc)
        if max_message is not None:
            assert len(str(exc)) <= max_message, str(exc)


def repeated(tokens):
    """Token soup repeated up to 400 times and cut at 20,000 characters, so
    that inputs run long."""
    return st.builds(lambda text, n: (text * n)[:20_000], joined(tokens),
                     st.integers(1, 400))


# -- presentation files -------------------------------------------------------

NAMES = st.sampled_from(["x", "y", "z", "u", "v", "a", "x_1", "q"])
# well-formed sums, products and powers (multi-term powers included), and
# token soup around them
TERMS = st.recursive(
    st.one_of(NAMES, NUMBERS),
    lambda inner: st.one_of(
        st.builds("({}{}{})".format, inner, st.sampled_from("+-"), inner),
        st.builds("{}*{}".format, inner, inner),
        st.builds("({})^{}".format, inner, NUMBERS)),
    max_leaves=6)
EXPRESSION = st.one_of(TERMS, joined(st.one_of(
    NAMES, NUMBERS, TERMS, st.sampled_from(list("+-*^()/ =#") + [
        "(x+y)^", "(x-y+2*z)^", "(u+v)^", "(2*x)^", "(x+u)^", "x^", "²"]))))
DEGREE = st.one_of(st.integers(-2, 9).map(str), NUMBERS)
LINE = st.one_of(
    st.builds("gen {} {}".format, NAMES, DEGREE),
    st.builds("rel {}".format, EXPRESSION),
    st.builds("d {} = {}".format, NAMES, EXPRESSION),
    st.builds("d {} {}".format, NAMES, EXPRESSION),
    st.sampled_from(["cdga t", "ring t", "ring", "cdga t-1", "gen x",
                     "gen x 2 3", "# comment", "", "frobnicate"]))
STANDARD_GENS = ("gen x 2\ngen y 2\ngen z 2\ngen u 3\ngen v 3\ngen a 1\n"
                 "gen q 5")
# a valid header and generators with rel or d lines, so that most examples
# reach the expression parser, and free-form files around them
PRESENTATIONS = st.one_of(
    st.builds("ring t\n{}\n{}".format, st.just(STANDARD_GENS),
              st.lists(st.builds("rel {}".format, EXPRESSION), min_size=1,
                       max_size=4).map("\n".join)),
    st.builds("cdga t\n{}\n{}".format, st.just(STANDARD_GENS),
              st.lists(st.builds("d {} = {}".format, NAMES, EXPRESSION),
                       min_size=1, max_size=4).map("\n".join)))
FILES = st.one_of(
    PRESENTATIONS,
    st.builds(lambda head, gens, lines: "\n".join([head, gens, *lines]),
              st.sampled_from(["cdga t", "ring t", ""]),
              st.sampled_from(["", STANDARD_GENS]),
              st.lists(LINE, max_size=6)))


@SETTINGS
@hypothesis.given(FILES)
def test_loads_is_total(text):
    parses_or_refuses(fileformat.loads, text)


@SETTINGS
@hypothesis.given(st.one_of(NUMBERS, joined(st.sampled_from(
    list("0123456789+-/ .e_") + ["٣", "²"]))))
def test_rational_is_total(text):
    parses_or_refuses(fileformat.rational, text)


# -- space descriptors and bracket expressions ------------------------------------

ATOMS = st.one_of(
    st.sampled_from(["S2", "S3", "CP2", "CP3", "HP2", "OP2", "S2xS4", "HP3",
                     "S0", "CP", "S2xCP2", "S2xS3xS4", ""]),
    st.builds("{}{}".format, st.sampled_from(["S", "CP", "HP", "OP"]), NUMBERS))
DESCRIPTORS = st.recursive(
    ATOMS,
    lambda inner: st.one_of(
        st.builds("{}({})".format,
                  st.sampled_from(["csum", "prod", "wedge", "rev", ""]),
                  st.lists(inner, max_size=3).map(",".join)),
        st.builds("{}*{}".format, NUMBERS, inner)),
    max_leaves=8)
DESCRIPTOR_TOKENS = st.one_of(
    st.sampled_from(["S", "CP", "HP", "OP", "x", "csum(", "prod(", "wedge(",
                     "rev(", "(", ")", ",", "*", " ", "²"]),
    NUMBERS, DESCRIPTORS)


@SETTINGS
@hypothesis.given(st.one_of(DESCRIPTORS, joined(DESCRIPTOR_TOKENS)))
def test_parse_descriptor_is_total(text):
    parses_or_refuses(scalability.parse_descriptor, text, MAX_MESSAGE)


@SETTINGS
@hypothesis.given(st.one_of(repeated(DESCRIPTOR_TOKENS), st.builds(
    "csum({})".format, repeated(DESCRIPTOR_TOKENS))))
def test_descriptor_errors_stay_short_on_long_input(text):
    parses_or_refuses(scalability.parse_descriptor, text, MAX_MESSAGE)


LEAVES = st.one_of(st.sampled_from(["a", "b", "u_b", "", "a b"]),
                  st.builds("{}*{}".format, NUMBERS, st.sampled_from("ab")))
BRACKETS = st.recursive(
    LEAVES, lambda inner: st.builds("[{},{}]".format, inner, inner),
    max_leaves=8)
BRACKET_TOKENS = st.one_of(
    st.sampled_from(["[", "]", ",", "*", " ", "a", "b", "u_b", "/", "-",
                     "²"]),
    NUMBERS, BRACKETS)


@SETTINGS
@hypothesis.given(st.one_of(BRACKETS, joined(BRACKET_TOKENS)))
def test_parse_bracket_is_total(text):
    parses_or_refuses(homotopy.parse_bracket, text, MAX_MESSAGE)


@SETTINGS
@hypothesis.given(st.one_of(repeated(BRACKET_TOKENS), st.builds(
    "[{},{}]".format, repeated(BRACKET_TOKENS), repeated(BRACKET_TOKENS))))
def test_bracket_errors_stay_short_on_long_input(text):
    parses_or_refuses(homotopy.parse_bracket, text, MAX_MESSAGE)


@pytest.mark.parametrize("parse,text", [
    (homotopy.parse_bracket, "1*" * 1500 + "a"),
    (homotopy.parse_bracket, "[" + "a," * 1500 + "b]"),
    (homotopy.parse_bracket, f"[{'7' * 4000}/{'0' * 4000}*a,b]"),
    (scalability.parse_descriptor, "csum(" + "S2," * 1500 + ",S2)"),
    (scalability.parse_descriptor, "csum(" + "7" * 3000 + "x*S2)"),
    (scalability.parse_descriptor, "prod(" + "CP" * 1500 + ")")],
    ids=["multipliers", "commas", "zero-denominator", "empty-argument",
         "multiplicity", "atom"])
def test_long_malformed_input_gives_a_short_message(parse, text):
    with pytest.raises(ValueError) as info:
        parse(text)
    assert len(str(info.value)) <= MAX_MESSAGE


# -- numeric literals -----------------------------------------------------------

LITERAL_CHARS = list("0123456789+-/.e_") + ["٣", "²"]
LITERAL_ALGEBRA = FreeCdga([("x", 2)])


def outcome(parse):
    try:
        return parse()
    except ValueError:
        return None


@SETTINGS
@hypothesis.given(st.one_of(NUMBERS, joined(st.sampled_from(LITERAL_CHARS))))
def test_one_accept_set_for_numeric_literals(text):
    """A file expression, a bracket multiplier and rational (which --scale
    calls) read a literal to one value or all refuse it.  One difference is
    grammar, not literals: an expression also reads sums such as '1-2' or
    '--3', whose sign stands after the first character."""
    value = outcome(lambda: fileformat.rational(text))
    expression = outcome(
        lambda: fileformat.parse_expression(text, LITERAL_ALGEBRA))
    multiplier = outcome(
        lambda: homotopy.parse_bracket(f"{text}*a").multiplier)
    if value is None:
        assert multiplier is None
        assert expression is None or any(ch in "+-" for ch in text[1:])
    else:
        assert expression == LITERAL_ALGEBRA.scalar(value)
        assert multiplier == value
