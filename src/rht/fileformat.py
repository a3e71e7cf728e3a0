"""Line-oriented text format for algebras and ring presentations.

    # comment
    cdga NAME            (or: ring NAME)
    gen NAME DEGREE
    d NAME = EXPR        (cdga only; omitted generators are closed)
    rel EXPR             (ring only)

Expressions use generator names (a letter or ``_``, then letters, digits or
``_``), ``*``, ``^``, ``+``, ``-``, parentheses, and integer and ``p/q``
literals in decimal digits.  Loading validates homogeneity and d*d = 0;
parse and validation errors carry the 1-based line number.

The readers every text grammar shares live here: ``whole`` reads a whole
number (a degree, an exponent, a descriptor dimension or multiplicity),
``rational`` a coefficient or multiplier (in files, brackets and
``--scale``), ``split_top`` splits a descriptor's or bracket's arguments at
their top-level commas, and ``check_nesting`` bounds the nesting of
expressions, descriptors and brackets.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction

from .cdga import Element, FreeCdga
from .presentations import RingPresentation


class PresentationError(ValueError):
    """Parse or validation failure, tagged with a source line."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


# Nesting depth every parser accepts; deeper input would exhaust the
# interpreter's recursion limit instead of getting an error message.
MAX_NESTING = 100


def check_nesting(text, what, line=None):
    """Reject ``text`` if its ``()`` and ``[]`` nest deeper than MAX_NESTING."""
    depth = 0
    for ch in text:
        if ch in "([":
            depth += 1
            if depth > MAX_NESTING:
                raise PresentationError(
                    f"{what} nested deeper than {MAX_NESTING} levels", line)
        elif ch in ")]":
            depth -= 1


# The characters split_top acts on; the regex engine skips the text between
# them, so a long name costs no Python step.
_DELIMITER = re.compile(r"[][(),]")


def split_top(text):
    """``text`` cut at each comma outside every ``()`` and ``[]``, the parts
    stripped: ``"a, (b,c)"`` gives ``["a", "(b,c)"]``."""
    parts, depth, start = [], 0, 0
    for m in _DELIMITER.finditer(text):
        ch = m.group()
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif depth == 0:
            parts.append(text[start:m.start()].strip())
            start = m.end()
    parts.append(text[start:].strip())
    return parts


# Most monomials a power of a sum may expand to.  Squaring and multiplying
# (x+y)^n costs about n^2 coefficient products, so a larger bound would
# stall the parser instead of giving an error message.
MAX_POWER_TERMS = 500


def _power(base, n, line=None):
    """base ** n, refused with a PresentationError when it could not be
    expanded quickly.  A base of t terms has at most comb(n + t - 1, t - 1)
    monomials in its n-th power: that bound is built factor by factor, stops
    as soon as it passes MAX_POWER_TERMS, and is waived when the square of
    the base vanishes, so one-term bases and square-zero bases stay cheap at
    any n.  A coefficient p/q grows to about n * log10(max(|p|, q)) digits,
    which may not exceed the int-string limit that literals obey."""
    if n < 2:
        return base ** n
    limit = sys.get_int_max_str_digits()
    bits = max((max(abs(c.numerator), c.denominator).bit_length() - 1
                for c in base.terms.values()), default=0)
    if limit and n * bits > limit * math.log2(10):
        raise PresentationError(f"power to exponent {n} has coefficients of "
                                f"more than {limit} digits", line)
    bound = 1
    for j in range(1, len(base.terms)):
        bound = bound * (n + j) // j
        if bound > MAX_POWER_TERMS:
            if (base * base).terms:
                raise PresentationError(
                    f"power of a {len(base.terms)}-term sum to exponent {n} "
                    f"may expand to more than {MAX_POWER_TERMS} monomials", line)
            break
    return base ** n


def _product(left, right, line=None):
    """left * right, refused with a PresentationError when it may expand to
    more than MAX_POWER_TERMS monomials.  The product of a t1-term and a
    t2-term factor has at most t1 * t2 monomials, and at most as many as
    the ambient basis has in the degrees it can reach.  Counting that basis
    takes about len(gens) * top steps for the top degree reached; it is only
    done when that is at most the t1 * t2 products it could save, so a
    factor of huge degree is refused on t1 * t2 alone."""
    t1, t2 = len(left.terms), len(right.terms)
    if t1 * t2 > MAX_POWER_TERMS:
        alg = left.alg
        degrees = {alg.key_degree(k) for k in right.terms}
        reach = {alg.key_degree(k) + d for k in left.terms for d in degrees}
        top = max(reach)
        fits = top * len(alg.gens) <= t1 * t2
        if fits:
            counts = alg.basis_sizes(top)
            fits = sum(counts[d] for d in reach) <= MAX_POWER_TERMS
        if not fits:
            raise PresentationError(
                f"product of a {t1}-term and a {t2}-term factor may expand "
                f"to more than {MAX_POWER_TERMS} monomials", line)
    return left * right


def excerpt(text, head=24, tail=8):
    """repr of ``text`` for an error message, its middle elided past ``head``
    + ``tail`` characters, so a message stays short whatever the input."""
    if len(text) > head + tail + 3:
        text = f"{text[:head]}...{text[-tail:]}"
    return repr(text)


def whole(text, line=None):
    """The whole number ``text`` spells in decimal digits (any script's, as
    int() reads them), or None for anything else: a sign, ``_``, a space, a
    fraction, the empty string.  A digit run longer than the interpreter's
    int-string limit (``sys.get_int_max_str_digits()``, 0 for none) raises
    PresentationError before int() sees it."""
    if not text.isdecimal():
        return None
    limit = sys.get_int_max_str_digits()
    if limit and len(text) > limit:
        raise PresentationError(f"numeric literal {excerpt(text, 12, 4)} has "
                                f"{len(text)} digits; at most {limit} are "
                                "accepted", line)
    return int(text)


def rational(text, line=None):
    """A signed integer or p/q literal, each part read by ``whole``;
    anything else Fraction would read (1e3000, 1.5, 1_000, spaces) and a zero
    denominator raise PresentationError."""
    num, slash, den = text.partition("/")
    p = whole(num[1:] if num[:1] in ("+", "-") else num, line)
    q = whole(den, line) if slash else 1
    if p is None or q is None:
        raise PresentationError(f"malformed rational literal {excerpt(text)}: "
                                "expected an integer or p/q", line)
    if not q:
        raise PresentationError(f"zero denominator in {excerpt(text)}", line)
    return Fraction(-p if num[:1] == "-" else p, q)


# -- expression parser --------------------------------------------------------

# A generator name, and one match per token: a number, a name, an operator,
# or any other non-space character.
_NAME = r"[^\W\d]\w*"
_TOKEN = re.compile(rf"(\d+(?:/\d*)?)|({_NAME})|([-+*^()])|(\S)")


def _is_name(text):
    """Whether ``text`` is a name an expression can spell: a match of
    ``_NAME`` with a letter or ``_`` first.  \\w also admits numerals that are
    no decimal digit, such as "²"; a name may not start with one."""
    return (re.fullmatch(_NAME, text) is not None
            and (text[0].isalpha() or text[0] == "_"))


def _tokenize(text, line):
    tokens = []
    for num, name, op, other in _TOKEN.findall(text):
        if name and not _is_name(name):
            other = name
        if other:
            raise PresentationError(
                f"unexpected character {other[0]!r} in expression", line)
        if num:
            tokens.append(("num", num))
        elif name:
            tokens.append(("name", name))
        else:
            tokens.append((op, op))
    return tokens


def parse_expression(text, algebra, line=None) -> Element:
    """Parse an expression into an element of ``algebra`` (or its ambient)."""
    check_nesting(text, "expression", line=line)
    tokens = _tokenize(text, line)
    pos = 0

    def peek():
        return tokens[pos][0] if pos < len(tokens) else None

    def take(kind=None):
        nonlocal pos
        if pos >= len(tokens):
            raise PresentationError("unexpected end of expression", line)
        tok = tokens[pos]
        if kind is not None and tok[0] != kind:
            raise PresentationError(f"expected {kind}, found {tok[1]!r}", line)
        pos += 1
        return tok

    def parse_atom():
        kind = peek()
        if kind == "num":
            return algebra.scalar(rational(take()[1], line))
        if kind == "name":
            name = take()[1]
            if name not in algebra.index:
                raise PresentationError(f"unknown generator {name!r}", line)
            return algebra[name]
        if kind == "(":
            take("(")
            e = parse_sum()
            take(")")
            return e
        raise PresentationError("expected a generator, number, or '('", line)

    def parse_power():
        base = parse_atom()
        if peek() == "^":
            take("^")
            exp = whole(take("num")[1], line)
            if exp is None:
                raise PresentationError(
                    "exponent must be a nonnegative whole number", line)
            return _power(base, exp, line)
        return base

    def parse_product():
        out = parse_power()
        while peek() == "*":
            take("*")
            out = _product(out, parse_power(), line)
        return out

    def parse_signed():
        sign = 1
        while peek() in ("+", "-"):
            if take()[0] == "-":
                sign = -sign
        return sign * parse_product()

    def parse_sum():
        out = parse_signed()
        while peek() in ("+", "-"):
            op = take()[0]
            rhs = parse_signed()
            out = out + rhs if op == "+" else out - rhs
        return out

    result = parse_sum()
    if pos != len(tokens):
        raise PresentationError(f"trailing input {tokens[pos][1]!r}", line)
    return result


# -- file loader ---------------------------------------------------------------


def loads(text: str):
    """Parse a presentation file into a FreeCdga or RingPresentation."""
    kind = None
    name = None
    gens = []
    d_lines = []
    rel_lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        head = parts[0]
        rest = parts[1] if len(parts) > 1 else ""
        if head in ("cdga", "ring"):
            if kind is not None:
                raise PresentationError("duplicate header", lineno)
            kind = head
            name = rest.strip() or "unnamed"
            if not name.replace("_", "").isalnum():
                raise PresentationError(f"bad name {name!r}", lineno)
        elif head == "gen":
            bits = rest.split()
            if len(bits) != 2:
                raise PresentationError("gen needs a name and a degree", lineno)
            gname, text = bits
            if not _is_name(gname):
                raise PresentationError(
                    f"generator name {excerpt(gname)} must start with a letter "
                    "or '_' and go on with letters, digits or '_'", lineno)
            deg = whole(text, lineno)
            if not deg:
                raise PresentationError("generator degree must be a positive "
                                        f"whole number, got {excerpt(text)}", lineno)
            gens.append((gname, deg, lineno))
        elif head == "d":
            lhs, eq, rhs = rest.partition("=")
            if not eq:
                raise PresentationError("d line needs '='", lineno)
            d_lines.append((lhs.strip(), rhs.strip(), lineno))
        elif head == "rel":
            rel_lines.append((rest.strip(), lineno))
        else:
            raise PresentationError(f"unknown directive {head!r}", lineno)
    if kind is None:
        raise PresentationError("missing 'cdga NAME' or 'ring NAME' header")
    if kind == "ring" and d_lines:
        raise PresentationError("ring files cannot carry differentials",
                                d_lines[0][2])
    if kind == "cdga" and rel_lines:
        raise PresentationError("cdga files cannot carry relations",
                                rel_lines[0][1])
    seen = set()
    for gname, _deg, lineno in gens:
        if gname in seen:
            raise PresentationError(f"duplicate generator {gname!r}", lineno)
        seen.add(gname)
    gen_pairs = [(g, d) for g, d, _l in gens]

    if kind == "ring":
        # same generators in the same order, so the keys are the ring's
        ambient = FreeCdga(gen_pairs, None, name=name)
        rels = []
        for expr, lineno in rel_lines:
            e = parse_expression(expr, ambient, lineno)
            if not e.is_homogeneous():
                raise PresentationError("relation is not homogeneous", lineno)
            rels.append(e.terms)
        return RingPresentation(gen_pairs, rels, name=name)

    plain = FreeCdga(gen_pairs, None, name=name)
    differential = {}
    for gname, expr, lineno in d_lines:
        if gname not in plain.index:
            raise PresentationError(f"unknown generator {gname!r}", lineno)
        if gname in differential:
            raise PresentationError(f"duplicate differential for {gname!r}", lineno)
        e = parse_expression(expr, plain, lineno)
        if e.is_zero():
            continue
        if not (e.is_homogeneous() and e.degree == plain.degree_of(gname) + 1):
            raise PresentationError(
                f"d {gname} must be homogeneous of degree "
                f"{plain.degree_of(gname) + 1}", lineno)
        differential[gname] = e.terms
    try:
        return FreeCdga(gen_pairs, differential, name=name)
    except ValueError as exc:
        raise PresentationError(str(exc)) from exc


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())
