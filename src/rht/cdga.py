"""Free graded-commutative differential algebras over the rationals.

Generators carry a fixed declaration order.  A monomial is a sorted tuple of
(generator index, exponent) pairs; products pick up Koszul signs and odd
generators square to zero.  The differential is given on generators, raises
degree by one, and extends by the graded Leibniz rule; d(d(v)) = 0 is checked
once per generator, when it is added: at construction, or by ``extend`` for
the appended generators only.  All values are immutable after construction
and every operation is a pure function, so instances are safe to share across
threads.  A free algebra memoizes, per algebra, the degree, differential and
products of the monomial keys it is asked about (and the differential of
their suffixes, which it is computed from), and its bases; ``extend`` starts
the extension from copies of those key tables, never from the tables
themselves, and keeps each cached basis that the new generators leave
unchanged or only append to.  A ``DgaMorphism`` is checked as a chain map at
construction, and ``DgaMorphism.extend`` carries it to an extension of its
source, checking the appended generators only.

Every stored coefficient is a nonzero ``int`` or ``Fraction``.  The intakes
(the ``Element`` constructor, ``FreeCdga`` differentials and scalars) store
a whole value as an ``int`` through ``exact``, as ``linalg`` rows do, so most
arithmetic runs on ints; the algebra's own arithmetic keeps the invariant
without re-checking it (see ``Element``).  Every sum of term dicts goes
through ``linalg.accumulate``; the shared signs ``_ONE`` and ``_MINUS_ONE``
live there too.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import _MINUS_ONE, _ONE, accumulate

Scalar = int | Fraction
Monomial = tuple
UNIT: Monomial = ()

_ZERO = 0


def exact(c):
    """``c`` as a stored coefficient: an ``int`` when whole, else a
    ``Fraction`` (never a ``bool`` or ``float``)."""
    if type(c) is not int:
        if type(c) is not Fraction:
            c = Fraction(c)
        if c.denominator == 1:
            c = c.numerator
    return c


@dataclass(frozen=True)
class Generator:
    """Named generator of fixed positive degree, optionally stage-tagged."""

    name: str
    degree: int
    stage: int | None = None

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError(
                f"generator {self.name!r} needs degree >= 1, got {self.degree}")
        if self.stage is not None and self.stage < 0:
            raise ValueError(f"generator {self.name!r} has a negative stage tag")


def _as_generators(gens):
    out = []
    for g in gens:
        if isinstance(g, Generator):
            out.append(g)
        else:
            name, degree = g[0], g[1]
            stage = g[2] if len(g) > 2 else None
            out.append(Generator(name, degree, stage))
    return tuple(out)


def _check_monomial(key, odd, what):
    """Raise ValueError, naming ``key`` a ``what`` key, unless it is a monomial
    over generators of the parities ``odd``: (index, exponent) pairs, indices
    in range and strictly increasing, exponents at least 1 (exactly 1 if odd)."""
    last = -1
    for i, e in key:
        if not 0 <= i < len(odd):
            problem = f"generator index {i} is out of range 0..{len(odd) - 1}"
        elif i <= last:
            problem = "generator indices are not strictly increasing"
        elif e < 1:
            problem = f"exponent {e} is below 1"
        elif e > 1 and odd[i]:
            problem = f"odd generator {i} has exponent {e}"
        else:
            last = i
            continue
        raise ValueError(f"{what} key {key!r} is not a monomial: {problem}")


class Element:
    """Exact rational linear combination of monomial keys of one algebra.

    Invariant: every value of ``terms`` is a nonzero ``int`` or ``Fraction``
    and no other element or caller holds the ``terms`` dict.  The constructor
    establishes it: it copies ``terms``, stores each value through ``exact``
    (a whole value as an ``int``) and drops zeros.  ``Element._wrap`` takes a
    dict as it is; use it only for a dict just built from clean coefficients
    (sums with zeros dropped, negations, products of nonzero values, or a
    copy of another element's terms, as ``FreeCdga.adopt`` hands over) that
    the caller does not keep; the arithmetic builds its results the same
    way, inline.  A product with a ``Fraction`` may be a whole ``Fraction``;
    it equals the ``int``, so term dicts compare by value.
    """

    __slots__ = ("alg", "terms")

    def __init__(self, alg, terms=None):
        clean = {}
        if terms:
            for k, c in terms.items():
                if type(c) is not int:
                    c = exact(c)
                if c:
                    clean[k] = c
        self.alg = alg
        self.terms = clean

    @staticmethod
    def _wrap(alg, terms):
        """Element owning ``terms`` as given: no copy, no coercion, so a
        whole ``Fraction`` stays one."""
        e = object.__new__(Element)
        e.alg = alg
        e.terms = terms
        return e

    # -- structure ---------------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    @property
    def degree(self):
        """Common degree of all terms; None for 0 or mixed elements."""
        degs = {self.alg.key_degree(k) for k in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def is_homogeneous(self):
        return len({self.alg.key_degree(k) for k in self.terms}) <= 1

    # -- arithmetic --------------------------------------------------------
    # The hot paths of the law batteries: each result is built inline, with
    # no call through ``_wrap``.

    def __add__(self, other):
        if isinstance(other, Element):
            alg = self.alg
            if other.alg is not alg:
                raise ValueError("elements belong to different algebras")
            terms = dict(self.terms)
            accumulate(terms, other.terms)
            e = object.__new__(Element)
            e.alg = alg
            e.terms = terms
            return e
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, Element):
            alg = self.alg
            if other.alg is not alg:
                raise ValueError("elements belong to different algebras")
            terms = dict(self.terms)
            accumulate(terms, other.terms, _MINUS_ONE)
            e = object.__new__(Element)
            e.alg = alg
            e.terms = terms
            return e
        return NotImplemented

    def __neg__(self):
        e = object.__new__(Element)
        e.alg = self.alg
        e.terms = {k: -c for k, c in self.terms.items()}
        return e

    def __mul__(self, other):
        alg = self.alg
        if isinstance(other, Element):
            if other.alg is not alg:
                raise ValueError("elements belong to different algebras")
            terms = alg.mul_terms(self.terms, other.terms)
        elif isinstance(other, (int, Fraction)):
            other = exact(other)
            if other == 1:
                terms = dict(self.terms)
            elif other == -1:
                terms = {k: -c for k, c in self.terms.items()}
            elif other:
                terms = {k: c * other for k, c in self.terms.items()}
            else:
                terms = {}
        else:
            return NotImplemented
        e = object.__new__(Element)
        e.alg = alg
        e.terms = terms
        return e

    __rmul__ = __mul__

    def __pow__(self, n):
        """Square-and-multiply: about log2(n) products, and zero as soon as a
        repeated square vanishes (every remaining factor is then zero)."""
        if n < 0:
            raise ValueError("negative powers are not defined")
        out = self.alg.unit()
        square = self
        while n:
            if n & 1:
                out = out * square
            n >>= 1
            if n:
                square = square * square
                if not square.terms:
                    return square
        return out

    def d(self):
        """Differential, extended from generators by the graded Leibniz rule."""
        e = object.__new__(Element)
        e.alg = alg = self.alg
        e.terms = alg.d_terms(self.terms)
        return e

    # -- comparison / display ------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Element):
            return self.alg is other.alg and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return not self.terms
            return self.terms == {self.alg.unit_key: other}
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        return self.alg.format_terms(self.terms)


class GradedAlgebra:
    """Shared element arithmetic for key-indexed graded algebras.

    Concrete algebras provide the key primitives ``key_degree``,
    ``mul_keys``, ``d_key``, ``basis`` and ``format_key``.  The unit key is
    the empty tuple unless an algebra sets ``unit_key``.

    An algebra on named generators also provides ``gens`` and
    ``gen_key(name)`` (raising ``KeyError`` for an unknown name); the
    generator interface follows from them: ``generator_names()``,
    ``degree_of(name)`` (the degree of the generator's key), ``self[name]``
    (the unit times the generator, so a quotient reduces it and a truncation
    drops it above its top degree) and ``differential_of(name)`` (``d_key``
    of the generator's key).
    """

    name = "A"
    unit_key = UNIT

    # -- constructors --------------------------------------------------------

    def element(self, terms=None) -> Element:
        return Element(self, terms)

    def zero(self) -> Element:
        return Element(self, {})

    def unit(self) -> Element:
        return Element(self, {self.unit_key: _ONE})

    def scalar(self, c) -> Element:
        return Element(self, {self.unit_key: c})

    def sum(self, elems) -> Element:
        out = self.zero()
        for e in elems:
            out = out + e
        return out

    # -- generators ----------------------------------------------------------

    def generator_names(self):
        return tuple(g.name for g in self.gens)

    def degree_of(self, name) -> int:
        return self.key_degree(self.gen_key(name))

    def __getitem__(self, name) -> Element:
        return Element(self, self.mul_keys(self.unit_key, self.gen_key(name)))

    def differential_of(self, name) -> Element:
        return Element(self, self.d_key(self.gen_key(name)))

    # -- term arithmetic -----------------------------------------------------

    def mul_terms(self, t1, t2):
        out = {}
        mul_keys = self.mul_keys
        for k1, c1 in t1.items():
            for k2, c2 in t2.items():
                if prod := mul_keys(k1, k2):
                    accumulate(out, prod, c1 * c2)
        return out

    def d_terms(self, t):
        out = {}
        d_key = self.d_key
        for k, c in t.items():
            if dk := d_key(k):
                accumulate(out, dk, c)
        return out

    # -- display -------------------------------------------------------------

    def key_sort_token(self, key):
        return (0, key)

    def format_terms(self, terms):
        if not terms:
            return "0"
        items = terms.items()
        if len(terms) > 1:
            items = sorted(items, key=lambda kv: (self.key_degree(kv[0]),
                                                  self.key_sort_token(kv[0])))
        parts = []
        for k, c in items:
            mono = self.format_key(k)
            if mono == "1":
                body = str(abs(c)) if abs(c) != 1 else "1"
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)}*{mono}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"<{type(self).__name__} {self.name}>"


class FreeCdga(GradedAlgebra):
    """Finite-type free graded-commutative algebra with a differential.

    The canonical generator order is the declaration order; basis enumeration,
    signs and report output all derive from it.  ``differential`` maps
    generator names to term dicts; ``define`` takes it as elements instead.
    """

    def __init__(self, generators, differential=None, *, name="A"):
        self.name = name
        self.gens = ()
        self.index = {}
        self._degrees = ()
        self._odd = ()
        self._diff = {}
        self._basis_cache = {}
        self._degree_cache = {}
        self._d_cache = {}
        self._mul_cache = {}
        self._adopted = None
        self._append(generators, differential)

    @classmethod
    def define(cls, generators, d, *, name="A"):
        """Build an algebra whose differential is written in its own elements.

        ``d`` is a callable receiving the zero-differential algebra and
        returning a dict {generator name: Element}.
        """
        plain = cls(generators, None, name=name)
        return cls(generators, {k: v.terms for k, v in d(plain).items()},
                   name=name)

    def _append(self, generators, differential):
        """Append generators and their differentials, and validate them.

        Only the appended generators are checked: each differential must have
        monomial keys, be homogeneous of degree one more than its generator
        and satisfy d(d(v)) = 0.  A differential for an earlier generator is
        an error, so earlier ``d_key`` and ``mul_keys`` entries stay valid.
        """
        new = _as_generators(generators)
        start = len(self.gens)
        index = self.index
        for i, g in enumerate(new, start):
            if g.name in index:
                raise ValueError(f"duplicate generator name {g.name!r}")
            index[g.name] = i
        self.gens += new
        self._degrees += tuple(g.degree for g in new)
        self._odd += tuple(g.degree % 2 == 1 for g in new)
        added = {}
        for gname, terms in (differential or {}).items():
            i = index.get(gname)
            if i is None:
                raise ValueError(f"differential given for unknown generator {gname!r}")
            if i < start:
                raise ValueError(
                    f"differential given for existing generator {gname!r}; "
                    "an extension cannot change it")
            terms = {k: exact(c) for k, c in terms.items() if c}
            if terms:
                added[i] = terms
        for idx, terms in added.items():
            g = self.gens[idx]
            for mon in terms:
                _check_monomial(mon, self._odd, f"d({g.name})")
                if self.key_degree(mon) != g.degree + 1:
                    raise ValueError(
                        f"d({g.name}) must be homogeneous of degree "
                        f"{g.degree + 1}; found a degree-{self.key_degree(mon)} term")
        self._diff.update(added)
        for idx, terms in added.items():
            dd = self.d_terms(terms)
            if dd:
                raise ValueError(
                    f"d(d({self.gens[idx].name})) = {self.format_terms(dd)} != 0")

    # -- keys ----------------------------------------------------------------

    def gen_key(self, name) -> Monomial:
        return ((self.index[name], 1),)

    def key_degree(self, mon) -> int:
        deg = self._degree_cache.get(mon)
        if deg is None:
            deg = self._degree_cache[mon] = sum(self._degrees[i] * e
                                                for i, e in mon)
        return deg

    def monomial(self, factors):
        """Normalize an arbitrarily ordered factor list.

        ``factors`` is an iterable of (name or index, exponent).  Returns
        (sign, monomial); the monomial is None when an odd generator repeats.
        The result is independent of the input order up to the Koszul sign.
        """
        odd_seq = []
        exps = {}
        for ref, e in factors:
            i = self.index[ref] if isinstance(ref, str) else ref
            if e < 0:
                raise ValueError("negative exponent")
            if e == 0:
                continue
            if self._odd[i]:
                odd_seq.extend([i] * e)
            exps[i] = exps.get(i, 0) + e
        if len(set(odd_seq)) != len(odd_seq):
            return _ZERO, None
        inversions = sum(1 for a in range(len(odd_seq))
                         for b in range(a + 1, len(odd_seq))
                         if odd_seq[a] > odd_seq[b])
        key = tuple(sorted(exps.items()))
        return (_ONE if inversions % 2 == 0 else _MINUS_ONE), key

    def mul_keys(self, m1, m2):
        if not m1:
            return {m2: _ONE}
        if not m2:
            return {m1: _ONE}
        cached = self._mul_cache.get((m1, m2))
        if cached is not None:
            return cached
        swaps = 0
        odd = self._odd
        for i2, _e2 in m2:
            if odd[i2]:
                for i1, _e1 in m1:
                    if i1 > i2 and odd[i1]:
                        swaps += 1
        merged = {}
        for i, e in m1:
            merged[i] = e
        zero = False
        for i, e in m2:
            tot = merged.get(i, 0) + e
            if odd[i] and tot > 1:
                zero = True
                break
            merged[i] = tot
        if zero:
            out = {}
        else:
            key = tuple(sorted(merged.items()))
            out = {key: _ONE if swaps % 2 == 0 else _MINUS_ONE}
        self._mul_cache[(m1, m2)] = out
        return out

    def d_key(self, mon):
        """d of a monomial, by one Leibniz step on its cached suffix.

        With mon = x^e * rest, x its first factor,

            d(mon) = e * x^(e-1) * dx * rest + (-1)^(e|x|) * x^e * d(rest).

        x^(e-1) is even (x is even, or e = 1), so the first part is
        dx * (x^(e-1) * rest) with the key x^(e-1) * rest written directly:
        one ``mul_keys`` call per term of dx, and one per term of d(rest).
        The uncached suffixes are filled shortest first, in a loop, so a
        monomial of any length stays within the recursion limit.  On an
        algebra whose differential is zero every answer is {}, stored without
        the suffix walk: that is only for speed, since ``DgaMorphism._check``
        asks for d of each generator of a witness's source, the ambient free
        algebra of a scalability ring, once, and the walk would cost more
        than the answer.
        """
        cache = self._d_cache
        out = cache.get(mon)
        if out is not None:
            return out
        if not (mon and self._diff):
            cache[mon] = out = {}
            return out
        # the suffixes that the table lacks, longest first; d(1) = 0
        todo = [mon]
        rest = mon[1:]
        while rest and rest not in cache:
            todo.append(rest)
            rest = rest[1:]
        d_rest = cache[rest] if rest else {}
        for suffix in reversed(todo):
            (i, e), rest = suffix[0], suffix[1:]
            out = {}
            dgen = self._diff.get(i)
            if dgen:
                left = ((i, e - 1),) + rest if e > 1 else rest
                for dm, dc in dgen.items():
                    accumulate(out, self.mul_keys(dm, left), e * dc)
            if d_rest:
                head = ((i, e),)
                odd = e * self._degrees[i] % 2
                for k, c in d_rest.items():
                    accumulate(out, self.mul_keys(head, k), -c if odd else c)
            cache[suffix] = d_rest = out
        return out

    # -- basis ----------------------------------------------------------------

    def basis(self, degree):
        """All monomials of the given degree, deterministically ordered.

        Order: exponent of the earliest declared generator descending, then
        recursively on later generators.  The walk keeps an explicit stack,
        so the generator count is not bounded by the recursion limit.
        """
        if degree < 0:
            return ()
        cached = self._basis_cache.get(degree)
        if cached is not None:
            return cached
        degrees, odd = self._degrees, self._odd
        # floor[i]: smallest degree among generators i, i+1, ...; a branch
        # whose remaining degree is below it cannot be completed
        floor = [degree + 1] * (len(degrees) + 1)
        for i in range(len(degrees) - 1, -1, -1):
            floor[i] = min(degrees[i], floor[i + 1])
        out = []
        stack = [(0, degree, ())]
        while stack:
            start, remaining, acc = stack.pop()
            if remaining == 0:
                out.append(acc)
                continue
            if remaining < floor[start]:
                continue
            deg = degrees[start]
            top = remaining // deg
            if odd[start]:
                top = min(top, 1)
            # pushed so that the largest exponent is popped first
            stack.append((start + 1, remaining, acc))
            for e in range(1, top + 1):
                stack.append((start + 1, remaining - e * deg, acc + ((start, e),)))
        out = tuple(out)
        self._basis_cache[degree] = out
        return out

    def basis_sizes(self, top):
        """[len(basis(n)) for n in range(top + 1)], in one pass costing
        about len(gens) * top steps.

        Coefficients of the product of 1/(1 - t^d) over even generators
        and (1 + t^d) over odd ones; nothing is enumerated.
        """
        counts = [1] + [0] * top
        for d, odd in zip(self._degrees, self._odd):
            steps = range(top, d - 1, -1) if odd else range(d, top + 1)
            for k in steps:
                counts[k] += counts[k - d]
        return counts

    def format_key(self, mon):
        if not mon:
            return "1"
        return "*".join(self.gens[i].name if e == 1 else f"{self.gens[i].name}^{e}"
                        for i, e in mon)

    # -- extension -------------------------------------------------------------

    def extend(self, new_generators, new_differential):
        """New algebra with generators appended after the existing ones.

        ``new_differential`` maps new generator names to term dicts; naming
        an existing generator raises ``ValueError``, so the old differentials
        are kept as they are.  Existing monomial keys stay valid (indices are
        preserved), so term dicts of old elements can be reused directly.
        For the same reason the extension starts from copies of this
        algebra's ``key_degree``, ``d_key`` and ``mul_keys`` tables (copies,
        so an entry first computed on the extension never reaches this
        algebra), and it validates only the new generators; the old ones were
        checked when this algebra was built.

        Cached bases are carried where the new generators only append to
        them.  With d the least degree of a new generator and m the least
        degree of any generator of the extension, a monomial holding a new
        generator is that generator alone or has degree at least d + m.  So
        for a cached degree n < d + m, basis(n) here is this algebra's
        basis(n) followed by the new generators of degree n, in declaration
        order: the basis walk lists the monomials with no old factor last.
        Other degrees are enumerated on demand.  Nothing else is carried
        over, so no cache kept on this algebra (such as its interval algebra
        or the source its ``adopt`` last accepted) reaches the extension.
        """
        out = FreeCdga([], name=self.name)
        out.gens, out._degrees, out._odd = self.gens, self._degrees, self._odd
        out.index, out._diff = dict(self.index), dict(self._diff)
        out._degree_cache = dict(self._degree_cache)
        out._d_cache, out._mul_cache = dict(self._d_cache), dict(self._mul_cache)
        start = len(self.gens)
        out._append(new_generators, new_differential)
        new_degrees = out._degrees[start:]
        bound = (min(new_degrees) + min(out._degrees) if new_degrees
                 else float("inf"))
        for n, keys in self._basis_cache.items():
            if n < bound:
                out._basis_cache[n] = keys + tuple(
                    ((i, 1),) for i, deg in enumerate(new_degrees, start)
                    if deg == n)
        return out

    def adopt(self, element: Element) -> Element:
        """The element re-homed here, its term dict copied unchanged: its
        algebra's generators must be this one's first generators (names,
        degrees and order), or ValueError names the first that differs.  The
        check runs once per source generator tuple (the last one that passed
        is remembered), not per element."""
        gens = element.alg.gens
        if gens is not self._adopted:
            mine = self.gens
            for i, g in enumerate(gens):
                if (i >= len(mine) or g.name != mine[i].name
                        or g.degree != mine[i].degree):
                    raise ValueError(f"generator {g.name!r} of degree {g.degree} "
                                     f"is not generator {i + 1} of {self.name}")
            self._adopted = gens
        return Element._wrap(self, dict(element.terms))


class OverFreeCdga(GradedAlgebra):
    """An algebra on the generators and monomial keys of the free CDGA
    ``self.base``: generators, key degrees and key display are the base's."""

    @property
    def gens(self):
        return self.base.gens

    def gen_key(self, name):
        return self.base.gen_key(name)

    def key_degree(self, key):
        return self.base.key_degree(key)

    def format_key(self, key):
        return self.base.format_key(key)


class TruncatedCdga(OverFreeCdga):
    """Quotient of a free CDGA by everything above a top degree.

    The ideal of elements of degree above the cutoff is closed under d and
    under multiplication, so this is again a differential graded algebra.
    Used as a finite-dimensional stand-in where genuine form algebras would
    appear.
    """

    def __init__(self, base: FreeCdga, top: int, *, name=None):
        if top < 0:
            raise ValueError("truncation degree must be nonnegative")
        self.base = base
        self.top = top
        self.name = name or f"{base.name}|<= {top}"

    def basis(self, degree):
        if degree > self.top:
            return ()
        return self.base.basis(degree)

    def mul_keys(self, m1, m2):
        return {k: c for k, c in self.base.mul_keys(m1, m2).items()
                if self.base.key_degree(k) <= self.top}

    def d_key(self, mon):
        return {k: c for k, c in self.base.d_key(mon).items()
                if self.base.key_degree(k) <= self.top}


class DgaMorphism:
    """Algebra map defined on generators and commuting with differentials.

    The source is a free CDGA; the target may be any key-indexed graded
    algebra (free, truncated, exterior, ring presentation, cell attachment,
    or the interval algebra of a homotopy).  Both the degree-preservation and the
    chain-map condition phi(dv) = d(phi(v)) are checked at construction;
    ``extend`` checks them on the appended generators only.
    Key images are multiplied out from the generator images on every call,
    with no per-key cache: a morphism holds nothing but its images.
    """

    def __init__(self, source, target, images):
        self.source = source
        self.target = target
        self.images = {}
        self._gen_terms = []   # by position
        self._add_images(source.gens, images)
        self._check(0)

    def _add_images(self, gens, images):
        target = self.target
        for g in gens:
            if g.name not in images:
                raise ValueError(f"no image given for generator {g.name!r}")
            e = images[g.name]
            if e.alg is not target:
                raise ValueError(f"image of {g.name!r} lives in the wrong algebra")
            self.images[g.name] = e
            self._gen_terms.append(e.terms)

    def _check(self, start):
        """Check the source generators from position ``start`` on."""
        source, target = self.source, self.target
        gens = source.gens[start:]
        key_degree = target.key_degree
        for g, terms in zip(gens, self._gen_terms[start:]):
            # a zero image has no term, so it passes
            for k in terms:
                if key_degree(k) != g.degree:
                    raise ValueError(
                        f"image of {g.name!r} is not homogeneous of degree {g.degree}")
        for g in gens:
            dv = source.d_key(source.gen_key(g.name))
            lhs = self.apply_terms(dv) if dv else {}
            rhs = target.d_terms(self.images[g.name].terms)
            if lhs != rhs:
                lhs, rhs = Element._wrap(target, lhs), Element._wrap(target, rhs)
                raise ValueError(
                    f"not a chain map on {g.name!r}: phi(d {g.name}) = {lhs} "
                    f"but d(phi {g.name}) = {rhs}")

    def extend(self, source, new_images):
        """The same map on ``source``, an extension of this map's source,
        sending each appended generator to its image in ``new_images``.

        ``source`` must lead with this map's source generators (same names,
        degrees and stages, same order) and keep their differentials; then
        their images and chain-map conditions are unchanged, so only the
        appended generators are checked, as the constructor checks every
        generator (same errors).  An image given for an existing generator
        is refused, as an extension cannot change it.
        """
        old = self.source
        start = len(old.gens)
        if source.gens[:start] != old.gens:
            raise ValueError(f"{source.name} does not lead with the generators "
                             f"of {old.name}")
        for g in old.gens:
            key = old.gen_key(g.name)
            if source.d_key(key) != old.d_key(key):
                raise ValueError(f"{source.name} changes the differential of "
                                 f"{g.name!r}")
        for name in new_images:
            if name in self.images:
                raise ValueError(f"image given for existing generator {name!r}; "
                                 "an extension cannot change it")
        out = object.__new__(DgaMorphism)
        out.source, out.target = source, self.target
        out.images, out._gen_terms = dict(self.images), list(self._gen_terms)
        out._add_images(source.gens[start:], new_images)
        out._check(start)
        return out

    @classmethod
    def identity(cls, alg):
        return cls(alg, alg, {g.name: alg[g.name] for g in alg.gens})

    def apply_terms(self, terms):
        """Image of a term dict, as a new dict sharing none of the images'.

        A monomial is multiplied out factor by factor, left to right, and
        dropped at the first partial product that vanishes: a monomial
        x * y * z with phi(x) phi(y) = 0 costs one ``mul_terms`` call, not
        two.  The unit's image is built only for the empty monomial.
        """
        out = {}
        gen_terms, mul_terms = self._gen_terms, self.target.mul_terms
        for mon, c in terms.items():
            img = None
            for i, e in mon:
                g = gen_terms[i]
                img = g if img is None else mul_terms(img, g)
                if e > 1:
                    for _ in range(e - 1):
                        if not img:
                            break
                        img = mul_terms(img, g)
                if not img:
                    break
            if img is None:
                img = {self.target.unit_key: _ONE}
            if img:
                accumulate(out, img, c)
        return out

    def apply(self, x: Element) -> Element:
        if x.alg is not self.source:
            raise ValueError("element does not belong to the morphism source")
        return Element(self.target, self.apply_terms(x.terms))

    def compose(self, inner: "DgaMorphism") -> "DgaMorphism":
        """self o inner."""
        if inner.target is not self.source:
            raise ValueError("morphisms are not composable")
        images = {g.name: self.apply(inner.images[g.name]) for g in inner.source.gens}
        return DgaMorphism(inner.source, self.target, images)

    def __repr__(self):
        return f"<DgaMorphism {self.source.name} -> {getattr(self.target, 'name', '?')}>"
