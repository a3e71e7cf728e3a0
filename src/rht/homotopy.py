"""Homotopies over the polynomial interval, obstruction operators, pairings.

B (x) Q<t, dt> is itself a graded algebra, ``interval_algebra(B)``: its key
(i, e, k) stands for k (x) t^i dt^e, with t of degree 0, dt of degree 1
squaring to zero, d(t) = dt, and dt written to the right of the coefficient.
A homotopy element is an ordinary ``Element`` of it, and a homotopy of
algebra maps is a ``DgaMorphism`` into it.  The two integration operators
annihilate the terms without dt and act on the others by

    int_0^t  c (x) t^i dt = (-1)^deg(c) c (x) t^(i+1)/(i+1)
    int_0^1  c (x) t^i dt = (-1)^deg(c) c / (i+1)

and satisfy, exactly,

    d(int_0^t u) + int_0^t du = u - u|_{t=0,dt=0} (x) 1
    d(int_0^1 u) + int_0^1 du = u|_{t=1,dt=0} - u|_{t=0,dt=0}.

Homotopies of algebra maps are oriented here with the composite at t = 1:
H|_{t=0} is the extendee g restricted to the base and H|_{t=1} is h o f.
That orientation is forced by requiring the obstruction assignment
O(v) = (f(dv), g(v) + int_0^1 H(dv)) to be a relative cocycle.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .cdga import _ZERO, DgaMorphism, Element, GradedAlgebra, exact
from .cohomology import DegreeCohomology, MappingCone, primitive
from .fileformat import check_nesting, excerpt, rational, split_top
from .linalg import accumulate
from .models import require_minimal

class IntervalAlgebra(GradedAlgebra):
    """B (x) Q<t, dt> over a graded algebra B; build it with interval_algebra.

    Key (i, e, k) is k (x) t^i dt^e with e in {0, 1}.  Moving dt past a
    coefficient of degree p costs (-1)^p, and
    d(k (x) t^i) = dk (x) t^i + (-1)^deg(k) i k (x) t^(i-1) dt.
    """

    def __init__(self, base):
        self.base = base
        self.name = f"{base.name}[t,dt]"
        self.unit_key = (0, 0, base.unit_key)
        self._d_cache = {}

    def lift(self, element: Element, i=0, *, dt=False) -> Element:
        """element (x) t^i, times dt when ``dt`` is set; i is at least 0."""
        if element.alg is not self.base:
            raise ValueError("element does not belong to the interval base")
        if i < 0:
            raise ValueError(f"power of t must be nonnegative, got {i}")
        e = int(dt)
        return Element._wrap(self, {(i, e, k): c for k, c in element.terms.items()})

    def key_degree(self, key):
        return self.base.key_degree(key[2]) + key[1]

    def mul_keys(self, k1, k2):
        i1, e1, b1 = k1
        i2, e2, b2 = k2
        if e1 and e2:
            return {}
        prod = self.base.mul_keys(b1, b2)
        if not prod:
            return {}
        i, e = i1 + i2, e1 + e2
        if e1 and self.base.key_degree(b2) % 2:
            return {(i, e, k): -s for k, s in prod.items()}
        return {(i, e, k): s for k, s in prod.items()}

    def d_key(self, key):
        cached = self._d_cache.get(key)
        if cached is not None:
            return cached
        i, e, b = key
        out = {(i, e, k): c for k, c in self.base.d_key(b).items()}
        if i and not e:
            out[(i - 1, 1, b)] = -i if self.base.key_degree(b) % 2 else i
        self._d_cache[key] = out
        return out

    def format_key(self, key):
        i, e, b = key
        parts = [] if b == self.base.unit_key else [self.base.format_key(b)]
        if i:
            parts.append("t" if i == 1 else f"t^{i}")
        if e:
            parts.append("dt")
        return "*".join(parts) or "1"

    def key_sort_token(self, key):
        return (key[0], key[1], self.base.key_sort_token(key[2]))


def interval_algebra(base) -> IntervalAlgebra:
    """The one IntervalAlgebra over ``base``, kept on the base.

    ``setdefault`` keeps it one even when two threads ask at once: images
    built over a second instance would not belong to the first.
    """
    found = base.__dict__.get("_interval")
    if found is None:
        found = base.__dict__.setdefault("_interval", IntervalAlgebra(base))
    return found


def at(u: Element, t_value) -> Element:
    """Restriction of an interval element at t = t_value, dt = 0 (0 or 1)."""
    if t_value not in (0, 1):
        raise ValueError("only the endpoints t = 0 and t = 1 are meaningful")
    out = {}
    for (i, e, k), c in u.terms.items():
        if not e and (t_value or not i):
            accumulate(out, {k: c})
    return Element._wrap(u.alg.base, out)


def integrate_0_t(u: Element) -> Element:
    """Formal fiberwise integral from 0 to t; terms without dt vanish."""
    return Element._wrap(u.alg, {(i + 1, 0, k): _integral(u, k, i, c)
                                 for (i, e, k), c in u.terms.items() if e})


def integrate_0_1(u: Element) -> Element:
    """Formal fiberwise integral from 0 to 1; lands back in the base (through
    the ``Element`` intake, which stores a whole sum over t^i as an int)."""
    out = {}
    for (i, e, k), c in u.terms.items():
        if e:
            accumulate(out, {k: _integral(u, k, i, c)})
    return Element(u.alg.base, out)


def _integral(u, k, i, c):
    """(-1)^deg(k) c / (i+1): the integral of c k (x) t^i dt, an int when
    whole (with no ``Fraction`` built when i + 1 divides an int c)."""
    if i:
        if type(c) is int and not c % (i + 1):
            c //= i + 1
        else:
            c = exact(Fraction(c, i + 1))
    return -c if u.alg.base.key_degree(k) % 2 else c


class DgaHomotopy(DgaMorphism):
    """Homotopy between two algebra maps: a map into the interval algebra.

    ``start`` and ``end`` are the restrictions at t = 0 and t = 1.  The
    generator images live in ``interval_algebra(start.target)``; the
    endpoints are compared first, then the chain-map condition
    H(dv) = d(H(v)) of every DgaMorphism.
    """

    def __init__(self, start: DgaMorphism, end: DgaMorphism, images):
        if start.source is not end.source or start.target is not end.target:
            raise ValueError("homotopy endpoints must share source and target")
        self.start = start
        self.end = end
        interval = interval_algebra(start.target)
        for g in start.source.gens:
            h = images.get(g.name)
            if h is None:
                raise ValueError(f"no homotopy image for generator {g.name!r}")
            if h.alg is not interval:
                raise ValueError(f"image of {g.name!r} lives in the wrong algebra")
            if at(h, 0) != start.images[g.name]:
                raise ValueError(f"H({g.name}) at t=0 differs from the start map")
            if at(h, 1) != end.images[g.name]:
                raise ValueError(f"H({g.name}) at t=1 differs from the end map")
        super().__init__(start.source, interval, images)

    @classmethod
    def constant(cls, phi: DgaMorphism):
        interval = interval_algebra(phi.target)
        imgs = {g.name: interval.lift(phi.images[g.name]) for g in phi.source.gens}
        return cls(phi, phi, imgs)


# ---------------------------------------------------------------------------
# obstruction theory for elementary extensions


@dataclass
class ObstructionClass:
    """Obstruction to extending f over an elementary extension.

    ``cocycle`` maps each extension generator v to the pair
    (f(dv), g(v) + int_0^1 H(dv)) in B^(n+1) (+) C^n; ``class_coords`` maps
    v to the sparse row of its class in the relative cohomology of h, and
    ``primitives`` are deterministic solutions d(b, c) = O(v) when the class
    vanishes.
    """

    f: DgaMorphism
    g: DgaMorphism
    h: DgaMorphism
    homotopy: DgaHomotopy
    extension_degree: int
    v_names: tuple
    cocycle: dict
    class_coords: dict
    rank: int
    primitives: dict | None

    @property
    def vanishes(self):
        return self.rank == 0


def _extension_generators(f: DgaMorphism, g: DgaMorphism):
    """Names and common degree of V in A<V>, which must list A's generators
    first, in A's order, so that a term dict of d(v) is one of A as well."""
    base = [(gen.name, gen.degree) for gen in f.source.gens]
    if [(gen.name, gen.degree) for gen in g.source.gens[:len(base)]] != base:
        raise ValueError("A<V> must list the generators of A first, with the "
                         "same names and degrees in the same order")
    new = g.source.gens[len(base):]
    if not new:
        raise ValueError("the extension adds no generators")
    degs = {gen.degree for gen in new}
    if len(degs) != 1:
        raise ValueError("elementary extension generators must share one degree")
    for gen in new:
        for mon in g.source.differential_of(gen.name).terms:
            if any(i >= len(base) for i, _e in mon):
                raise ValueError(
                    f"d({gen.name}) leaves the base algebra; extension is "
                    "not elementary")
    return tuple(gen.name for gen in new), degs.pop()


def obstruction_class(f: DgaMorphism, g: DgaMorphism, h: DgaMorphism,
                      homotopy: DgaHomotopy | None = None) -> ObstructionClass:
    """Obstruction cocycle O(v) = (f(dv), g(v) + int_0^1 H(dv)) and its class.

    The square is f: A -> B, h: B -> C, g: A<V> -> C, with H a homotopy from
    g|_A (at t = 0) to h o f (at t = 1) over C.  Passing no homotopy uses the
    constant one, which requires g|_A = h o f exactly.  A<V> lists A's
    generators first, in A's order, and ValueError is raised otherwise.
    """
    if h.source is not f.target:
        raise ValueError("h must start at the target of f")
    if g.target is not h.target:
        raise ValueError("g and h must share a target")
    v_names, n = _extension_generators(f, g)
    restricted = DgaMorphism(f.source, g.target,
                             {gen.name: g.images[gen.name] for gen in f.source.gens})
    hf = h.compose(f)
    if homotopy is None:
        for gen in f.source.gens:
            if restricted.images[gen.name] != hf.images[gen.name]:
                raise ValueError("g|_A differs from h o f; a homotopy is required")
        homotopy = DgaHomotopy.constant(restricted)
    else:
        if (homotopy.source is not f.source
                or homotopy.target is not interval_algebra(g.target)):
            raise ValueError("homotopy does not fit the extension square")
        for gen in f.source.gens:
            if homotopy.start.images[gen.name] != restricted.images[gen.name]:
                raise ValueError("homotopy must start at g restricted to A")
            if homotopy.end.images[gen.name] != hf.images[gen.name]:
                raise ValueError("homotopy must end at h o f")

    cone = MappingCone(h)
    dc = DegreeCohomology(cone, n + 1)
    cocycle = {}
    class_coords = {}
    for name in v_names:
        dv_ext = g.source.differential_of(name)
        dv_base = Element(f.source, dict(dv_ext.terms))
        b_part = f.apply(dv_base)
        c_part = g.images[name] + integrate_0_1(homotopy.apply(dv_base))
        cocycle[name] = (b_part, c_part)
        class_coords[name] = dc.class_coords(cone.terms_of_pair(b_part, c_part))
    rank = linalg.rank(class_coords.values())
    primitives = None
    if rank == 0:
        primitives = {}
        for name in v_names:
            terms = primitive(cone, cone.terms_of_pair(*cocycle[name]), n + 1)
            if terms is None:
                raise AssertionError("vanishing class without a primitive")
            primitives[name] = cone.pair_of(terms)
    return ObstructionClass(f, g, h, homotopy, n, v_names, cocycle,
                            class_coords, rank, primitives)


def extend_with_witness(obstruction: ObstructionClass):
    """Extension (f~, H~) from a vanishing obstruction's primitives.

    f~(v) = b(v) and H~(v) = g(v) + d(c(v) (x) t) + int_0^t H(dv).  The
    constructors reject an invalid primitive: f~ is a chain map exactly when
    d(b(v)) = f(dv), and H~ ends at h o f~ exactly when
    d(c(v)) = h(b(v)) - g(v) - int_0^1 H(dv).
    """
    if obstruction.primitives is None:
        raise ValueError("obstruction class does not vanish; nothing to extend")
    f, g, h = obstruction.f, obstruction.g, obstruction.h
    H = obstruction.homotopy
    images_f = {gen.name: f.images[gen.name] for gen in f.source.gens}
    for name, (b_v, _c_v) in obstruction.primitives.items():
        images_f[name] = b_v
    f_ext = DgaMorphism(g.source, f.target, images_f)
    h_f_ext = h.compose(f_ext)

    interval = H.target
    images_H = dict(H.images)
    for name, (_b_v, c_v) in obstruction.primitives.items():
        dv = Element(f.source, dict(g.source.differential_of(name).terms))
        tail = interval.lift(c_v, 1).d() + integrate_0_t(H.apply(dv))
        images_H[name] = interval.lift(g.images[name]) + tail
    H_ext = DgaHomotopy(g, h_f_ext, images_H)
    return f_ext, H_ext


# ---------------------------------------------------------------------------
# Whitehead-bracket pairing


@dataclass(frozen=True)
class Leaf:
    """A multiple of the homotopy class dual to one model generator."""
    name: str
    multiplier: Fraction = Fraction(1)


@dataclass(frozen=True)
class Node:
    left: object
    right: object


BracketExpression = Leaf | Node

# A leaf: an optional multiplier up to the first '*', then a name.
_LEAF = re.compile(r"(?:([^*]*)\*)?\s*([\w/-]+)")


def parse_bracket(text: str) -> BracketExpression:
    """Parse ``name``, ``N*name`` or ``[expr,expr]``, with whitespace
    tolerated around every part.

    A name is a run of letters, digits, ``_``, ``/`` and ``-``; N is a
    literal that ``rational`` reads, a signed integer or p/q.  A bracket's
    body is cut at its top-level comma by ``split_top``.  Brackets nested
    deeper than MAX_NESTING levels raise PresentationError; every other
    malformed input raises ValueError, quoting at most an ``excerpt``.
    """
    check_nesting(text, "bracket expression")

    def parse(s):
        if s.startswith("[") and s.endswith("]"):
            parts = split_top(s[1:-1])
            if len(parts) != 2:
                raise ValueError(f"bracket {excerpt(s)} needs two entries and one "
                                 "comma outside inner brackets")
            return Node(parse(parts[0]), parse(parts[1]))
        leaf = _LEAF.fullmatch(s)
        if leaf is None:
            raise ValueError(f"malformed bracket expression {excerpt(s)}: expected "
                             "name, N*name or [expr,expr]")
        count, name = leaf.groups()
        if count is None:
            return Leaf(name)
        return Leaf(name, rational(count.strip()))

    return parse(text.strip())


def bracket_degree(alg, expr) -> int:
    """Homotopy degree of the expression: leaves carry the generator degree,
    a bracket of degrees p and q has degree p + q - 1."""
    if isinstance(expr, Leaf):
        if expr.name not in alg.index:
            raise ValueError(f"unknown generator {expr.name!r} in bracket")
        return alg.degree_of(expr.name)
    return bracket_degree(alg, expr.left) + bracket_degree(alg, expr.right) - 1


def scale_leaves(expr, factor_for_degree):
    """Multiply every leaf by a degree-dependent factor (for scaling laws)."""
    if isinstance(expr, Leaf):
        return Leaf(expr.name, expr.multiplier * factor_for_degree(expr))
    return Node(scale_leaves(expr.left, factor_for_degree),
                scale_leaves(expr.right, factor_for_degree))


def whitehead_pair(alg, generator: str, expr: BracketExpression) -> Fraction:
    """Pairing of a generator of a minimal model's algebra against an
    iterated bracket expression.

    Computed from the quadratic part of the differential: a monomial x*y in
    d(v) contributes <x, left><y, right> + (-1)^(deg x deg y)
    <y, left><x, right>, recursively.  The global sign is a convention; the
    magnitude and the multilinear scaling in the leaf multipliers are not.
    An algebra with a linear differential is rejected.
    """
    require_minimal(alg)
    if generator not in alg.index:
        raise ValueError(f"unknown generator {generator!r}")
    if bracket_degree(alg, expr) != alg.degree_of(generator):
        raise ValueError(
            f"bracket has homotopy degree {bracket_degree(alg, expr)} but "
            f"{generator!r} has degree {alg.degree_of(generator)}")
    return _pair(alg, generator, expr)


def _pair(alg, gname, expr) -> Fraction:
    if isinstance(expr, Leaf):
        return expr.multiplier if expr.name == gname else _ZERO
    if bracket_degree(alg, expr) != alg.degree_of(gname):
        return _ZERO
    total = _ZERO
    for mon, coeff in alg.differential_of(gname).terms.items():
        factors = []
        for i, e in mon:
            factors.extend([alg.gens[i].name] * e)
        if len(factors) != 2:
            continue
        x, y = factors
        px_l = _pair(alg, x, expr.left)
        py_r = _pair(alg, y, expr.right) if px_l else _ZERO
        py_l = _pair(alg, y, expr.left)
        px_r = _pair(alg, x, expr.right) if py_l else _ZERO
        sign = -1 if (alg.degree_of(x) * alg.degree_of(y)) % 2 else 1
        total += coeff * (px_l * py_r + sign * py_l * px_r)
    return total


# ---------------------------------------------------------------------------
# Massey triple products


@dataclass
class MasseyResult:
    degree: int
    class_representative: Element
    class_coords: dict        # sparse row over H^degree's representatives, ints when whole
    indeterminacy_rows: list  # reduced sparse rows over class coordinates, likewise
    indeterminacy_dim: int
    vanishes_mod_indeterminacy: bool


def massey_triple(algebra, x, y, z) -> MasseyResult:
    """Triple product <x, y, z> of homogeneous closed elements of ``algebra``,
    with its indeterminacy subspace.

    Requires [x][y] = 0 and [y][z] = 0; with dxi = x y and deta = y z the
    class is [xi z - (-1)^deg(x) x eta], reported together with the subspace
    [x] H + H [z] (never silently quotiented).
    """
    for e in (x, y, z):
        if e.alg is not algebra:
            raise ValueError("element lives over a different algebra")
        if not e.is_homogeneous():
            raise ValueError("representative is not homogeneous")
        if e.d():
            raise ValueError("representative is not closed")
    if x.is_zero() or y.is_zero() or z.is_zero():
        dx = (x.degree or 0) + (y.degree or 0) + (z.degree or 0) - 1
        return MasseyResult(max(dx, 0), algebra.zero(), {}, [], 0, True)
    dx, dy, dz = x.degree, y.degree, z.degree
    deg = dx + dy + dz - 1

    xi = primitive(algebra, (x * y).terms, dx + dy)
    if xi is None:
        raise ValueError("[x][y] does not vanish; Massey product undefined")
    eta = primitive(algebra, (y * z).terms, dy + dz)
    if eta is None:
        raise ValueError("[y][z] does not vanish; Massey product undefined")
    w = Element(algebra, xi) * z - ((-1) ** dx) * (x * Element(algebra, eta))
    dc = DegreeCohomology(algebra, deg)
    coords = dc.class_coords(w.terms)

    indet_rows = [dc.class_coords((x * e).terms)
                  for e in DegreeCohomology(algebra, dy + dz - 1).classes]
    indet_rows += [dc.class_coords((e * z).terms)
                   for e in DegreeCohomology(algebra, dx + dy - 1).classes]
    red, piv = linalg.rref(indet_rows)
    reduced = linalg.reduce_against(coords, red, piv)
    return MasseyResult(deg, w, coords, red, len(red), not reduced)


# ---------------------------------------------------------------------------
# Hopf invariants from cup squares


def hopf_invariant(ring, generator):
    """Cup-square coefficient of a degree-n generator against the top class.

    The presentation must have a rank-1 top degree; the result is the exact
    coefficient of w^2 over the deterministic top basis vector.
    """
    n = ring.degree_of(generator)
    top = ring.top_basis_key()
    top_degree = ring.fundamental_degree
    if 2 * n != top_degree:
        raise ValueError(
            f"square of {generator!r} has degree {2 * n}, not the top "
            f"degree {top_degree}")
    w2 = ring[generator] * ring[generator]
    stray = {k: c for k, c in w2.terms.items() if k != top}
    if stray:
        raise ValueError("cup square is not proportional to the top class")
    return w2.terms.get(top, _ZERO)
