"""Graded-commutative ring presentations as finite-dimensional algebras.

A presentation is a free graded-commutative algebra modulo a homogeneous
ideal, carried with zero differential.  Per-degree bases of the quotient are
computed lazily by exact elimination: the ideal slice in degree k is spanned
by monomial multiples of the relations, and the chosen basis is the set of
non-pivot monomials, which makes reduction and reports reproducible.

No Groebner machinery: everything is degreewise linear algebra, which is all
the finite-dimensional stand-ins here need.
"""

from __future__ import annotations

from functools import cached_property

from . import linalg
from .cdga import Element, FreeCdga, OverFreeCdga, _check_monomial, exact
from .cohomology import coords
from .linalg import _ONE, accumulate


class RingPresentation(OverFreeCdga):
    """Finite presentation of a graded-commutative ring (zero differential).

    ``relations`` is a tuple of homogeneous term dicts in the keys of the
    ambient free algebra ``base`` on the given generators: a monomial is a
    tuple of (generator index, exponent) pairs in increasing index order,
    with exponent 1 for odd generators, so ``{((0, 2),): 1}`` is the square
    of the first generator.  The intake takes such dicts, with a malformed
    key raising ValueError, or Elements of a free algebra whose generators
    lead these (names, degrees, order), re-homed by ``adopt``, which refuses
    an Element of any other algebra with ValueError.
    ``fundamental_degree`` marks the top degree of a Poincare-duality
    presentation; ``verify_duality()`` checks nonsingularity of the induced
    pairing by exact determinant ranks.
    ``duality=True`` promises that the quotient vanishes above
    ``fundamental_degree`` n and pairs nonsingularly into its one-dimensional
    degree n; ``verify_witness`` trusts it and skips its independence check.
    The constructor does not check the flag: x of degree 2 with x^3 = 0,
    flagged with n = 2, is built although x^2 survives in degree 4, and only
    ``verify_duality()`` refuses it.
    ``fundamental_monomial`` is an ambient monomial known to represent the
    fundamental class, set by builders that know one (connected sums, the
    equal-powers rings) and None otherwise; ``top_basis_key()`` finds one by
    computing the top-degree quotient.
    """

    def __init__(self, generators, relations=(), *, name="R",
                 fundamental_degree=None, duality=False):
        self.name = name
        self.base = base = FreeCdga(generators, None, name=f"{name}~ambient")
        rels = []
        for r in relations:
            if isinstance(r, Element):
                r = base.adopt(r).terms
            terms = {k: exact(c) for k, c in r.items() if c}
            for k in terms:
                _check_monomial(k, base._odd, "relation")
            # a single monomial is homogeneous; only sums need the check
            if len(terms) > 1 and len({base.key_degree(k) for k in terms}) > 1:
                raise ValueError(f"relation {base.format_terms(terms)} "
                                 "is not homogeneous")
            if terms:
                rels.append(terms)
        self.relations = tuple(rels)
        self.fundamental_degree = fundamental_degree
        self.fundamental_monomial = None
        self.duality = duality
        self._slices = {}
        if duality:
            if fundamental_degree is None:
                raise ValueError("duality flag needs a fundamental degree")

    # -- quotient slices -----------------------------------------------------

    @cached_property
    def _relation_degrees(self):
        """Each relation's degree, read off one term (relations are
        homogeneous); computed on the first slice, not at construction."""
        return [self.base.key_degree(next(iter(rel)))
                for rel in self.relations]

    def _slice(self, degree):
        """(basis keys, pivot->reduction rows) of one degree."""
        cached = self._slices.get(degree)
        if cached is not None:
            return cached
        amb = self.base.basis(degree)
        pos = {k: i for i, k in enumerate(amb)}
        rows = []
        for rel, rdeg in zip(self.relations, self._relation_degrees):
            if rdeg > degree:
                continue
            for mon in self.base.basis(degree - rdeg):
                prod = self.base.mul_terms({mon: _ONE}, rel)
                if prod:
                    rows.append(coords(prod, pos))
        red, pivots = linalg.rref(rows)
        pivot_set = set(pivots)
        basis = tuple(k for i, k in enumerate(amb) if i not in pivot_set)
        reduction = {amb[p]: {amb[j]: -row[j] for j in sorted(row) if j != p}
                     for row, p in zip(red, pivots)}
        out = (basis, reduction)
        self._slices[degree] = out
        return out

    def reduce_terms(self, terms):
        """Rewrite ambient terms on the chosen quotient basis, per degree."""
        by_degree = {}
        for k, c in terms.items():
            by_degree.setdefault(self.base.key_degree(k), {})[k] = c
        out = {}
        for degree, part in by_degree.items():
            reduction = self._slice(degree)[1]
            for k, c in part.items():
                repl = reduction.get(k)
                if repl is None:
                    accumulate(out, {k: c})
                else:
                    accumulate(out, repl, c)
        return out

    # -- GradedAlgebra interface ----------------------------------------------

    def basis(self, degree):
        if degree < 0:
            return ()
        return self._slice(degree)[0]

    def mul_keys(self, k1, k2):
        return self.reduce_terms(self.base.mul_keys(k1, k2))

    def d_key(self, key):
        return {}

    # -- duality ----------------------------------------------------------------

    def top_basis_key(self):
        n = self.fundamental_degree
        if n is None:
            raise ValueError("presentation has no fundamental degree")
        top = self.basis(n)
        if len(top) != 1:
            raise ValueError(f"top degree {n} has rank {len(top)}, expected 1")
        return top[0]

    def verify_duality(self):
        """Nonsingularity of the pairing H^k x H^(n-k) -> H^n, all k.

        Exact check: for each degree the pairing matrix on the presented
        bases must have full rank.  Raises on failure.  Degrees n+1 .. n + D,
        D the largest generator degree, must vanish as well: a monomial above
        n + D has a divisor in that range (peel off one generator at a
        time), so no higher degree survives either.
        """
        n = self.fundamental_degree
        self.top_basis_key()
        for k in range(0, n // 2 + 1):
            left = self.basis(k)
            right = self.basis(n - k)
            if len(left) != len(right):
                raise ValueError(
                    f"duality fails: dim H^{k} = {len(left)} but "
                    f"dim H^{n - k} = {len(right)}")
            # each product is a multiple of the one top basis key
            mat = [{kr: next(iter(prod.values())) for kr in right
                    if (prod := self.mul_keys(kl, kr))} for kl in left]
            if linalg.rank(mat) != len(left):
                raise ValueError(f"duality pairing is singular in degree {k}")
        top = max((g.degree for g in self.gens), default=0)
        for k in range(n + 1, n + top + 1):
            if survivors := len(self.basis(k)):
                raise ValueError(
                    f"duality fails: dim H^{k} = {survivors} above the "
                    f"fundamental degree {n}")
        return True


def sphere_ring(n):
    """Cohomology ring of an n-sphere: one generator with square zero."""
    rels = [{((0, 2),): _ONE}] if n % 2 == 0 else []
    return RingPresentation([("x", n)], rels, name=f"S{n}",
                            fundamental_degree=n, duality=True)


def projective_ring(gen_degree, power, *, name=None):
    """Truncated polynomial ring {x^(power+1) = 0} on one even generator."""
    if gen_degree % 2:
        raise ValueError(f"a projective ring needs an even generator degree, "
                         f"got {gen_degree}")
    return RingPresentation(
        [("x", gen_degree)], [{((0, power + 1),): _ONE}],
        name=name or f"P({gen_degree},{power})",
        fundamental_degree=gen_degree * power, duality=True)


def wedge_of_spheres_ring(degrees, *, name="wedge"):
    """Ring with one generator per sphere and all products of generators
    zero: the square of each even generator and each product x_i x_j with
    i < j, which is already in key order."""
    gens = [(f"x{i}", d) for i, d in enumerate(degrees)]
    rels = []
    for i, d in enumerate(degrees):
        if d % 2 == 0:
            rels.append({((i, 2),): _ONE})
        rels.extend({((i, 1), (j, 1)): _ONE} for j in range(i + 1, len(gens)))
    return RingPresentation(gens, rels, name=name)
