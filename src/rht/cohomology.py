"""Exact cohomology of graded differential algebras and of morphisms.

Everything here is degreewise linear algebra over the rationals on the basis
provided by the algebra object (free, truncated, ring presentation, or cell
attachment; mapping cones are wrapped to expose the same interface).
Representatives are pinned by deterministic pivoting, so repeated runs and
golden reports agree byte for byte.

A truncation cap is recorded on every result and queries above the cap are
rejected: a free CDGA has no top degree, so silence above the cap would be a
lie rather than a zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .cdga import Element, GradedAlgebra

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class CohomologyClass:
    degree: int
    representative: Element

    def __post_init__(self):
        if self.representative.d():
            raise ValueError("representative of a cohomology class must be closed")


class DegreeCohomology:
    """Kernel/image data of one degree of a complex, with class coordinates."""

    def __init__(self, complex_like, degree):
        self.complex = complex_like
        self.degree = degree
        self.keys = list(complex_like.basis(degree))
        up = list(complex_like.basis(degree + 1))
        up_pos = {k: i for i, k in enumerate(up)}
        dn = list(complex_like.basis(degree - 1)) if degree > 0 else []

        def d_column(key, pos_map, size):
            col = [_ZERO] * size
            for k, c in complex_like.d_key(key).items():
                col[pos_map[k]] = col[pos_map[k]] + c
            return col

        cols = [d_column(k, up_pos, len(up)) for k in self.keys]
        kernel = linalg.kernel_of_columns(cols, len(up))
        pos = {k: i for i, k in enumerate(self.keys)}
        img_rows = []
        for k in dn:
            row = [_ZERO] * len(self.keys)
            for k2, c in complex_like.d_key(k).items():
                row[pos[k2]] = row[pos[k2]] + c
            img_rows.append(row)
        self.boundary_rows, self.boundary_pivots = linalg.rref(img_rows)
        reduced = [linalg.reduce_against(v, self.boundary_rows, self.boundary_pivots)
                   for v in kernel]
        self.rep_rows, self.rep_pivots = linalg.rref(reduced)
        self.rank = len(self.rep_rows)
        self._pos = pos

    def representatives(self):
        return [list(r) for r in self.rep_rows]

    def element_of(self, vec) -> Element:
        return Element(self.complex,
                       {k: c for k, c in zip(self.keys, vec) if c})

    def coords_of_terms(self, terms):
        vec = [_ZERO] * len(self.keys)
        for k, c in terms.items():
            vec[self._pos[k]] = vec[self._pos[k]] + c
        return vec

    def class_coords(self, terms):
        """Coordinates of a cocycle's class over the representative basis.

        Raises if the vector is not in the span of cocycles (not closed).
        """
        vec = self.coords_of_terms(terms)
        reduced = linalg.reduce_against(vec, self.boundary_rows, self.boundary_pivots)
        # the representative rows are in reduced form, so each coordinate is
        # the entry at its pivot before any of them is subtracted
        coords = [reduced[p] for p in self.rep_pivots]
        if any(linalg.reduce_against(reduced, self.rep_rows, self.rep_pivots)):
            raise ValueError("element is not a cocycle of this degree")
        return coords

    def is_exact(self, terms):
        vec = self.coords_of_terms(terms)
        reduced = linalg.reduce_against(vec, self.boundary_rows, self.boundary_pivots)
        return not any(reduced)


@dataclass
class CohomologyResult:
    algebra: object
    degree: int
    cap: int
    rank: int
    classes: list = field(default_factory=list)


def cohomology(algebra, degree, cap) -> CohomologyResult:
    """Basis of H^degree by exact elimination; degree must not exceed cap."""
    if degree > cap:
        raise ValueError(f"degree {degree} exceeds the truncation cap {cap}")
    if degree < 0:
        return CohomologyResult(algebra, degree, cap, 0, [])
    dc = DegreeCohomology(algebra, degree)
    classes = [CohomologyClass(degree, dc.element_of(v)) for v in dc.representatives()]
    return CohomologyResult(algebra, degree, cap, dc.rank, classes)


class MappingCone(GradedAlgebra):
    """Cone complex of a morphism phi: C^n = source^n + target^(n-1).

    Differential d(a, b) = (da, phi(a) - db).  Keys are tagged pairs
    ('s', key) and ('t', key); only the chain-complex part of the
    GradedAlgebra interface is meaningful (there is no product).
    """

    def __init__(self, phi):
        self.phi = phi
        self.name = f"Cone({phi.source.name})"

    def basis(self, degree):
        if degree < 0:
            return ()
        out = [("s", k) for k in self.phi.source.basis(degree)]
        out.extend(("t", k) for k in self.phi.target.basis(degree - 1))
        return tuple(out)

    def key_degree(self, key):
        side, k = key
        base = self.phi.source if side == "s" else self.phi.target
        return base.key_degree(k) + (0 if side == "s" else 1)

    def d_key(self, key):
        side, k = key
        out = {}
        if side == "s":
            for k2, c in self.phi.source.d_key(k).items():
                out[("s", k2)] = c
            for k2, c in self.phi.apply_terms({k: _ONE}).items():
                out[("t", k2)] = c
        else:
            for k2, c in self.phi.target.d_key(k).items():
                out[("t", k2)] = -c
        return out

    def mul_keys(self, k1, k2):
        raise TypeError("a mapping cone has no product")

    def format_key(self, key):
        side, k = key
        base = self.phi.source if side == "s" else self.phi.target
        return f"({base.format_key(k)}, {side})"

    def pair_of(self, vec_or_terms):
        """Split cone terms into (source element, target element)."""
        terms = vec_or_terms
        s = {}
        t = {}
        for (side, k), c in terms.items():
            (s if side == "s" else t)[k] = c
        return (Element(self.phi.source, s), Element(self.phi.target, t))

    def terms_of_pair(self, a: Element, b: Element):
        out = {}
        for k, c in a.terms.items():
            out[("s", k)] = c
        for k, c in b.terms.items():
            out[("t", k)] = c
        return out


@dataclass
class RelativeCohomologyResult:
    phi: object
    degree: int
    rank: int
    pairs: list          # (source Element, target Element) representatives
    coefficient_dim: int
    total_rank: int


def relative_cohomology(phi, degree, coefficients=1) -> RelativeCohomologyResult:
    """H^degree of the cone of phi, optionally with a coefficient space.

    ``coefficients`` is a dimension (or a sequence, whose length is used);
    the result with coefficients V is Hom(V, H) so the total rank is
    dim V * rank.
    """
    dim = coefficients if isinstance(coefficients, int) else len(coefficients)
    cone = MappingCone(phi)
    dc = DegreeCohomology(cone, degree)
    pairs = []
    for vec in dc.representatives():
        terms = {k: c for k, c in zip(dc.keys, vec) if c}
        pairs.append(cone.pair_of(terms))
    return RelativeCohomologyResult(phi, degree, dc.rank, pairs, dim, dim * dc.rank)


def induced_map_on_cohomology(phi, degree):
    """Matrix of H^degree(phi) over the deterministic class bases.

    Returns (matrix rows over target class coords, source rank, target rank);
    rows are the images of the source representatives.
    """
    src = DegreeCohomology(phi.source, degree)
    tgt = DegreeCohomology(phi.target, degree)
    rows = []
    for vec in src.representatives():
        terms = {k: c for k, c in zip(src.keys, vec) if c}
        rows.append(tgt.class_coords(phi.apply_terms(terms)))
    return rows, src.rank, tgt.rank


def is_quasi_isomorphism(phi, cap) -> bool:
    """True iff H^k(phi) is an isomorphism for every k <= cap."""
    for k in range(0, cap + 1):
        rows, srank, trank = induced_map_on_cohomology(phi, k)
        if srank != trank:
            return False
        if linalg.rank(rows) != srank:
            return False
    return True
