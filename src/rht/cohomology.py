"""Exact cohomology of graded differential algebras and of morphisms.

Everything here is degreewise linear algebra over the rationals on the basis
of an algebra (free, truncated, ring presentation, cell attachment) or of a
mapping cone's chain complex.  The helpers are ``coords`` (a term dict as a
sparse row over basis positions), ``d_columns`` (d from one degree to the
next, as sparse columns over the next basis), ``cycles_mod_boundaries``
(kernel modulo image, in reduced form) and ``primitive`` (solve dx = y).
Positions are used only where the column order picks the answer: the
boundary and representative rows of ``DegreeCohomology`` and of
``bigraded_model``, and ``class_coords``.  Where only a kernel or a solution is read, ``d_key``
term dicts go to ``linalg`` as they are, keyed by monomial, and no basis is
enumerated to number them.  Representatives are pinned by deterministic
pivoting, so repeated runs and golden reports agree byte for byte.

``DegreeCohomology`` is the one H^k result, for an algebra and for the
mapping cone of a morphism alike.  Class coordinates are sparse rows over
the representative indices, like every other row in the package, and a
class is handed out as its representative: a closed ``Element``.
``cohomology`` checks a truncation cap before it computes, and rejects
queries above it: a free CDGA has no top degree, so silence above the cap
would be a lie rather than a zero.  The cap is not recorded on the result.

``is_quasi_isomorphism``, the audit of every model, builds no H^k: it reads
only ranks of d on the mapping cone, which is acyclic in degrees 0..cap+1
exactly when the morphism is an isomorphism on H^k for k <= cap and
injective on H^(cap+1).
"""

from __future__ import annotations

from . import linalg
from .cdga import Element
from .linalg import _ONE


# -- degreewise linear algebra ---------------------------------------------------

def coords(terms, pos):
    """Sparse row of ``terms`` over the key->position map ``pos``."""
    return {pos[k]: c for k, c in terms.items()}


def d_columns(alg, keys, up):
    """Columns of d on ``keys``, each a sparse column over the keys ``up``."""
    pos = {k: i for i, k in enumerate(up)}
    return [coords(alg.d_key(k), pos) for k in keys]


def cycles_mod_boundaries(cols, boundary_rows):
    """Cycles of the map with sparse columns ``cols`` (any row ids), reduced
    modulo the boundaries spanned by ``boundary_rows``, sparse rows over the
    column indices.

    Returns (boundary rows, boundary pivots, representative rows,
    representative pivots), both row sets in reduced row echelon form; the
    representatives are the kernel vectors reduced against the boundaries.
    """
    kernel = linalg.kernel_of_columns(cols)
    brows, bpiv = linalg.rref(boundary_rows)
    reduced = [linalg.reduce_against(v, brows, bpiv) for v in kernel]
    reps, rpiv = linalg.rref(reduced)
    return brows, bpiv, reps, rpiv


def primitive(alg, terms, degree, keys=None):
    """Deterministic x with dx = ``terms`` (of ``degree``), as terms, or None.

    x is sought over ``keys`` (by default the whole basis one degree down)
    with the free variables of the solve set to zero; zero has primitive 0.
    """
    if keys is None:
        keys = alg.basis(degree - 1)
    sol = linalg.solve_columns([alg.d_key(k) for k in keys], terms)
    if sol is None:
        return None
    return {keys[j]: c for j, c in sol.items()}


class DegreeCohomology:
    """H^degree of a complex: kernel and image data, representatives, and
    class coordinates as sparse rows."""

    def __init__(self, complex_like, degree):
        self.complex = complex_like
        self.degree = degree
        self.keys = list(complex_like.basis(degree))
        self.pos = {k: i for i, k in enumerate(self.keys)}
        (self.boundary_rows, self.boundary_pivots,
         self.rep_rows, self.rep_pivots) = cycles_mod_boundaries(
            [complex_like.d_key(k) for k in self.keys],
            d_columns(complex_like, complex_like.basis(degree - 1), self.keys))
        self.rank = len(self.rep_rows)

    def representatives(self):
        """Term dicts of the representative rows, keys in basis order."""
        keys = self.keys
        return [{keys[i]: row[i] for i in sorted(row)} for row in self.rep_rows]

    @property
    def classes(self):
        """The representatives as closed elements (of an algebra, not a cone)."""
        return [Element(self.complex, terms) for terms in self.representatives()]

    def class_coords(self, terms):
        """Coordinates of a cocycle's class, as a sparse row ``{representative
        index: coefficient}``, ints when whole; an exact cocycle gives ``{}``.

        Raises if the terms are not in the span of cocycles (not closed).
        """
        vec = coords(terms, self.pos)
        reduced = linalg.reduce_against(vec, self.boundary_rows, self.boundary_pivots)
        # the representative rows are in reduced form, so each coordinate is
        # the entry at its pivot before any of them is subtracted
        out = {i: reduced[p] for i, p in enumerate(self.rep_pivots)
               if p in reduced}
        if linalg.reduce_against(reduced, self.rep_rows, self.rep_pivots):
            raise ValueError("element is not a cocycle of this degree")
        return out

    def is_exact(self, terms):
        vec = coords(terms, self.pos)
        return not linalg.reduce_against(vec, self.boundary_rows,
                                         self.boundary_pivots)


def cohomology(algebra, degree, cap) -> DegreeCohomology:
    """H^degree by exact elimination; degree must not exceed cap."""
    if degree > cap:
        raise ValueError(f"degree {degree} exceeds the truncation cap {cap}")
    return DegreeCohomology(algebra, degree)


class MappingCone:
    """Cone complex of a morphism phi: C^n = source^n + target^(n-1).

    Differential d(a, b) = (da, phi(a) - db).  Keys are tagged pairs
    ('s', key) and ('t', key).  A cone is a chain complex, not an algebra:
    ``DegreeCohomology`` and ``primitive`` read its ``basis`` and ``d_key``.
    """

    def __init__(self, phi):
        self.phi = phi

    def basis(self, degree):
        if degree < 0:
            return ()
        out = [("s", k) for k in self.phi.source.basis(degree)]
        out.extend(("t", k) for k in self.phi.target.basis(degree - 1))
        return tuple(out)

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

    def pair_of(self, terms):
        """Split cone terms into (source element, target element)."""
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


def is_quasi_isomorphism(phi, cap) -> bool:
    """True iff H^k(phi) is an isomorphism for every k <= cap and injective
    for k = cap + 1, that is, iff the mapping cone of phi is acyclic in
    degrees 0..cap+1.

    Ranks alone decide it, by forward elimination one degree at a time.  The
    echelon rows of the image of d in C^j, with the unit vectors off their
    pivots, are a basis of C^j, and d kills the echelon rows (d d = 0 on the
    cone).  So only d of the keys off those pivots is eliminated: H^j is zero
    exactly when these images are independent, and their pivots are those of
    the image of d in C^(j+1).  Keys reach ``linalg`` as first-seen integer
    ids, since a cone's keys need not be mutually orderable: a cell
    attachment mixes tuple keys with the name of its cell.
    """
    cone = MappingCone(phi)
    pivots = set()
    for j in range(0, cap + 2):
        free = [key for key in cone.basis(j) if key not in pivots]
        ids = {}
        rows = [{ids.setdefault(k, len(ids)): c
                 for k, c in cone.d_key(key).items()} for key in free]
        found = linalg.echelon(rows)
        if len(found) != len(free):
            return False
        up = list(ids)
        pivots = {up[i] for i in found}
    return True
