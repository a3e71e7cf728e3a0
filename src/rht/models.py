"""Minimal models: stagewise construction, depth filtration, cell attachments.

A ``MinimalModel`` is what ``minimal_model`` and ``bigraded_model`` return,
and its ``depths()`` is the one depth table.  The other entry points take
the free algebra itself; ``require_minimal`` is the one check that its
differentials are decomposable.

One stagewise loop builds both models: for each degree k from 2 up to the
cap, it adjoins in one extension the generators of a per-degree rule, which
for ``minimal_model`` kill H^(k+1) of the mapping cone of the stage map.
The stage map grows with the model, and each step checks only its new
generators: their differentials, and the chain-map condition on them.  Each
differential is decomposable, as it lies in the subalgebra generated below
degree k+1; minimality holds by construction and is re-checked.

The bigraded variant (for zero-differential ring targets) assigns stage tags
so that each generator's differential is pure: every monomial of d(v) has
stage sum exactly stage(v) - 1.  That purity is what makes the grading
endomorphism w -> t^(stage + degree) w an exact chain map.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import linalg
from .cdga import (UNIT, DgaMorphism, Element, FreeCdga, Generator, OverFreeCdga,
                   exact)
from .cohomology import (DegreeCohomology, MappingCone, cycles_mod_boundaries,
                         d_columns, is_quasi_isomorphism)
from .linalg import _ONE


# ---------------------------------------------------------------------------
# model containers


def require_minimal(algebra: FreeCdga):
    """Raise ValueError unless every differential is decomposable: a
    minimal model has no linear term in any d(v)."""
    for g in algebra.gens:
        for mon in algebra.differential_of(g.name).terms:
            if sum(e for _i, e in mon) < 2:
                raise ValueError(
                    f"model is not minimal: d({g.name}) has the linear "
                    f"term {algebra.format_key(mon)}")


@dataclass
class MinimalModel:
    """A free CDGA with decomposable differentials and its quasi-isomorphism
    to the target, verified through ``cap``: the mapping cone of
    ``quasi_iso`` is acyclic in degrees 0..cap+1, so H^k(quasi_iso) is an
    isomorphism for k <= cap and injective for k = cap + 1.

    Built by ``minimal_model`` and ``bigraded_model``.  ``depths()`` is the
    depth filtration: the depth of each generator, from which U_i is the
    span of the monomials of depth at most i.
    """

    algebra: FreeCdga
    cap: int
    quasi_iso: DgaMorphism
    target: object
    bigraded: bool = False
    _depths: dict = field(default=None, init=False, repr=False)

    def __post_init__(self):
        require_minimal(self.algebra)

    @property
    def trivial_warning(self):
        """True when the model has no generators (the target is trivial
        through the cap)."""
        return not self.algebra.gens

    def depths(self):
        """{generator name: depth}."""
        if self._depths is None:
            self._depths = compute_generator_depths(self.algebra)
        return self._depths

    def v_dim(self, degree):
        return sum(1 for g in self.algebra.gens if g.degree == degree)


@dataclass(frozen=True)
class DistortionReport:
    """Predicted distortion exponent for the class dual to one generator."""

    generator: str
    degree: int
    depth: int
    exponent: int
    sharpness: str = "sharp-if-scalable"

    def __post_init__(self):
        if self.exponent != self.degree + self.depth:
            raise ValueError("exponent must equal degree + depth")


def compute_generator_depths(algebra: FreeCdga) -> dict:
    """Least-fixed-point depth per generator.

    Depth 0 for closed generators; otherwise 1 + the maximum over monomials
    of d(v) of the sum of factor depths.  Sweeps until stable; a generator
    whose differential mentions unresolved generators stalls the sweep and is
    reported.
    """
    depths = {}
    pending = [g for g in algebra.gens]
    while pending:
        progressed = False
        still = []
        for g in pending:
            dv = algebra.differential_of(g.name)
            if dv.is_zero():
                depths[g.name] = 0
                progressed = True
                continue
            try:
                worst = max(sum(e * depths[algebra.gens[i].name] for i, e in mon)
                            for mon in dv.terms)
            except KeyError:
                still.append(g)
                continue
            depths[g.name] = worst + 1
            progressed = True
        if not progressed:
            names = ", ".join(g.name for g in still)
            raise ValueError(f"depth filtration does not stabilize on: {names}")
        pending = still
    return depths


def distortion_exponent(algebra: FreeCdga, generator: str) -> DistortionReport:
    """Exponent degree + depth of a generator of a minimal model's algebra.

    The growth-rate claim is an upper bound in general and sharp exactly
    when the target space is scalable, so the sharpness flag is always
    ``sharp-if-scalable``.  An algebra with a linear differential is
    rejected.
    """
    require_minimal(algebra)
    if generator not in algebra.index:
        raise ValueError(f"unknown generator {generator!r}")
    n = algebra.degree_of(generator)
    k = compute_generator_depths(algebra)[generator]
    return DistortionReport(generator, n, k, n + k)


# ---------------------------------------------------------------------------
# stagewise construction


def _stagewise(target, cap, what, adjoin, check=None, bigraded=False):
    """Model of ``target`` through ``cap`` from the empty stage map.

    ``check(target, cap)`` runs after the cap check.  For each degree k,
    ``adjoin(rho, k)`` gives the degree-k generators as (generator, d terms,
    image) triples, adjoined by one ``FreeCdga.extend`` and one
    ``DgaMorphism.extend``: each checks only the generators it appends, and
    the extension keeps each cached basis that the new generators only
    append to (with no degree-1 generator, every one up to degree k + 1).
    """
    if cap < 2:
        raise ValueError("cap must be at least 2")
    if check is not None:
        check(target, cap)
    if DegreeCohomology(target, 0).rank != 1:
        raise ValueError(f"{what} must be connected (H^0 of rank 1)")
    if DegreeCohomology(target, 1).rank != 0:
        raise ValueError(f"{what} must be simply connected (H^1 = 0)")
    model = FreeCdga([], None, name=f"M({getattr(target, 'name', '?')})")
    rho = DgaMorphism(model, target, {})
    for k in range(2, cap + 1):
        new = adjoin(rho, k)
        if new:
            model = model.extend([g for g, _d, _w in new],
                                 {g.name: d for g, d, _w in new})
            rho = rho.extend(model, {g.name: w for g, _d, w in new})
    out = MinimalModel(model, cap, rho, target, bigraded)
    if not is_quasi_isomorphism(rho, cap):
        label = "bigraded" if bigraded else "stagewise"
        raise AssertionError(f"{label} construction failed its own "
                             "quasi-isomorphism audit")
    return out


def _cone_generators(rho, k):
    """One generator v per class (z, w) of H^(k+1) of the mapping cone of
    ``rho``, with dv = z and rho(v) = w."""
    cone = MappingCone(rho)
    pairs = map(cone.pair_of, DegreeCohomology(cone, k + 1).representatives())
    return [(Generator(f"v{k}_{i}", k), z.terms, w)
            for i, (z, w) in enumerate(pairs)]


def minimal_model(target, cap) -> MinimalModel:
    """Sullivan model of any finite-type graded differential algebra.

    ``target`` may be a free CDGA, a truncated CDGA, or a ring presentation
    viewed with zero differential.  Generators are named v<degree>_<index>.
    """
    return _stagewise(target, cap, "minimal_model target", _cone_generators)


def _require_formal_ring(ring, cap):
    for k in range(0, cap + 2):
        if any(ring.d_key(key) for key in ring.basis(k)):
            raise ValueError("bigraded_model needs a zero-differential ring")
        if k == 1 and ring.basis(1):
            raise ValueError("ring is not simply connected (nonzero degree 1)")


def _bigraded_generators(rho, k):
    """Cokernel step: closed stage-0 generators hit the classes of H^k that
    rho misses.  Kernel step: per stage s of M^(k+1), stage-(s+1) generators
    kill the cone cycles on source keys (closed, mapping to zero) modulo d of
    the stage-(s+1) part of M^k.  With no degree-1 generator, a degree-k
    generator lies in no monomial of M^(k+1), so both steps read one rho.

    rho kills every monomial of positive stage, and the stage-0 monomials
    are closed, so the image of H^k(rho) is spanned by the classes of rho of
    the stage-0 monomials of degree k: no elimination on M^k finds it.
    """
    model, ring = rho.source, rho.target
    stages = [g.stage for g in model.gens]
    comp, down_by_stage = {}, {}
    for groups, degree in ((comp, k + 1), (down_by_stage, k)):
        for mon in model.basis(degree):
            groups.setdefault(sum(e * stages[i] for i, e in mon), []).append(mon)
    tgt = DegreeCohomology(ring, k)
    hit = linalg.echelon([tgt.class_coords(rho.apply_terms({mon: _ONE}))
                          for mon in down_by_stage.get(0, ())])
    missed = [t for j, t in enumerate(tgt.representatives()) if j not in hit]
    out = [(Generator(f"v{k}_0_{i}", k, 0), {}, Element(ring, terms))
           for i, terms in enumerate(missed)]
    cone = MappingCone(rho)
    for s, keys in sorted(comp.items()):
        down = down_by_stage.get(s + 1, ())
        key_set = set(keys)
        if any(not model.d_key(mon).keys() <= key_set for mon in down):
            raise AssertionError("stage purity broken in boundaries")
        _b, _p, rep_rows, _r = cycles_mod_boundaries(
            [cone.d_key(("s", m)) for m in keys],
            d_columns(model, down, keys))
        for idx, row in enumerate(rep_rows):
            out.append((Generator(f"v{k}_{s + 1}_{idx}", k, s + 1),
                        {keys[i]: row[i] for i in sorted(row)},
                        ring.element({})))
    return out


def bigraded_model(ring, cap) -> MinimalModel:
    """Model of a formal cohomology ring, with stage tags on all generators.

    Stage-0 generators are closed and hit the ring; a stage-(s+1) generator's
    differential is a pure stage-s polynomial in earlier generators and its
    image is zero.  Generators are named v<degree>_<stage>_<index>.
    """
    out = _stagewise(ring, cap, "bigraded_model ring", _bigraded_generators,
                     check=_require_formal_ring, bigraded=True)
    depths = out.depths()
    for g in out.algebra.gens:
        if depths[g.name] != g.stage:
            raise AssertionError(
                f"stage tag of {g.name} ({g.stage}) disagrees with its "
                f"depth ({depths[g.name]})")
    return out


# ---------------------------------------------------------------------------
# cell attachments


class CellAttachmentModel(OverFreeCdga):
    """Model of a complex with one extra cell attached.

    The underlying algebra is the base algebra plus a single class y in the
    cell degree with y*y = 0 and y*x = 0 for positive-degree x; the modified
    differential adds <v, attaching class> * y to d(v) on generators of
    degree one below the cell.  The cell is reached by name, as
    ``self[cell_name]``, but ``gens`` lists only the base's generators.
    """

    cell_name = "y"

    def __init__(self, base, pairing, cell_degree):
        self.base = base
        self.cell_degree = cell_degree
        self.pairing = {k: exact(v) for k, v in pairing.items()}
        self.name = f"{base.name}+cell{cell_degree}"
        if self.cell_name in base.index:
            raise ValueError(
                f"cell name {self.cell_name!r} collides with a generator")
        for gname in self.pairing:
            if base.degree_of(gname) != cell_degree - 1:
                raise ValueError(
                    f"attaching pairing must live on degree {cell_degree - 1} "
                    f"generators; {gname!r} has degree {base.degree_of(gname)}")
        for g in base.gens:
            dd = self.d_terms(self.d_terms({base.gen_key(g.name): _ONE}))
            if dd:
                raise ValueError(
                    f"inconsistent attaching pairing: d'(d'({g.name})) = "
                    f"{self.format_terms(dd)} != 0")

    def basis(self, degree):
        out = tuple(self.base.basis(degree))
        if degree == self.cell_degree:
            out = out + (self.cell_name,)
        return out

    def gen_key(self, name):
        if name == self.cell_name:
            return name
        return self.base.gen_key(name)

    def key_degree(self, key):
        if isinstance(key, str):
            return self.cell_degree
        return self.base.key_degree(key)

    def mul_keys(self, k1, k2):
        s1, s2 = isinstance(k1, str), isinstance(k2, str)
        if s1 and s2:
            return {}
        if s1 or s2:
            other = k2 if s1 else k1
            if other == UNIT:
                return {self.cell_name: _ONE}
            return {}
        return self.base.mul_keys(k1, k2)

    def d_key(self, key):
        if isinstance(key, str):
            return {}
        out = dict(self.base.d_key(key))
        if len(key) == 1 and key[0][1] == 1:
            gname = self.base.gens[key[0][0]].name
            c = self.pairing.get(gname)
            if c:  # base keys are tuples, never the cell's name
                out[self.cell_name] = c
        return out

    def format_key(self, key):
        if isinstance(key, str):
            return key
        return self.base.format_key(key)

    def key_sort_token(self, key):
        if isinstance(key, str):
            return (1, key)
        return (0, key)


def attach_cell_model(base: FreeCdga, pairing) -> CellAttachmentModel:
    """Non-minimal model of a cell attachment to a free CDGA along a
    prescribed pairing.

    ``pairing`` maps generator names (all of the single attaching degree) to
    the rational pairing of that generator with the attaching class; the cell
    sits one degree higher.  A pairing that breaks d'd' = 0 is rejected with
    the offending generator named.
    """
    degrees = {base.degree_of(g) for g in pairing}
    if len(degrees) != 1:
        raise ValueError("pairing must be supported on a single degree")
    return CellAttachmentModel(base, pairing, degrees.pop() + 1)


# ---------------------------------------------------------------------------
# formality probe


def u0_surjectivity(algebra, cap) -> dict:
    """Per degree k <= cap: do products of depth-0 generators span H^k?

    A necessary condition for formality, not a formality decision.  Takes a
    free CDGA or a cell attachment built on one; the depths are read from
    the free algebra that holds the generators.
    """
    base_alg = algebra.base if isinstance(algebra, CellAttachmentModel) else algebra
    u0 = {base_alg.index[name]
          for name, d in compute_generator_depths(base_alg).items() if d == 0}
    out = {}
    for k in range(0, cap + 1):
        dc = DegreeCohomology(algebra, k)
        if dc.rank == 0:
            out[k] = True
            continue
        rows = []
        for mon in base_alg.basis(k):
            if all(i in u0 for i, _e in mon):
                rows.append(dc.class_coords({mon: _ONE}))
        out[k] = linalg.rank(rows) == dc.rank
    return out
