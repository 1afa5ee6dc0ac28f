"""Exact polyhedral geometry: cones, lattices, decompositions.

A linear form is the tuple of its coefficients, evaluated by `linalg.dot`;
its class up to positive scale is `linalg.primitive_int_vector` of it."""

import itertools
from fractions import Fraction
from math import gcd, lcm

from .linalg import (dot, identity, mat_det, mat_rank, nullspace,
                     primitive_ray, smith_normal_form, solve_consistent)


def _basis_coords(basis, x):
    """Coordinates of x in the rows of `basis` (raises off their span)."""
    return solve_consistent(list(zip(*basis)), x)


def _saturation(generators):
    """(basis, V) for the lattice Z^m intersected with the rational span of
    the generators.  The rows of `basis` are the first r rows of V^-1, so a
    point x of the span has coordinates (x V)[:r] in them and (x V)[r:] = 0;
    V is None for a full-rank span, whose basis is the standard one."""
    gens = [primitive_ray(g) for g in generators]  # scaling keeps the span
    m = len(gens[0])
    r = mat_rank(gens)
    if r == m:
        return identity(m), None
    # U M V = S with the nonzero diagonal first: the rows of M V vanish
    # past column r, and the rows of S V^-1 span the row space
    _, V, Vinv = smith_normal_form(gens)
    return Vinv[:r], V


# ---------------------------------------------------------------------------
# cones

class Cone:
    """Polyhedral cone spanned by finitely many integer generators."""

    def __init__(self, generators):
        gens = []
        for g in generators:
            gens.append(primitive_ray(g))
        if not gens:
            raise ValueError("cone needs at least one generator")
        self.ambient_dim = len(gens[0])
        self.generators = tuple(dict.fromkeys(gens))
        self._span = None
        self._facets = None

    # -- span and facet structure -------------------------------------------
    def span_basis(self):
        """Rows: integer basis of the lattice Z^m ∩ span (also a Q-basis)."""
        if self._span is None:
            basis, V = _saturation(self.generators)
            self._span = tuple(map(tuple, basis))
            self._coord_cols = None if V is None else tuple(zip(*V))
        return self._span

    @property
    def dim(self):
        return len(self.span_basis())

    def span_coords(self, x):
        """Coordinates of x in the span basis: the first dim entries of
        x V, the others zero on the span (ValueError off it); x itself for
        a full-dimensional cone.  Integer points get integer coordinates."""
        d = self.dim
        if self._coord_cols is None:
            return tuple(x)
        y = [dot(x, col) for col in self._coord_cols]
        if any(y[d:]):
            raise ValueError("inconsistent linear system")
        return tuple(y[:d])

    def in_span(self, x):
        try:
            self.span_coords(x)
        except ValueError:
            return False
        return True

    def facet_normals(self):
        """Primitive inward facet normals in span coordinates (empty if
        dim <= 1): the extreme rays of the dual cone."""
        if self._facets is None:
            d = self.dim
            self._facets = () if d <= 1 else tuple(
                extreme_rays_from_inequalities(
                    [self.span_coords(g) for g in self.generators], d))
        return self._facets

    def is_pointed(self):
        d = self.dim
        if d == 1:
            g0 = self.generators[0]
            return all(g == g0 for g in self.generators)
        return mat_rank(self.facet_normals()) == d

    def extreme_rays(self):
        """Primitive extreme rays, sorted lexicographically."""
        d = self.dim
        if d == 1:
            return (self.generators[0],)
        normals = self.facet_normals()
        pts = {g: self.span_coords(g) for g in self.generators}
        rays = []
        for g, p in pts.items():
            tight = [n for n in normals if dot(n, p) == 0]
            if tight and mat_rank(tight) == d - 1:
                rays.append(g)
        return tuple(sorted(set(rays)))

    def _signs(self, x):
        """Values at x that are >= 0 on the cone and > 0 on its relative
        interior (None off the span): the one coordinate along the ray when
        dim is 1, the facet normals otherwise."""
        try:
            p = self.span_coords(x)
        except ValueError:
            return None
        if self.dim == 1:
            return [Fraction(p[0]) / self.span_coords(self.generators[0])[0]]
        return [dot(n, p) for n in self.facet_normals()]

    def contains(self, x):
        vals = self._signs(x)
        return vals is not None and all(v >= 0 for v in vals)

    def interior_contains(self, x):
        """Membership in the relative interior."""
        vals = self._signs(x)
        return vals is not None and all(v > 0 for v in vals)

    def __repr__(self):
        return "Cone(%s)" % (list(map(list, self.generators)),)


class SimplicialCone(Cone):
    """Cone on linearly independent ordered generators."""

    def __init__(self, generators):
        gens = [primitive_ray(g) for g in generators]
        if mat_rank(gens) != len(gens):
            raise ValueError("generators of a simplicial cone must be independent")
        self.ambient_dim = len(gens[0])
        self.generators = tuple(gens)
        self._span = None
        self._facets = None

    def _signs(self, x):
        # barycentric test: coordinates in the generator basis
        try:
            return self.generator_coords(x)
        except ValueError:
            return None

    def generator_coords(self, x):
        """Exact coordinates of x in the generator basis (raises off-span)."""
        return _basis_coords(self.generators, x)


# ---------------------------------------------------------------------------
# triangulation and open decomposition

def _pulling(rays):
    """Pulling triangulation: join lex-first ray with facets avoiding it."""
    cone = Cone(rays)
    d = cone.dim
    rays = cone.extreme_rays()
    if len(rays) == d:
        return [SimplicialCone(rays)]
    v0 = rays[0]
    pieces = []
    pts = {g: cone.span_coords(g) for g in rays}
    for n in cone.facet_normals():
        if dot(n, pts[v0]) == 0:
            continue
        frays = [g for g in rays if dot(n, pts[g]) == 0]
        for sub in _pulling(frays):
            pieces.append(SimplicialCone([v0] + list(sub.generators)))
    return pieces


def triangulate(C):
    """Deterministic pulling triangulation into simplicial cones.

    A cone with independent generators is its own triangulation; its
    generators are its extreme rays, so no facet search is needed.
    """
    if len(C.generators) == C.dim:
        return [SimplicialCone(sorted(map(primitive_ray, C.generators)))]
    if not C.is_pointed():
        raise ValueError("cone contains a line; only pointed cones are supported")
    return _pulling(list(C.generators))


def open_simplicial_decomposition(C):
    """Partition of the relative interior of C into open simplicial pieces.

    Returns a list of (SimplicialCone piece, its cached `span_basis()`, the
    basis rows of span(piece) ∩ Z^m); the relatively open pieces are
    pairwise disjoint and cover C's interior.
    """
    tri = triangulate(C)
    seen = {}
    for piece in tri:
        n = len(piece.generators)
        for r in range(1, n + 1):
            for sub in itertools.combinations(range(n), r):
                face = tuple(sorted(piece.generators[i] for i in sub))
                if face not in seen:
                    seen[face] = SimplicialCone(face)
    # keep faces whose relative interior lies in the interior of C
    return [(face, face.span_basis())
            for gens, face in sorted(seen.items())
            if C.interior_contains([sum(col) for col in zip(*gens)])]


def free_superlattice(delta, L):
    """Generators g_i / kappa of the free semigroup in which the super-lattice
    ⊕ Z g_i / kappa of L (basis rows) meets closure(delta); g_i are the
    primitive L-points on the rays of delta and kappa = [L : ⊕ Z g_i].  The
    super-lattice has index kappa^(d-1) over L for a d-dimensional delta.
    """
    prims = []
    for g in delta.generators:
        c = _basis_coords(L, g)
        den = lcm(*(v.denominator for v in c))
        # minimal t > 0 with t*g in L
        t = Fraction(den, gcd(*(int(v * den) for v in c)))
        prims.append([t * Fraction(x) for x in g])
    kappa = abs(mat_det([_basis_coords(L, p) for p in prims]))
    if kappa == 0:
        raise ValueError("degenerate simplicial cone")
    return [[Fraction(x) / kappa for x in p] for p in prims]


# ---------------------------------------------------------------------------
# chamber refinement w.r.t. a family of forms

def extreme_rays_from_inequalities(ineqs, d):
    """Primitive extreme rays of {x : a.x >= 0 for a in ineqs} (assumed
    pointed); integer inequalities keep the search on ints."""
    rays = []
    seen = set()
    for sub in itertools.combinations(ineqs, d - 1):
        ns = nullspace(sub, d)
        if len(ns) != 1:  # the d - 1 rows have rank below d - 1
            continue
        ray = primitive_ray(ns[0])
        for r in (ray, tuple(-x for x in ray)):
            vals = [dot(a, r) for a in ineqs]
            if all(v >= 0 for v in vals):
                tight = [a for a, v in zip(ineqs, vals) if v == 0]
                if r not in seen and mat_rank(tight) == d - 1:
                    seen.add(r)
                    rays.append(r)
                break
    return rays


def _chambers(C, classes):
    """Full-dimensional chambers of C cut by the hyperplanes {cls = 0}.

    Only classes that change sign on the generators can cut C: on the
    opposite side of a one-signed class lies at most a face of C.
    """
    d = C.dim
    if d != C.ambient_dim:
        raise ValueError("refine_definite expects a full-dimensional cone")
    classes = [cls for cls in sorted(set(classes))
               if any(dot(cls, g) > 0 for g in C.generators)
               and any(dot(cls, g) < 0 for g in C.generators)]
    if d == 1 or not classes:
        return [Cone(C.generators)]
    base = list(C.facet_normals())
    chambers = []
    seen = set()
    for signs in itertools.product((1, -1), repeat=len(classes)):
        ineqs = base + [tuple(s * x for x in cls)
                        for s, cls in zip(signs, classes)]
        rays = extreme_rays_from_inequalities(ineqs, d)
        if len(rays) < d or mat_rank(rays) < d:
            continue
        key = tuple(sorted(rays))
        if key in seen:
            continue
        seen.add(key)
        chambers.append(Cone(rays))
    return chambers


def _admissible_interior_ray(delta, forms):
    """Deterministic interior ray where no form class vanishes."""
    gens = delta.generators
    base = [sum(col) for col in zip(*gens)]

    def ok(w):
        return all(dot(f, w) != 0 for f in forms)

    if ok(base):
        return primitive_ray(base)
    k = 1
    while k < 10000:
        for g in gens:
            # the ray of base + g / k, scaled by k to stay integral
            w = [k * b + gj for b, gj in zip(base, g)]
            if ok(w) and delta.interior_contains(w):
                return primitive_ray(w)
        k += 1
    raise RuntimeError("no admissible interior ray found")


def refine_definite(C, S):
    """Decompose C into simplicial cones with a facet fit for derivation.

    S is a list of form classes (primitive integer tuples); returns a list
    of pairs (SimplicialCone delta, facet index) such that every form of S is
    definite (single sign) on delta and no form vanishes identically on the
    facet obtained by dropping the generator at `facet index`.
    """
    if not all(any(f) for f in S):
        raise ValueError("zero form cannot be made definite")
    out = []
    stack = []
    for ch in _chambers(C, S):
        stack.extend(triangulate(ch))
    while stack:
        delta = stack.pop(0)
        # definiteness sanity (holds by construction on chambers)
        for f in S:
            vals = [dot(f, g) for g in delta.generators]
            if any(v > 0 for v in vals) and any(v < 0 for v in vals):
                raise AssertionError("form not definite on refined piece")
        drop = None
        for i in range(len(delta.generators)):
            rest = [g for j, g in enumerate(delta.generators) if j != i]
            if all(any(dot(f, g) != 0 for g in rest) for f in S):
                drop = i
                break
        if drop is None:
            w = _admissible_interior_ray(delta, S)
            for i in range(len(delta.generators)):
                rest = [g for j, g in enumerate(delta.generators) if j != i]
                stack.append(SimplicialCone([w] + rest))
            continue
        out.append((delta, drop))
    return out
