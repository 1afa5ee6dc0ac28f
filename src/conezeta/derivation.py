"""Derived sequences of linear forms on flagged simplicial cones.

Forms on a simplicial cone with ordered generators (w_1..w_d) are represented
by their value vectors (alpha(w_1), ..., alpha(w_d)); a class up to positive
scale is the primitive integer value vector with positive first nonzero entry.
The flag is the chain of faces on generator suffixes: level i is the cone on
generators i+1..d.
"""

import itertools
from fractions import Fraction
from math import lcm

from .geometry import Cone, refine_definite
from .linalg import dot, mat_rank, primitive_int_vector, solve_consistent


class DerivedSequence:
    """Flagged simplicial cone with compatible form sets at every level."""

    __slots__ = ("generators", "levels")

    def __init__(self, generators, levels):
        self.generators = tuple(map(tuple, generators))  # in flag order
        n = len(self.generators)
        if len(levels) != n:
            raise ValueError("expected %d levels" % n)
        lv = []
        for i, level in enumerate(levels):
            classes = sorted({primitive_int_vector(v) for v in level})
            for v in classes:
                if len(v) != n - i:
                    raise ValueError("level %d form has wrong arity" % i)
            lv.append(tuple(classes))
        self.levels = tuple(lv)

    @property
    def n(self):
        return len(self.generators)

    def validate(self):
        """Check the derived-sequence axioms; returns a list of violations."""
        errors = []
        n = self.n
        if mat_rank(self.generators) != n:
            errors.append("generators are linearly dependent")
        for i, level in enumerate(self.levels):
            for v in level:
                if all(x == 0 for x in v):
                    errors.append("level %d contains the zero form" % i)
                    continue
                neg = any(x < 0 for x in v)
                pos = any(x > 0 for x in v)
                if neg and pos:
                    errors.append("level %d form %s not definite" % (i, v))
                if i < n - 1 and all(x == 0 for x in v[1:]):
                    errors.append(
                        "level %d form %s degenerate w.r.t. next face" % (i, v))
            if i < n - 1:
                for d in derived_level(level):
                    if d not in self.levels[i + 1]:
                        errors.append(
                            "derived form %s of level %d missing at level %d"
                            % (d, i, i + 1))
        return errors

    def sign_pattern_ok(self):
        """Canonical sign pattern: middle coefficients >= 0, last > 0."""
        for level in self.levels:
            for v in level:
                if any(x < 0 for x in v) or v[-1] <= 0:
                    return False
        return True

    def __repr__(self):
        return "DerivedSequence(gens=%s, levels=%s)" % (
            list(self.generators), [list(l) for l in self.levels])


def derived_level(level):
    """Derived classes of a level in value-vector representation.

    The facet is the span of all generators but the first; the dual vector is
    the first generator, so alpha(v) is the leading value.
    """
    out = set()
    for v in level:
        rest = v[1:]
        if any(x != 0 for x in rest):
            out.add(primitive_int_vector(rest))
    nz = [v for v in level if v[0] != 0]
    for a1, a2 in itertools.combinations(nz, 2):
        cross = [a1[0] * x2 - a2[0] * x1 for x1, x2 in zip(a1[1:], a2[1:])]
        if any(x != 0 for x in cross):
            out.add(primitive_int_vector(cross))
    return out


def _to_ambient(coords, basis):
    return tuple(dot(coords, col) for col in zip(*basis))


def _derive_branches(gens, forms):
    """Recursive construction; forms are coefficient tuples (covectors) in
    the current space.

    Returns a list of (ordered ambient generators, levels) with levels given
    as value vectors on those generators.
    """
    cone = Cone(gens)
    d = cone.dim
    for f in forms:
        if all(dot(f, g) == 0 for g in gens):
            raise ValueError("a form vanishes identically on the cone")
    if d == 1:
        g = cone.generators[0]
        level = [(dot(f, g),) for f in forms]
        return [([g], [level])]
    basis = cone.span_basis()
    gens_c = [cone.span_coords(g) for g in cone.generators]
    forms_c = [tuple(dot(f, b) for b in basis) for f in forms]
    branches = []
    classes = [primitive_int_vector(f) for f in forms_c]
    for delta, drop in refine_definite(Cone(gens_c), classes):
        v = delta.generators[drop]
        rest = [g for i, g in enumerate(delta.generators) if i != drop]
        # derived covectors on the facet spanned by `rest`
        derived = {}
        for f in forms_c:
            vals = tuple(dot(f, g) for g in rest)
            if any(x != 0 for x in vals):
                derived.setdefault(primitive_int_vector(vals), f)
        nz = [f for f in forms_c if dot(f, v) != 0]
        for f1, f2 in itertools.combinations(nz, 2):
            a1, a2 = dot(f1, v), dot(f2, v)
            cross = tuple(a1 * y - a2 * x for x, y in zip(f1, f2))
            vals = tuple(dot(cross, g) for g in rest)
            if any(x != 0 for x in vals):
                derived.setdefault(primitive_int_vector(vals), cross)
        for sub_gens, sub_levels in _derive_branches(rest, list(derived.values())):
            ordered = [tuple(v)] + [tuple(g) for g in sub_gens]
            level0 = [tuple(dot(f, g) for g in ordered) for f in forms_c]
            levels = [level0] + sub_levels
            ambient_gens = [_to_ambient(g, basis) for g in ordered]
            branches.append((ambient_gens, levels))
    return branches


def build_derived_sequences(C, S):
    """Decompose C and equip each piece with a valid derived sequence.

    C is a cone (full-dimensional in its span); S a list of forms
    (coefficient sequences), none vanishing identically on C.  The union of
    the returned cones is C and their interiors are pairwise disjoint.
    """
    out = []
    # the branch generators are primitive rays already
    for gens, levels in _derive_branches(list(C.generators), S):
        ds = DerivedSequence(gens, levels)
        errs = ds.validate()
        if errs:
            raise AssertionError("invalid derived sequence: %s" % errs)
        out.append(ds)
    return out


def primitive_rescale(D):
    """Scalars e_1..e_n making all variable-part representatives integral.

    Rescaling replaces generator w_j by e_j * w_j; in the rescaled standard
    coordinates every class with nonzero leading entry has a representative
    with leading coefficient 1 and natural coefficients.
    """
    n = D.n
    e = [1] * n
    # global coordinate index of a level-i vector entry t is i + t
    for j in range(1, n):
        need = 1
        for i, level in enumerate(D.levels):
            for v in level:
                p = next((t for t, x in enumerate(v) if x != 0), None)
                if p is None:
                    continue
                gp = i + p  # leading global coordinate
                if gp < j and 0 <= j - i < len(v) and v[j - i] != 0:
                    r = Fraction(v[j - i], v[p] * e[gp])
                    need = lcm(need, r.denominator)
        e[j] = need
    new_gens = [tuple(ej * x for x in g)
                for ej, g in zip(e, D.generators)]
    new_levels = []
    for i, level in enumerate(D.levels):
        new_levels.append([tuple(x * e[i + t] for t, x in enumerate(v))
                           for v in level])
    return e, DerivedSequence(new_gens, new_levels)

