import itertools
import random
from fractions import Fraction

import pytest

from conezeta import geometry
from conezeta.geometry import (Cone, SimplicialCone, triangulate,
                               open_simplicial_decomposition,
                               free_superlattice,
                               refine_definite, _pulling,
                               extreme_rays_from_inequalities)
from conezeta.linalg import (dot, identity, mat_det, mat_rank,
                             primitive_int_vector, solve_consistent)


class TestCone:
    def test_membership(self):
        C = Cone([(1, 0), (1, 2)])
        assert C.contains((1, 1))
        assert C.interior_contains((1, 1))
        assert C.contains((1, 0)) and not C.interior_contains((1, 0))
        assert not C.contains((0, 1))

    def test_not_pointed_rejected(self):
        C = Cone([(1, 0), (-1, 0), (0, 1)])
        with pytest.raises(ValueError):
            triangulate(C)


class TestIntegerSpan:
    """Integer generators give integer lattice bases and coordinates, and
    the one division (along a ray) is exact."""

    def test_lattice_basis_and_coordinates_are_ints(self):
        gens = [(1, 0, 2), (0, 1, 1), (1, 1, 3)]
        C = Cone(gens)
        basis = C.span_basis()
        assert len(basis) == 2
        assert all(type(x) is int for row in basis for x in row)
        for g in gens + [(2, 3, 7)]:
            coords = C.span_coords(g)
            assert all(type(c) is int for c in coords)
            assert tuple(dot(coords, col) for col in zip(*basis)) == g
        with pytest.raises(ValueError):
            C.span_coords((0, 0, 1))

    def test_signs_on_a_ray_are_exact(self):
        C = Cone([(2, 4)])  # the ray through (1, 2)
        for x, value in (((3, 6), 3), ((0, 0), 0), ((-1, -2), -1),
                         ((Fraction(1, 3), Fraction(2, 3)), Fraction(1, 3))):
            vals = C._signs(x)
            assert vals == [value] and type(vals[0]) is Fraction
        assert C._signs((1, 1)) is None
        assert C.contains((3, 6)) and C.interior_contains((3, 6))
        assert C.contains((0, 0)) and not C.interior_contains((0, 0))
        assert not C.contains((-1, -2)) and not C.contains((1, 1))


class TestTriangulate:
    def test_square_cone_two_pieces(self):
        C = Cone([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)])
        tri = triangulate(C)
        assert len(tri) == 2
        # interiors disjoint, union covers: sample points
        rnd = random.Random(0)
        for _ in range(200):
            x = (rnd.randint(-4, 4), rnd.randint(-4, 4), rnd.randint(1, 6))
            inside = C.contains(x)
            hits = sum(1 for t in tri if t.contains(x))
            if inside:
                assert hits >= 1
            else:
                assert hits == 0
            int_hits = sum(1 for t in tri if t.interior_contains(x))
            assert int_hits <= 1


class TestOpenDecomposition:
    def test_quadrant(self):
        C = Cone([(1, 0), (0, 1)])
        pieces = open_simplicial_decomposition(C)
        # only the full open piece has its relative interior inside C's
        # interior
        assert len(pieces) == 1

    def test_union_and_disjointness(self):
        C = Cone([(1, 0), (1, 3)])
        pieces = open_simplicial_decomposition(C)
        rnd = random.Random(1)
        for _ in range(300):
            x = (rnd.randint(-5, 8), rnd.randint(-5, 8))
            hits = 0
            for face, L in pieces:
                gens = face.generators
                # open piece membership: positive combination of generators
                coords = face.generator_coords(x) if face.in_span(x) else None
                if coords is not None and all(c > 0 for c in coords):
                    hits += 1
            assert hits == (1 if C.interior_contains(x) else 0)


def _in_span_lattice(gens, x):
    """Whether x has integer coordinates in the rows `gens`."""
    c = solve_consistent([list(col) for col in zip(*gens)], list(x))
    return all(Fraction(v).denominator == 1 for v in c)


class TestFreeSuperlattice:
    def test_non_unimodular_example(self):
        C = SimplicialCone([(1, 0), (1, 2)])
        gens = free_superlattice(C, identity(2))
        # kappa = 2: the super-lattice has covolume 1/2
        assert abs(mat_det(gens)) == Fraction(1, 2)
        assert sorted(tuple(map(Fraction, g)) for g in gens) == [
            (Fraction(1, 2), Fraction(0)), (Fraction(1, 2), Fraction(1))]
        # Z^2 is contained in the superlattice
        for x in itertools.product(range(-2, 3), repeat=2):
            assert _in_span_lattice(gens, x)

    def test_unimodular_is_identity(self):
        C = SimplicialCone([(1, 0), (0, 1)])
        gens = free_superlattice(C, identity(2))
        assert abs(mat_det(gens)) == 1
        assert sorted(tuple(map(int, g)) for g in gens) == [(0, 1), (1, 0)]

    def test_index_over_the_lattice_is_kappa_to_the_d_minus_1(self):
        # a 3-D simplex with kappa = 2: the super-lattice Z g_i / 2 has
        # covolume 2 / 2^3 = 1/4, index 4 over Z^3
        C = SimplicialCone([(1, 0, 1), (0, 1, 1), (-1, 0, 1)])
        gens = free_superlattice(C, identity(3))
        assert abs(mat_det(gens)) == Fraction(1, 4)
        for x in itertools.product(range(-1, 2), repeat=3):
            assert _in_span_lattice(gens, x)

    def test_free_semigroup_covers_interior(self):
        # every interior lattice point is a positive integer combination of
        # the free generators
        C = SimplicialCone([(1, 0), (1, 2)])
        gens = free_superlattice(C, identity(2))
        cols = [[Fraction(g[i]) for g in gens] for i in range(2)]
        for x in itertools.product(range(0, 7), repeat=2):
            if not C.interior_contains(x):
                continue
            c = solve_consistent(cols, list(map(Fraction, x)))
            assert all(v.denominator == 1 and v >= 1 for v in c)


# Reference: the exhaustive chamber search over every sign pattern of every
# form class, and the facet-based triangulation of every cone.

def _reference_chambers(C, forms):
    d = C.dim
    if d != C.ambient_dim:
        raise ValueError("refine_definite expects a full-dimensional cone")
    base = list(C.facet_normals()) if d > 1 else []
    if d == 1:
        return [Cone(C.generators)]
    chambers = []
    seen = set()
    classes = sorted({primitive_int_vector(f) for f in forms})
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


def _reference_triangulate(C):
    if not C.is_pointed():
        raise ValueError("cone contains a line")
    return _pulling(list(C.generators))


def _random_cone(rnd, d):
    """Full-dimensional pointed cone in the open half-space x_d > 0."""
    while True:
        n = d if rnd.random() < 0.5 else d + 1
        gens = [tuple(rnd.randint(-2, 2) for _ in range(d - 1))
                + (rnd.randint(1, 3),) for _ in range(n)]
        C = Cone(gens)
        if C.dim == d and len(C.extreme_rays()) == len(C.generators):
            return C


def _random_forms(rnd, C):
    """1-2 classes that change sign on C, mixed with up to 2 one-signed;
    None if 200 draws do not find them (a narrow cone)."""
    cutting, definite = [], []
    for _ in range(200):
        f = [rnd.randint(-3, 3) for _ in range(C.ambient_dim)]
        vals = [dot(f, g) for g in C.generators]
        if any(v > 0 for v in vals) and any(v < 0 for v in vals):
            cutting.append(f)
        elif any(vals):
            definite.append(f)
        if len(cutting) >= 2 and len(definite) >= 2:
            break
    else:
        return None
    forms = cutting[:rnd.randint(1, 2)] + definite[:rnd.randint(0, 2)]
    rnd.shuffle(forms)
    return [primitive_int_vector(f) for f in forms]


def _pieces(C, forms):
    return [(delta.generators, drop)
            for delta, drop in refine_definite(C, forms)]


class TestRefineDefinite:
    def test_pruned_search_matches_exhaustive_reference(self, monkeypatch):
        rnd = random.Random(2026)
        cases = []
        while len(cases) < 40:
            C = _random_cone(rnd, rnd.choice((2, 3, 3, 3, 4)))
            forms = _random_forms(rnd, C)
            if forms is not None:
                cases.append((C, forms))
        got = [_pieces(C, forms) for C, forms in cases]
        chambers = []

        def recording_chambers(C, forms):
            out = _reference_chambers(C, forms)
            chambers.extend(out)
            return out

        monkeypatch.setattr(geometry, "_chambers", recording_chambers)
        monkeypatch.setattr(geometry, "triangulate", _reference_triangulate)
        for (C, forms), pieces in zip(cases, got):
            assert pieces == _pieces(C, forms), (C, forms)
        assert sum(len(ch.generators) > ch.dim for ch in chambers) >= 20

    def test_one_signed_forms_leave_the_cone_whole(self):
        C = Cone([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        forms = [(1, 0, 0), (1, 1, 0), (-1, -2, 0), (1, 1, 1)]
        assert [ch.generators for ch in geometry._chambers(C, forms)] \
            == [C.generators]
        assert _pieces(C, forms) == [(((0, 0, 1), (0, 1, 0), (1, 0, 0)), 0)]


class TestFractionalSpan:
    def test_fractional_generators_span_the_plane(self):
        # entries are scaled to integers, not truncated by int()
        C = SimplicialCone([(Fraction(1, 2), Fraction(1, 3)),
                            (0, Fraction(1, 2))])
        assert C.dim == 2
        C = SimplicialCone([(Fraction(1, 2), 1), (0, Fraction(1, 2))])
        assert C.dim == 2
        assert [t.generators for t in triangulate(C)] == [
            t.generators for t in _pulling([(1, 2), (0, 1)])]


class TestTriangulateIndependent:
    def test_equals_pulling(self):
        rnd = random.Random(5)
        for _ in range(40):
            d = rnd.randint(1, 4)
            gens = [tuple(rnd.randint(-3, 3) for _ in range(d))
                    for _ in range(d)]
            if mat_rank(gens) < d:
                continue
            scales = [rnd.randint(1, 3) for _ in gens]
            scaled = [tuple(t * x for x in g) for t, g in zip(scales, gens)]
            fractional = [tuple(Fraction(x, t) for x in g)
                          for t, g in zip(scales, gens)]
            expected = [t.generators for t in _pulling(gens)]
            for C in (Cone(fractional), SimplicialCone(scaled)):
                assert [t.generators for t in triangulate(C)] == expected
