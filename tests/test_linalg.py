"""Properties of the exact linear algebra kernels, each checked against an
independent reference: the Leibniz sum for determinants, nonzero minors for
rank, matrix products for inverses, solutions and nullspaces, and a textbook
Gauss-Jordan over Fractions for the values that depend on the pivot rule."""

import itertools
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import assume, given, settings, strategies as st

from conezeta.geometry import Cone
from conezeta.linalg import (identity, mat_det, mat_inverse, mat_mul,
                             mat_rank, nullspace, primitive_int_vector,
                             primitive_ray, smith_normal_form,
                             solve_consistent)

# zeros are drawn often so that singular and rank-deficient cases occur
entries = st.one_of(st.just(Fraction(0)),
                    st.fractions(min_value=-3, max_value=3,
                                 max_denominator=4))


def matrices(min_rows=1, max_rows=4, min_cols=1, max_cols=4, square=False):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_rows, max_rows))
        m = n if square else draw(st.integers(min_cols, max_cols))
        return [draw(st.lists(entries, min_size=m, max_size=m))
                for _ in range(n)]
    return build()


def leibniz_det(A):
    n = len(A)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i, j in itertools.combinations(range(n), 2)
                         if perm[i] > perm[j])
        term = prod((A[i][perm[i]] for i in range(n)), start=Fraction(1))
        total += -term if inversions % 2 else term
    return total


def minor_rank(A):
    """Largest k with a nonzero k x k minor."""
    n, m = len(A), len(A[0]) if A else 0
    for k in range(min(n, m), 0, -1):
        for rows in itertools.combinations(range(n), k):
            for cols in itertools.combinations(range(m), k):
                if leibniz_det([[A[i][j] for j in cols] for i in rows]):
                    return k
    return 0


def columns(A, upto):
    return [row[:upto] for row in A]


def apply(A, x):
    return [sum((a * b for a, b in zip(row, x)), Fraction(0)) for row in A]


@given(A=matrices(square=True))
@settings(max_examples=80, deadline=None)
def test_det_is_leibniz_sum(A):
    assert mat_det(A) == leibniz_det(A)


@given(A=matrices())
@settings(max_examples=80, deadline=None)
def test_rank_is_largest_nonzero_minor(A):
    assert mat_rank(A) == minor_rank(A)


@given(A=matrices(square=True))
@settings(max_examples=80, deadline=None)
def test_inverse_or_singular(A):
    n = len(A)
    if leibniz_det(A) == 0:
        with pytest.raises(ValueError):
            mat_inverse(A)
        return
    ident = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    assert mat_mul(A, mat_inverse(A)) == ident


@given(A=matrices(), data=st.data())
@settings(max_examples=80, deadline=None)
def test_solve_consistent_leftmost_pivot_solution(A, data):
    m = len(A[0])
    x0 = data.draw(st.lists(entries, min_size=m, max_size=m))
    b = apply(A, x0)
    x = solve_consistent(A, b)
    assert apply(A, x) == b
    # a column without a pivot is a combination of the columns to its
    # left; its coordinate is free and set to 0
    for j in range(m):
        if minor_rank(columns(A, j + 1)) == minor_rank(columns(A, j)):
            assert x[j] == 0


@given(A=matrices(), data=st.data())
@settings(max_examples=80, deadline=None)
def test_solve_consistent_rejects_inconsistent(A, data):
    b = data.draw(st.lists(entries, min_size=len(A), max_size=len(A)))
    augmented = [row + [c] for row, c in zip(A, b)]
    if minor_rank(augmented) == minor_rank(A):
        assert apply(A, solve_consistent(A, b)) == b
    else:
        with pytest.raises(ValueError, match="inconsistent"):
            solve_consistent(A, b)


@given(A=matrices())
@settings(max_examples=80, deadline=None)
def test_nullspace_basis(A):
    m = len(A[0])
    basis = nullspace(A)
    assert len(basis) == m - mat_rank(A) == m - minor_rank(A)
    for v in basis:
        assert apply(A, v) == [0] * len(A)
    if basis:
        assert minor_rank(basis) == len(basis)


def test_nullspace_of_no_rows_is_the_standard_basis():
    assert nullspace([], 2) == [[1, 0], [0, 1]]


@given(v=st.lists(entries, min_size=1, max_size=4))
@settings(max_examples=80, deadline=None)
def test_primitive_vectors(v):
    if all(x == 0 for x in v):
        with pytest.raises(ValueError):
            primitive_ray(v)
        with pytest.raises(ValueError):
            primitive_int_vector(v)
        return
    ray = primitive_ray(v)
    lead = next(x for x in v if x != 0)
    t = next(r for r in ray if r != 0) / lead
    assert t > 0 and all(r == t * x for r, x in zip(ray, v))
    assert all(isinstance(r, int) for r in ray) and gcd(*ray) == 1
    key = primitive_int_vector(v)
    assert key == (ray if lead > 0 else tuple(-r for r in ray))


# Integer and mixed int/Fraction matrices go through the same integer
# elimination as Fraction ones; every value must equal the one computed for
# the matrix as Fractions and the one of a Gauss-Jordan over Fractions that
# pivots on the first nonzero row.

small_ints = st.one_of(st.just(0), st.integers(-3, 3))
mixed = st.one_of(small_ints, entries)


def int_or_mixed_matrices(n, m):
    return st.one_of(
        *(st.lists(st.lists(e, min_size=m, max_size=m), min_size=n,
                   max_size=n) for e in (small_ints, mixed)))


def as_fractions(A):
    return [[Fraction(x) for x in row] for row in A]


def fraction_rref(rows, m):
    """Gauss-Jordan over Fractions on the first m columns: (R, pivots)."""
    A = as_fractions(rows)
    pivots = []
    for col in range(m):
        rank = len(pivots)
        piv = next((r for r in range(rank, len(A)) if A[r][col]), None)
        if piv is None:
            continue
        A[rank], A[piv] = A[piv], A[rank]
        A[rank] = [a / A[rank][col] for a in A[rank]]
        for r in range(len(A)):
            if r != rank and A[r][col]:
                g = A[r][col]
                A[r] = [a - g * b for a, b in zip(A[r], A[rank])]
        pivots.append(col)
    return A, pivots


@st.composite
def shaped(draw, square=False):
    n = draw(st.integers(1, 4))
    m = n if square else draw(st.integers(1, 4))
    return draw(int_or_mixed_matrices(n, m))


@given(A=shaped(), data=st.data())
@settings(max_examples=120, deadline=None)
def test_rank_solve_nullspace_match_fraction_reference(A, data):
    m = len(A[0])
    F = as_fractions(A)
    R, pivots = fraction_rref(A, m)
    assert mat_rank(A) == mat_rank(F) == len(pivots)
    expected = []
    for fc in (c for c in range(m) if c not in pivots):
        v = [Fraction(int(c == fc)) for c in range(m)]
        for row, pc in zip(R, pivots):
            v[pc] = -row[fc]
        expected.append(v)
    assert nullspace(A) == nullspace(F) == expected
    b = data.draw(st.lists(mixed, min_size=len(A), max_size=len(A)))
    Rb, pb = fraction_rref([row + [c] for row, c in zip(A, b)], m + 1)
    if pb and pb[-1] == m:
        for M in (A, F):
            with pytest.raises(ValueError, match="inconsistent"):
                solve_consistent(M, b)
        return
    x = [Fraction(0)] * m
    for row, pc in zip(Rb, pb):
        x[pc] = row[m]
    assert solve_consistent(A, b) == solve_consistent(F, b) == x


@given(A=shaped(square=True))
@settings(max_examples=120, deadline=None)
def test_det_and_inverse_match_fraction_reference(A):
    F = as_fractions(A)
    det = leibniz_det(F)
    assert mat_det(A) == mat_det(F) == det
    if all(isinstance(x, int) for row in A for x in row):
        assert isinstance(mat_det(A), int)
    if det == 0:
        for M in (A, F):
            with pytest.raises(ValueError, match="singular"):
                mat_inverse(M)
        return
    n = len(A)
    R, _ = fraction_rref([row + unit for row, unit in zip(F, identity(n))],
                         n)
    assert mat_inverse(A) == mat_inverse(F) == [row[n:] for row in R]


@given(M=st.integers(1, 4).flatmap(lambda n: st.integers(1, 4).flatmap(
    lambda m: st.lists(st.lists(st.integers(-4, 4), min_size=m, max_size=m),
                       min_size=n, max_size=n))))
@settings(max_examples=150, deadline=None)
def test_smith_normal_form(M):
    S, V, W = smith_normal_form(M)
    n, m = len(M), len(M[0])
    assert len(S) == n and all(len(row) == m for row in S)
    assert all(S[i][j] == 0 for i in range(n) for j in range(m) if i != j)
    diag = [S[i][i] for i in range(min(n, m))]
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        assert (b == 0) if a == 0 else (b % a == 0)
    assert mat_mul(V, W) == identity(m) == mat_mul(W, V)
    assert abs(mat_det(V)) == 1
    r = mat_rank(M)
    assert mat_rank(S) == r == sum(1 for d in diag if d)
    # the columns of M V past the rank vanish, which the span coordinates
    # of a cone rely on
    assert all(x == 0 for row in mat_mul(M, V) for x in row[r:])


@st.composite
def deficient_generators(draw):
    """Integer generators of rank r < m: r independent vectors and up to
    two nonnegative combinations of them, with r coefficients for a point
    of their span."""
    m = draw(st.integers(2, 4))
    r = draw(st.integers(1, m - 1))
    rows = st.lists(st.integers(-3, 3), min_size=m, max_size=m)
    base = draw(st.lists(rows, min_size=r, max_size=r))
    assume(mat_rank(base) == r)
    extra = draw(st.lists(st.lists(st.integers(0, 2), min_size=r,
                                   max_size=r), max_size=2))
    gens = base + [[sum(c * b[j] for c, b in zip(cs, base))
                    for j in range(m)] for cs in extra if any(cs)]
    coeffs = draw(st.lists(st.integers(-5, 5), min_size=r, max_size=r))
    return gens, coeffs


@given(case=deficient_generators())
@settings(max_examples=150, deadline=None)
def test_span_coords_are_integer_coefficients(case):
    gens, coeffs = case
    C = Cone(gens)
    r = len(coeffs)
    assert C.dim == r
    basis = C.span_basis()
    x = [sum(c * b[j] for c, b in zip(coeffs, basis))
         for j in range(C.ambient_dim)]
    got = C.span_coords(x)
    assert list(got) == coeffs
    assert all(isinstance(c, int) for c in got)
    off = next(e for e in identity(C.ambient_dim)
               if mat_rank(list(basis) + [e]) > r)
    with pytest.raises(ValueError):
        C.span_coords([a + b for a, b in zip(x, off)])
    assert not C.in_span([a + b for a, b in zip(x, off)])
