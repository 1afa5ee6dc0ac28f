"""Properties of the exact linear algebra kernels, each checked against an
independent reference: the Leibniz sum for determinants, nonzero minors for
rank, and matrix products for inverses, solutions and nullspaces."""

import itertools
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

from conezeta.linalg import (mat_det, mat_inverse, mat_mul, mat_rank,
                             nullspace, primitive_int_vector, primitive_ray,
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
