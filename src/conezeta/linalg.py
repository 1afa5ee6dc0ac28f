"""Exact linear algebra over Q and Z (small dense matrices).

Every rank, determinant, solve, inverse and nullspace goes through one
fraction-free Gauss-Jordan routine, `_rref`: each row is scaled to integers
by the lcm of its denominators, elimination runs on Python ints with
Bareiss's exact division, and a Fraction is built only for an output that
needs a division (a solution, an inverse, a nullspace vector, the
determinant of a non-integer matrix).  Integer input therefore never
touches Fraction arithmetic."""

from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul


def dot(a, b):
    """Sum of a[i] * b[i]; ints in give an int, so divide no result of it."""
    return sum(map(mul, a, b))


def mat_mul(A, B):
    cols = list(zip(*B))
    return [[dot(row, col) for col in cols] for row in A]


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _integer_row(row):
    """(row * d, d) for d the lcm of the row's denominators: an integer row
    with the same span.  Ints and Fractions both have a numerator and a
    denominator."""
    if all(type(x) is int for x in row):
        return list(row), 1
    d = lcm(*(x.denominator for x in row))
    return [x.numerator * (d // x.denominator) for x in row], d


def _integer_rows(rows):
    return [_integer_row(row)[0] for row in rows]


def _rref(rows, m):
    """Fraction-free Gauss-Jordan elimination on the first m columns of the
    integer rows `rows`, with Bareiss's exact division.

    Returns (R, pivots, den, swaps): R / den is the reduced row echelon form
    (any columns past m ride along, as in an augmented matrix), the pivot
    columns in order, and the number of row swaps.  Row r of R carries the
    pivot den in column pivots[r]; den is the last pivot, the determinant
    of the pivot rows and columns after the swaps (1 with no pivot).  The
    pivot of a column is its first nonzero entry at or below the rank.
    """
    A = [list(row) for row in rows]
    n = len(A)
    pivots, den, swaps = [], 1, 0
    for col in range(m):
        rank = len(pivots)
        if rank == n:
            break
        piv = next((r for r in range(rank, n) if A[r][col]), None)
        if piv is None:
            continue
        if piv != rank:
            A[rank], A[piv] = A[piv], A[rank]
            swaps += 1
        prow = A[rank]
        p = prow[col]
        # every row becomes (p * row - row[col] * prow) / den; the division
        # is exact, since each entry is then a minor of the input
        for r in range(n):
            if r == rank:
                continue
            g = A[r][col]
            if g:
                A[r] = [(p * a - g * b) // den for a, b in zip(A[r], prow)]
            elif p != den:
                A[r] = [p * a // den for a in A[r]]
        pivots.append(col)
        den = p
    return A, pivots, den, swaps


def mat_rank(rows):
    """Rank of a matrix with rational entries."""
    return len(_rref(_integer_rows(rows), len(rows[0]) if rows else 0)[1])


def mat_inverse(rows):
    """Exact inverse of a square rational matrix."""
    n = len(rows)
    R, pivots, den, _ = _rref(_integer_rows(
        list(row) + unit for row, unit in zip(rows, identity(n))), n)
    if len(pivots) < n:
        raise ValueError("matrix is singular")
    return [[Fraction(x, den) for x in row[n:]] for row in R]


def mat_det(rows):
    """Exact determinant of a square rational matrix: an int for an
    integer matrix."""
    n = len(rows)
    scaled = [_integer_row(row) for row in rows]
    _, pivots, den, swaps = _rref([row for row, _ in scaled], n)
    if len(pivots) < n:
        return 0
    det = -den if swaps % 2 else den
    scale = prod(d for _, d in scaled)
    return det if scale == 1 else Fraction(det, scale)


def solve_consistent(A, b):
    """Solve A x = b exactly for rectangular A; raises if inconsistent.

    If the system is underdetermined the free coordinates are set to 0.
    """
    m = len(A[0]) if A else 0
    R, pivots, den, _ = _rref(_integer_rows(
        list(row) + [c] for row, c in zip(A, b)), m + 1)
    if pivots and pivots[-1] == m:
        raise ValueError("inconsistent linear system")
    x = [0] * m
    for row, pc in zip(R, pivots):
        x[pc] = Fraction(row[m], den)
    return x


def nullspace(rows, m=None):
    """Basis (list of rational vectors) of the right nullspace of `rows`."""
    if m is None:
        m = len(rows[0]) if rows else 0
    R, pivots, den, _ = _rref(_integer_rows(rows), m)
    basis = []
    for fc in range(m):
        if fc in pivots:
            continue
        v = [0] * m
        v[fc] = 1
        for row, pc in zip(R, pivots):
            v[pc] = Fraction(-row[fc], den)
        basis.append(v)
    return basis


def primitive_ray(v):
    """Scale a nonzero rational vector to coprime integers, keeping direction."""
    ints = _integer_row(v)[0]
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero vector is not a ray")
    return tuple(ints) if g == 1 else tuple(x // g for x in ints)


def primitive_int_vector(v):
    """Scale a nonzero rational vector to coprime integers, first nonzero > 0."""
    ray = primitive_ray(v)
    if next(x for x in ray if x != 0) < 0:
        return tuple(-x for x in ray)
    return ray


def smith_normal_form(M):
    """Integer Smith normal form.

    Returns (S, V, W) with V unimodular, W = V^-1 and U*M*V = S diagonal
    for some unimodular U, diagonal entries nonnegative with d1 | d2 | ... .
    Each column operation on V is undone by a row operation on W.
    """
    A = [list(map(int, row)) for row in M]
    n = len(A)
    m = len(A[0]) if n else 0
    V = identity(m)
    W = identity(m)

    def swap_cols(i, j):
        for r in A:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]
        W[i], W[j] = W[j], W[i]

    def add_col(src, dst, f):
        for r in A:
            r[dst] += f * r[src]
        for r in V:
            r[dst] += f * r[src]
        W[src] = [a - f * b for a, b in zip(W[src], W[dst])]

    t = 0
    while t < min(n, m):
        # find nonzero pivot with smallest absolute value
        best = None
        for i in range(t, n):
            for j in range(t, m):
                if A[i][j] != 0 and (best is None or abs(A[i][j]) < abs(A[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        A[t], A[best[0]] = A[best[0]], A[t]
        swap_cols(t, best[1])
        done = False
        while not done:
            done = True
            for i in range(t + 1, n):
                if A[i][t] != 0:
                    q = A[i][t] // A[t][t]
                    A[i] = [a - q * b for a, b in zip(A[i], A[t])]
                    if A[i][t] != 0:
                        A[t], A[i] = A[i], A[t]
                        done = False
            for j in range(t + 1, m):
                if A[t][j] != 0:
                    q = A[t][j] // A[t][t]
                    add_col(t, j, -q)
                    if A[t][j] != 0:
                        swap_cols(t, j)
                        done = False
        # enforce divisibility of the remaining block by the pivot
        piv = A[t][t]
        bad = None
        for i in range(t + 1, n):
            for j in range(t + 1, m):
                if A[i][j] % piv != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            A[t] = [a + b for a, b in zip(A[t], A[bad])]
            continue
        if A[t][t] < 0:
            A[t] = [-x for x in A[t]]
        t += 1
    return A, V, W
