"""Exact linear algebra over Q and Z (small dense matrices); every rational
elimination goes through one Gauss-Jordan routine, `_rref`."""

from fractions import Fraction
from math import gcd, lcm, prod


def dot(a, b):
    """Sum of a[i] * b[i]; ints in give an int, so divide no result of it."""
    return sum(x * y for x, y in zip(a, b))


def mat_mul(A, B):
    cols = list(zip(*B))
    return [[dot(row, col) for col in cols] for row in A]


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _rref(rows, m):
    """Gauss-Jordan elimination on the first m columns of `rows`.

    Returns (R, pivots, values, swaps): the reduced rows as Fractions (any
    columns past m ride along, as in an augmented matrix), the pivot
    columns in order, the pivot entries before scaling and the number of
    row swaps.  Row r of R carries the pivot in column pivots[r].
    """
    A = [[Fraction(x) for x in row] for row in rows]
    n = len(A)
    pivots, values, swaps = [], [], 0
    for col in range(m):
        rank = len(pivots)
        if rank == n:
            break
        piv = next((r for r in range(rank, n) if A[r][col] != 0), None)
        if piv is None:
            continue
        if piv != rank:
            A[rank], A[piv] = A[piv], A[rank]
            swaps += 1
        f = A[rank][col]
        prow = A[rank] = [a / f for a in A[rank]]
        for r in range(n):
            if r != rank and A[r][col] != 0:
                g = A[r][col]
                A[r] = [a - g * b for a, b in zip(A[r], prow)]
        pivots.append(col)
        values.append(f)
    return A, pivots, values, swaps


def mat_rank(rows):
    """Rank of a matrix with rational entries."""
    return len(_rref(rows, len(rows[0]) if rows else 0)[1])


def mat_inverse(rows):
    """Exact inverse of a square rational matrix."""
    n = len(rows)
    R, pivots, _, _ = _rref([list(row) + unit
                             for row, unit in zip(rows, identity(n))], n)
    if len(pivots) < n:
        raise ValueError("matrix is singular")
    return [row[n:] for row in R]


def mat_det(rows):
    """Exact determinant of a square rational matrix."""
    n = len(rows)
    _, pivots, values, swaps = _rref(rows, n)
    if len(pivots) < n:
        return Fraction(0)
    det = prod(values, start=Fraction(1))
    return -det if swaps % 2 else det


def solve_consistent(A, b):
    """Solve A x = b exactly for rectangular A; raises if inconsistent.

    If the system is underdetermined the free coordinates are set to 0.
    """
    m = len(A[0]) if A else 0
    R, pivots, _, _ = _rref([list(row) + [c] for row, c in zip(A, b)],
                            m + 1)
    if pivots and pivots[-1] == m:
        raise ValueError("inconsistent linear system")
    x = [Fraction(0)] * m
    for row, pc in zip(R, pivots):
        x[pc] = row[m]
    return x


def nullspace(rows, m=None):
    """Basis (list of rational vectors) of the right nullspace of `rows`."""
    if m is None:
        m = len(rows[0]) if rows else 0
    R, pivots, _, _ = _rref(rows, m)
    basis = []
    for fc in range(m):
        if fc in pivots:
            continue
        v = [Fraction(0)] * m
        v[fc] = Fraction(1)
        for row, pc in zip(R, pivots):
            v[pc] = -row[fc]
        basis.append(v)
    return basis


def primitive_ray(v):
    """Scale a nonzero rational vector to coprime integers, keeping direction."""
    v = [Fraction(x) for x in v]
    den = lcm(*(x.denominator for x in v))
    ints = [int(x * den) for x in v]
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero vector is not a ray")
    return tuple(x // g for x in ints)


def primitive_int_vector(v):
    """Scale a nonzero rational vector to coprime integers, first nonzero > 0."""
    ray = primitive_ray(v)
    if next(x for x in ray if x != 0) < 0:
        return tuple(-x for x in ray)
    return ray


def smith_normal_form(M):
    """Integer Smith normal form.

    Returns (S, V) with V unimodular and U*M*V = S diagonal for some
    unimodular U, diagonal entries nonnegative with d1 | d2 | ... .
    """
    A = [list(map(int, row)) for row in M]
    n = len(A)
    m = len(A[0]) if n else 0
    V = identity(m)

    def swap_cols(i, j):
        for r in A:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]

    def add_col(src, dst, f):
        for r in A:
            r[dst] += f * r[src]
        for r in V:
            r[dst] += f * r[src]

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
    return A, V
