"""Exact linear algebra helpers over Q and Z (small dense matrices)."""

from fractions import Fraction
from math import gcd


def frac_matrix(rows):
    return [[Fraction(x) for x in row] for row in rows]


def mat_mul(A, B):
    n, k, m = len(A), len(B), len(B[0])
    return [[sum(A[i][t] * B[t][j] for t in range(k)) for j in range(m)]
            for i in range(n)]


def identity(n, one=1):
    return [[one if i == j else 0 * one for j in range(n)] for i in range(n)]


def mat_rank(rows):
    """Rank of a matrix with rational entries (Gaussian elimination)."""
    A = frac_matrix(rows)
    n = len(A)
    m = len(A[0]) if n else 0
    rank = 0
    col = 0
    while rank < n and col < m:
        piv = next((r for r in range(rank, n) if A[r][col] != 0), None)
        if piv is None:
            col += 1
            continue
        A[rank], A[piv] = A[piv], A[rank]
        prow = A[rank]
        for r in range(n):
            if r != rank and A[r][col] != 0:
                f = A[r][col] / prow[col]
                A[r] = [a - f * b for a, b in zip(A[r], prow)]
        rank += 1
        col += 1
    return rank


def mat_inverse(rows):
    """Exact inverse of a square rational matrix."""
    n = len(rows)
    A = frac_matrix(rows)
    I = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if A[r][col] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        A[col], A[piv] = A[piv], A[col]
        I[col], I[piv] = I[piv], I[col]
        f = A[col][col]
        A[col] = [a / f for a in A[col]]
        I[col] = [a / f for a in I[col]]
        for r in range(n):
            if r != col and A[r][col] != 0:
                f = A[r][col]
                A[r] = [a - f * b for a, b in zip(A[r], A[col])]
                I[r] = [a - f * b for a, b in zip(I[r], I[col])]
    return I


def mat_det(rows):
    """Exact determinant of a square rational matrix."""
    A = frac_matrix(rows)
    n = len(A)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if A[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            A[col], A[piv] = A[piv], A[col]
            det = -det
        det *= A[col][col]
        inv = 1 / A[col][col]
        for r in range(col + 1, n):
            if A[r][col] != 0:
                f = A[r][col] * inv
                A[r] = [a - f * b for a, b in zip(A[r], A[col])]
    return det


def solve_consistent(A, b):
    """Solve A x = b exactly for rectangular A; raises if inconsistent.

    If the system is underdetermined the free coordinates are set to 0.
    """
    n = len(A)
    m = len(A[0]) if n else 0
    M = [[Fraction(A[i][j]) for j in range(m)] + [Fraction(b[i])]
         for i in range(n)]
    pivots = []
    rank = 0
    for col in range(m):
        piv = next((r for r in range(rank, n) if M[r][col] != 0), None)
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        f = M[rank][col]
        M[rank] = [a / f for a in M[rank]]
        for r in range(n):
            if r != rank and M[r][col] != 0:
                g = M[r][col]
                M[r] = [a - g * c for a, c in zip(M[r], M[rank])]
        pivots.append(col)
        rank += 1
    for r in range(rank, n):
        if M[r][m] != 0:
            raise ValueError("inconsistent linear system")
    x = [Fraction(0)] * m
    for r, pc in enumerate(pivots):
        x[pc] = M[r][m]
    return x


def nullspace(rows, m=None):
    """Basis (list of rational vectors) of the right nullspace of `rows`."""
    if m is None:
        m = len(rows[0]) if rows else 0
    A = frac_matrix(rows) if rows else []
    n = len(A)
    pivots = []
    rank = 0
    for col in range(m):
        piv = next((r for r in range(rank, n) if A[r][col] != 0), None)
        if piv is None:
            continue
        A[rank], A[piv] = A[piv], A[rank]
        f = A[rank][col]
        A[rank] = [a / f for a in A[rank]]
        for r in range(n):
            if r != rank and A[r][col] != 0:
                g = A[r][col]
                A[r] = [a - g * b for a, b in zip(A[r], A[rank])]
        pivots.append(col)
        rank += 1
    free = [c for c in range(m) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * m
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -A[r][fc]
        basis.append(v)
    return basis


def primitive_int_vector(v):
    """Scale a nonzero rational vector to coprime integers, first nonzero > 0."""
    v = [Fraction(x) for x in v]
    if all(x == 0 for x in v):
        raise ValueError("zero vector has no primitive form")
    den = 1
    for x in v:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    ints = [x // g for x in ints]
    lead = next(x for x in ints if x != 0)
    if lead < 0:
        ints = [-x for x in ints]
    return tuple(ints)


def smith_normal_form(M):
    """Integer Smith normal form.

    Returns (U, S, V) with U, V unimodular and U*M*V = S diagonal,
    diagonal entries nonnegative with d1 | d2 | ... .
    """
    A = [list(map(int, row)) for row in M]
    n = len(A)
    m = len(A[0]) if n else 0
    U = identity(n)
    V = identity(m)

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for r in A:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]

    def add_row(src, dst, f):
        A[dst] = [a + f * b for a, b in zip(A[dst], A[src])]
        U[dst] = [a + f * b for a, b in zip(U[dst], U[src])]

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
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        done = False
        while not done:
            done = True
            for i in range(t + 1, n):
                if A[i][t] != 0:
                    q = A[i][t] // A[t][t]
                    add_row(t, i, -q)
                    if A[i][t] != 0:
                        swap_rows(t, i)
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
            add_row(bad, t, 1)
            continue
        if A[t][t] < 0:
            A[t] = [-x for x in A[t]]
            U[t] = [-x for x in U[t]]
        t += 1
    return U, A, V
