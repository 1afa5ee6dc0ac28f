"""Exact cyclotomic arithmetic, roots of unity and lattice characters."""

import cmath
import itertools
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .linalg import (_rref, mat_inverse, mat_mul, smith_normal_form,
                     solve_consistent)


def rational_to_str(q):
    q = Fraction(q)
    return "%d/%d" % (q.numerator, q.denominator)


def rational_from_str(s):
    s = s.strip()
    if "/" in s:
        num, den = s.split("/")
        return Fraction(int(num), int(den))
    return Fraction(int(s))


# ---------------------------------------------------------------------------
# cyclotomic polynomials and the power-basis field Q(zeta_N)

def _poly_divmod(a, b):
    """Exact division of integer/rational coefficient polynomials."""
    a = list(a)
    out = [Fraction(0)] * (len(a) - len(b) + 1)
    for i in range(len(a) - len(b), -1, -1):
        c = Fraction(a[i + len(b) - 1], b[-1])
        out[i] = c
        if c:
            for j, bj in enumerate(b):
                a[i + j] -= c * bj
    return out, a[:len(b) - 1]


@lru_cache(maxsize=None)
def cyclotomic_poly(N):
    """Coefficients (low to high) of the N-th cyclotomic polynomial."""
    if N == 1:
        return (-1, 1)
    poly = [0] * N + [1]
    poly[0] = -1  # x^N - 1
    for d in range(1, N):
        if N % d == 0:
            q, rem = _poly_divmod(poly, cyclotomic_poly(d))
            if any(rem):
                raise ArithmeticError("cyclotomic division not exact")
            poly = q
    return tuple(int(c) for c in poly)


@lru_cache(maxsize=None)
def _reduction_table(N):
    """x^j mod Phi_N for j = 0 .. max(2*phi - 2, N - 1), which covers the
    products of two power-basis elements and every power of zeta_N, each
    row as the sparse (index, integer coefficient) pairs of its nonzero
    entries."""
    phi_coeffs = cyclotomic_poly(N)
    d = len(phi_coeffs) - 1
    rows = []
    cur = [1] + [0] * (d - 1)
    for _ in range(max(2 * d - 1, N)):
        rows.append(tuple((t, r) for t, r in enumerate(cur) if r))
        # multiply by x, reduce
        nxt = [0] + cur[:]
        if len(nxt) > d:
            lead = nxt.pop()
            if lead:
                for i in range(d):
                    nxt[i] -= lead * phi_coeffs[i]
        cur = nxt
    return tuple(rows), d


def _cyclo(N, coords):
    """CycloNumber from phi(N) Fraction coordinates, taken as they are."""
    out = object.__new__(CycloNumber)
    out.N = N
    out.coords = tuple(coords)
    return out


def euler_phi(N):
    return len(cyclotomic_poly(N)) - 1


class CycloNumber:
    """Element of Q(zeta_N) in the power basis 1, z, ..., z^(phi(N)-1)."""

    __slots__ = ("N", "coords")

    def __init__(self, N, coords):
        d = euler_phi(N)
        coords = [Fraction(c) for c in coords]
        if len(coords) != d:
            raise ValueError("expected %d coordinates for modulus %d" % (d, N))
        self.N = N
        self.coords = tuple(coords)

    @staticmethod
    def from_rational(q, N=1):
        d = euler_phi(N)
        coords = [Fraction(q)] + [Fraction(0)] * (d - 1)
        return CycloNumber(N, coords)

    @staticmethod
    def zeta(N, k=1):
        """zeta_N^k as a CycloNumber of modulus N."""
        table, d = _reduction_table(N)
        coords = [Fraction(0)] * d
        for t, r in table[k % N]:
            coords[t] = Fraction(r)
        return _cyclo(N, coords)

    def embed(self, M):
        """Embed into Q(zeta_M) for N | M (zeta_N = zeta_M^(M/N))."""
        if M == self.N:
            return self
        if M % self.N != 0:
            raise ValueError("no embedding: %d does not divide %d" % (self.N, M))
        # zeta_N^j = zeta_M^(j*M/N), a row of the reduction table of M
        table, d = _reduction_table(M)
        step = M // self.N
        acc = [Fraction(0)] * d
        for j, c in enumerate(self.coords):
            if c:
                for t, r in table[step * j]:
                    acc[t] += c * r
        return _cyclo(M, acc)

    def _common(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycloNumber.from_rational(other, self.N)
        M = lcm(self.N, other.N)
        return self.embed(M), other.embed(M)

    def __add__(self, other):
        a, b = self._common(other)
        return _cyclo(a.N, [x + y for x, y in zip(a.coords, b.coords)])

    __radd__ = __add__

    def __neg__(self):
        return _cyclo(self.N, [-c for c in self.coords])

    def __sub__(self, other):
        a, b = self._common(other)
        return _cyclo(a.N, [x - y for x, y in zip(a.coords, b.coords)])

    def __mul__(self, other):
        a, b = self._common(other)
        table, d = _reduction_table(a.N)
        acc = [Fraction(0)] * d
        for i, x in enumerate(a.coords):
            if not x:
                continue
            for j, y in enumerate(b.coords):
                if not y:
                    continue
                xy = x * y
                for t, r in table[i + j]:
                    acc[t] += xy * r
        return _cyclo(a.N, acc)

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse: the solution x of self * x = 1, a linear
        system whose column j holds the coordinates of self * zeta_N^j."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        table, d = _reduction_table(self.N)
        rows = [[0] * d + [int(t == 0)] for t in range(d)]
        for i, a in enumerate(self.coords):
            if a:
                for j in range(d):
                    for t, r in table[i + j]:
                        rows[t][j] += a * r
        return _cyclo(self.N, [row[d] for row in _rref(rows, d)[0]])

    def is_zero(self):
        return all(c == 0 for c in self.coords)

    def is_rational(self):
        return all(c == 0 for c in self.coords[1:])

    def rational_value(self):
        if not self.is_rational():
            raise ValueError("not a rational number")
        return self.coords[0]

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycloNumber.from_rational(other, 1)
        if not isinstance(other, CycloNumber):
            return NotImplemented
        a, b = self._common(other)
        return a.coords == b.coords

    def to_complex(self):
        z = cmath.exp(2j * cmath.pi / self.N)
        out = 0j
        for c in reversed(self.coords):
            out = out * z + complex(c)
        return out

    def __repr__(self):
        return "CycloNumber(N=%d, %s)" % (self.N, list(self.coords))


# ---------------------------------------------------------------------------
# roots of unity

class RootOfUnity:
    """zeta_N^k stored in lowest terms (N = exact order)."""

    __slots__ = ("order", "exp")

    def __init__(self, order, exp):
        order = int(order)
        exp = int(exp) % order
        g = gcd(order, exp) if exp else order
        self.order = order // g
        self.exp = exp // g

    def __mul__(self, other):
        N = lcm(self.order, other.order)
        return RootOfUnity(N, self.exp * (N // self.order)
                           + other.exp * (N // other.order))

    def __pow__(self, n):
        n = int(n)
        return RootOfUnity(self.order, self.exp * (n % self.order))

    def inverse(self):
        return RootOfUnity(self.order, -self.exp)

    def is_one(self):
        return self.order == 1

    def to_cyclo(self):
        return CycloNumber.zeta(self.order, self.exp)

    def to_complex(self):
        return cmath.exp(2j * cmath.pi * self.exp / self.order)

    def __eq__(self, other):
        return (isinstance(other, RootOfUnity)
                and self.order == other.order and self.exp == other.exp)

    def __hash__(self):
        return hash((self.order, self.exp))

    def __repr__(self):
        return "RootOfUnity(%d, %d)" % (self.order, self.exp)

    def sort_key(self):
        return (self.order, self.exp)


ONE_ROOT = RootOfUnity(1, 0)


def nth_roots(e, n):
    """All n-th roots of e: exactly n roots of unity b with b^n == e."""
    n = int(n)
    if n < 1:
        raise ValueError("n must be positive")
    N = e.order
    return [RootOfUnity(n * N, e.exp + j * N) for j in range(n)]


# ---------------------------------------------------------------------------
# lattice characters

def _lattice_coords(basis, x):
    """Integer coordinates of the point x in the lattice with basis rows
    `basis`; ValueError for a point off the lattice."""
    c = solve_consistent(list(zip(*basis)), list(x))
    if any(v.denominator != 1 for v in c):
        raise ValueError("point %r is not in the lattice" % (x,))
    return [int(v) for v in c]


class LatticeCharacter:
    """Finite-order character on a lattice, zeta_N^(c . coords)."""

    __slots__ = ("basis", "modulus", "exps")

    def __init__(self, basis, modulus, exps):
        self.basis = tuple(tuple(Fraction(x) for x in row) for row in basis)
        self.modulus = int(modulus)
        exps = [int(e) % self.modulus for e in exps]
        if len(exps) != len(self.basis):
            raise ValueError("exponent vector length must match lattice rank")
        self.exps = tuple(exps)

    @staticmethod
    def trivial(basis):
        return LatticeCharacter(basis, 1, [0] * len(basis))

    def coords_of(self, x):
        """Integer coordinates of an ambient point in the lattice basis."""
        return _lattice_coords(self.basis, x)

    def eval(self, x):
        c = self.coords_of(x)
        k = sum(ci * ei for ci, ei in zip(c, self.exps))
        return RootOfUnity(self.modulus, k)

    def __repr__(self):
        return "LatticeCharacter(N=%d, exps=%s)" % (self.modulus, list(self.exps))


def restrict_character(chi, basis):
    """Restriction of a character to a sublattice with the given basis."""
    values = [chi.eval(b) for b in basis]
    N = lcm(*(v.order for v in values))
    exps = [v.exp * (N // v.order) for v in values]
    return LatticeCharacter(basis, N, exps)


def induced_character_decompose(L, chi):
    """All extensions of `chi` (on a finite-index sublattice) to the lattice
    with basis rows L.

    Returns the list of kappa = [L : L'] characters chi_i on L such that
    sum_i chi_i(x) = kappa * chi(x) for x in L' and 0 for x in L \\ L'.
    """
    Lbasis = [list(row) for row in L]
    sub_basis = [list(row) for row in chi.basis]
    if len(sub_basis) != len(Lbasis):
        raise ValueError("lattices must have equal rank")
    # coordinates of the sublattice basis in the L basis
    M = [_lattice_coords(Lbasis, b) for b in sub_basis]
    S, V = smith_normal_form(M)
    d = len(M)
    divisors = [S[i][i] for i in range(d)]
    if any(di == 0 for di in divisors):
        raise ValueError("sublattice does not have finite index in L")
    # adapted basis C of L: sub = M . Lbasis and U M V = S for some
    # unimodular U, so with C = V^{-1} . Lbasis the rows of U . sub are
    # divisors[i] * C[i]
    C = mat_mul(mat_inverse(V), Lbasis)
    # chi on the scaled vectors d_i * C_i (these lie in the sublattice)
    base_roots = []
    for i in range(d):
        vec = [divisors[i] * x for x in C[i]]
        base_roots.append(chi.eval(vec))
    out = []
    choice_sets = [nth_roots(r, divisors[i]) for i, r in enumerate(base_roots)]
    for combo in itertools.product(*choice_sets):
        N = lcm(*(v.order for v in combo))
        exps = [v.exp * (N // v.order) for v in combo]
        out.append(LatticeCharacter(C, N, exps))
    return out
