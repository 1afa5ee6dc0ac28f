"""Exact cyclotomic arithmetic, roots of unity and lattice characters."""

import cmath
import itertools
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .linalg import mat_mul, smith_normal_form, solve_consistent


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


def _cyclo(N, num, den):
    """CycloNumber num/den of modulus N from phi(N) integer numerators and
    a denominator den > 0, divided by their gcd: the one place that puts a
    number in lowest terms."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [x // g for x in num]
            den //= g
    out = object.__new__(CycloNumber)
    out.N = N
    out.num = tuple(num)
    out.den = den
    return out


def euler_phi(N):
    return len(cyclotomic_poly(N)) - 1


class CycloNumber:
    """Element of Q(zeta_N) in the power basis 1, z, ..., z^(phi(N)-1),
    held as integer numerators `num` over one denominator `den` > 0 in
    lowest terms (gcd(*num, den) == 1), so equal numbers of one modulus
    have equal fields."""

    __slots__ = ("N", "num", "den")

    def __init__(self, N, coords):
        d = euler_phi(N)
        coords = [Fraction(c) for c in coords]
        if len(coords) != d:
            raise ValueError("expected %d coordinates for modulus %d" % (d, N))
        # over the lcm of lowest-terms denominators no prime divides every
        # numerator and the denominator, so this is already in lowest terms
        den = lcm(*(c.denominator for c in coords))
        self.N = N
        self.num = tuple(c.numerator * (den // c.denominator) for c in coords)
        self.den = den

    @property
    def coords(self):
        """The phi(N) coordinates as Fractions."""
        return tuple(Fraction(x, self.den) for x in self.num)

    @staticmethod
    def from_rational(q, N=1):
        q = Fraction(q)
        return _cyclo(N, (q.numerator,) + (0,) * (euler_phi(N) - 1),
                      q.denominator)

    @staticmethod
    def zeta(N, k=1):
        """zeta_N^k as a CycloNumber of modulus N."""
        table, d = _reduction_table(N)
        num = [0] * d
        for t, r in table[k % N]:
            num[t] = r
        return _cyclo(N, num, 1)

    def embed(self, M):
        """Embed into Q(zeta_M) for N | M (zeta_N = zeta_M^(M/N))."""
        if M == self.N:
            return self
        if M % self.N != 0:
            raise ValueError("no embedding: %d does not divide %d" % (self.N, M))
        # zeta_N^j = zeta_M^(j*M/N), a row of the reduction table of M
        table, d = _reduction_table(M)
        step = M // self.N
        acc = [0] * d
        for j, c in enumerate(self.num):
            if c:
                for t, r in table[step * j]:
                    acc[t] += c * r
        return _cyclo(M, acc, self.den)

    def _common(self, other):
        if self.N == other.N:
            return self, other
        M = lcm(self.N, other.N)
        return self.embed(M), other.embed(M)

    def _add(self, other, sign):
        """self + sign * other for sign 1 or -1."""
        if isinstance(other, (int, Fraction)):
            # num/den + p/q = (q*num + p*den)/(q*den) in coordinate 0
            p, q = other.numerator, other.denominator
            num = [x * q for x in self.num]
            num[0] += sign * p * self.den
            return _cyclo(self.N, num, q * self.den)
        a, b = self._common(other)
        db, sda = b.den, sign * a.den
        return _cyclo(a.N, [x * db + y * sda for x, y in zip(a.num, b.num)],
                      a.den * db)

    def __add__(self, other):
        return self._add(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _cyclo(self.N, [-x for x in self.num], self.den)

    def __sub__(self, other):
        return self._add(other, -1)

    def __rsub__(self, other):
        return (-self)._add(other, 1)

    def _scale(self, p, q):
        """self * p/q for ints p and q > 0."""
        return _cyclo(self.N, [x * p for x in self.num], q * self.den)

    def __mul__(self, other):
        # a rational factor, as an int, a Fraction or a number of modulus
        # 1, scales the numerators and the denominator
        if isinstance(other, (int, Fraction)):
            return self._scale(other.numerator, other.denominator)
        if other.N == 1:
            return self._scale(other.num[0], other.den)
        if self.N == 1:
            return other._scale(self.num[0], self.den)
        a, b = self._common(other)
        table, d = _reduction_table(a.N)
        # the product polynomial, of degree at most 2d - 2, then its
        # rows d .. 2d - 2 reduced modulo Phi_N
        prod = [0] * (2 * d - 1)
        for i, x in enumerate(a.num):
            if x:
                for j, y in enumerate(b.num, i):
                    if y:
                        prod[j] += x * y
        acc = prod[:d]
        for k in range(d, 2 * d - 1):
            c = prod[k]
            if c:
                for t, r in table[k]:
                    acc[t] += c * r
        return _cyclo(a.N, acc, a.den * b.den)

    __rmul__ = __mul__

    def is_zero(self):
        return not any(self.num)

    def is_rational(self):
        return not any(self.num[1:])

    def rational_value(self):
        if not self.is_rational():
            raise ValueError("not a rational number")
        return Fraction(self.num[0], self.den)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return (self.den == other.denominator
                    and self.num[0] == other.numerator and self.is_rational())
        if not isinstance(other, CycloNumber):
            return NotImplemented
        a, b = self._common(other)
        return a.num == b.num and a.den == b.den

    def to_complex(self):
        # int true division is correctly rounded, as float(Fraction) is
        z = cmath.exp(2j * cmath.pi / self.N)
        den = self.den
        out = 0j
        for x in reversed(self.num):
            out = out * z + complex(x / den)
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


@lru_cache(maxsize=None)
def one_minus_inverse(root):
    """(1 - z)^(-1) for a root of unity z other than 1, a CycloNumber of
    modulus n = z.order built once per root and shared by every caller.
    Since (1 - z) * sum_j j z^j = -n for z^n = 1, z != 1, it is
    -(1/n) sum_{j=1}^{n-1} j z^j, read off the rows of the reduction
    table."""
    n, k = root.order, root.exp
    if n == 1:
        raise ZeroDivisionError("1 - z is zero for z = 1")
    table, d = _reduction_table(n)
    num = [0] * d
    for j in range(1, n):
        for t, r in table[j * k % n]:
            num[t] -= j * r
    return _cyclo(n, num, n)


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

    def eval(self, x):
        c = _lattice_coords(self.basis, x)
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
    S, _, Vinv = smith_normal_form(M)
    d = len(M)
    divisors = [S[i][i] for i in range(d)]
    if any(di == 0 for di in divisors):
        raise ValueError("sublattice does not have finite index in L")
    # adapted basis C of L: sub = M . Lbasis and U M V = S for some
    # unimodular U, so with C = V^{-1} . Lbasis the rows of U . sub are
    # divisors[i] * C[i]
    C = mat_mul(Vinv, Lbasis)
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
