import cmath
import itertools
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from conezeta.exact import (CycloNumber, RootOfUnity, LatticeCharacter,
                            nth_roots, euler_phi, restrict_character,
                            induced_character_decompose, rational_to_str,
                            rational_from_str, cyclotomic_poly,
                            one_minus_inverse)

ONE = CycloNumber.from_rational(1, 1)


def close(a, b, tol=1e-12):
    return abs(complex(a) - complex(b)) <= tol


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=7)


class TestCycloNumber:
    def test_zeta_primitive(self):
        z3 = CycloNumber.zeta(3)
        assert close(z3.to_complex(), cmath.exp(2j * cmath.pi / 3))

    def test_zeta_power_reduction(self):
        # x^k reduced modulo the cyclotomic polynomial
        z2 = CycloNumber.zeta(2)
        assert close(z2.to_complex(), -1.0)
        z6 = CycloNumber.zeta(6, 3)
        assert close(z6.to_complex(), cmath.exp(2j * cmath.pi / 2))

    def test_inverse_of_one_minus_zeta3(self):
        z3 = CycloNumber.zeta(3)
        x = ONE - z3
        y = ONE - z3 * z3
        # (1-z3)(1-z3^2) = 3
        assert (x * y - CycloNumber.from_rational(3, 1)).is_zero()

    @given(a=rationals, b=rationals, c=rationals)
    @settings(max_examples=50, deadline=None)
    def test_field_axioms_in_q_zeta3(self, a, b, c):
        z = CycloNumber.zeta(3)
        x = CycloNumber.from_rational(a, 3) + z * CycloNumber.from_rational(b, 3)
        y = CycloNumber.from_rational(c, 3) + z
        assert ((x + y) - (y + x)).is_zero()
        assert ((x * y) - (y * x)).is_zero()

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_cached_embedding_and_trusted_results(self, data):
        M = data.draw(st.integers(1, 12))
        divisors = [n for n in range(1, M + 1) if M % n == 0]
        Na = data.draw(st.sampled_from(divisors))
        Nb = data.draw(st.sampled_from(divisors))
        a = CycloNumber(Na, data.draw(st.lists(
            rationals, min_size=euler_phi(Na), max_size=euler_phi(Na))))
        b = CycloNumber(Nb, data.draw(st.lists(
            rationals, min_size=euler_phi(Nb), max_size=euler_phi(Nb))))
        # the embedding built from zeta_M powers, one coordinate at a time
        by_zeta = CycloNumber.from_rational(0, M)
        for j, c in enumerate(a.coords):
            by_zeta = by_zeta + (CycloNumber.zeta(M, j * (M // Na))
                                 * CycloNumber.from_rational(c, M))
        lifted = a.embed(M)
        assert (lifted.N, lifted.coords) == (by_zeta.N, by_zeta.coords)
        assert lifted == a
        for r in (a + b, a - b, a * b, -a, lifted):
            public = CycloNumber(r.N, r.coords)
            assert all(type(c) is Fraction for c in r.coords)
            assert r == public and public == r
        assert close((a * b).to_complex(), a.to_complex() * b.to_complex(),
                     1e-9)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_rational_operands_act_as_cyclo_numbers(self, data):
        # an int or Fraction operand behaves as from_rational(q): same
        # modulus, same coordinates
        N = data.draw(st.integers(1, 12))
        q = data.draw(st.one_of(st.integers(-5, 5), rationals))
        Q = CycloNumber.from_rational(q)
        if data.draw(st.booleans()):
            x = CycloNumber.from_rational(q, N)
        else:
            x = CycloNumber(N, data.draw(st.lists(
                rationals, min_size=euler_phi(N), max_size=euler_phi(N))))
        for got, want in ((x * q, x * Q), (q * x, Q * x), (x + q, x + Q),
                          (q + x, Q + x), (x - q, x - Q), (q - x, Q - x)):
            assert (got.N, got.coords) == (want.N, want.coords)
        assert (x == q) == (x == Q) == (q == x)

    def test_equal_numbers_across_fields(self):
        z3, z6sq = CycloNumber.zeta(3, 1), CycloNumber.zeta(6, 2)
        assert z3 == z6sq
        i = CycloNumber.zeta(4, 1)
        assert i == i.embed(12)
        q = CycloNumber.from_rational(Fraction(-3, 7), 5)
        assert q == Fraction(-3, 7)

    def test_embedding_compatible(self):
        z3 = CycloNumber.zeta(3)
        lifted = z3.embed(6)
        assert close(lifted.to_complex(), z3.to_complex())

    def test_rational_detection(self):
        z3 = CycloNumber.zeta(3)
        s = ONE.embed(3) + z3 + z3 * z3  # 1 + z3 + z3^2 = 0
        assert s.is_zero()


# Fraction-coordinate reference arithmetic in Q(zeta_N) = Q[x]/Phi_N

def _ref_reduce(poly, N):
    """Coordinates of the polynomial `poly` (low to high) modulo Phi_N."""
    phi = cyclotomic_poly(N)
    d = len(phi) - 1
    p = [Fraction(c) for c in poly] + [Fraction(0)] * d
    for k in range(len(p) - 1, d - 1, -1):
        if p[k]:
            c = p[k]
            for i, f in enumerate(phi):
                p[k - d + i] -= c * f
    return tuple(p[:d])


def _ref_embed(coords, N, M):
    step = M // N
    poly = [0] * (step * len(coords))
    for j, c in enumerate(coords):
        poly[step * j] = c
    return _ref_reduce(poly, M)


def _ref_mul(a, b, N):
    poly = [Fraction(0)] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            poly[i + j] += x * y
    return _ref_reduce(poly, N)


def _totient(N):
    return sum(1 for k in range(1, N + 1) if gcd(k, N) == 1)


small_rationals = st.one_of(st.just(Fraction(0)), st.fractions(
    min_value=-4, max_value=4, max_denominator=6))


class TestCanonicalForm:
    """Every result is num/den in lowest terms, so equality and the zero
    test can read num and den directly."""

    def check(self, r, N, coords):
        assert r.N == N
        assert len(r.num) == _totient(N)
        assert all(type(x) is int for x in r.num) and type(r.den) is int
        assert r.den > 0
        assert gcd(*r.num, r.den) == 1
        assert r.coords == tuple(coords)
        assert r.is_zero() == (not any(coords))
        assert r == CycloNumber(N, coords)

    def number(self, data, N):
        return CycloNumber(N, data.draw(st.lists(
            small_rationals, min_size=_totient(N), max_size=_totient(N))))

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_results_are_in_lowest_terms(self, data):
        M = data.draw(st.integers(1, 24))
        divisors = [n for n in range(1, M + 1) if M % n == 0]
        Na = data.draw(st.sampled_from(divisors))
        Nb = data.draw(st.sampled_from(divisors))
        a = self.number(data, Na)
        # b == -a, b == a or an unrelated b: sums that cancel to 0 or
        # leave a common factor in every numerator
        b = data.draw(st.sampled_from(
            [-a.embed(Nb), a.embed(Nb), self.number(data, Nb)]
            if Na == Nb else [self.number(data, Nb)]))
        ra, rb = tuple(a.coords), tuple(b.coords)
        L = lcm(Na, Nb)
        ea, eb = _ref_embed(ra, Na, L), _ref_embed(rb, Nb, L)
        results = [
            (a + b, L, tuple(x + y for x, y in zip(ea, eb))),
            (a - b, L, tuple(x - y for x, y in zip(ea, eb))),
            (a * b, L, _ref_mul(ea, eb, L)),
            (-a, Na, tuple(-x for x in ra)),
            (a.embed(M), M, _ref_embed(ra, Na, M)),
        ]
        q = data.draw(st.one_of(st.integers(-6, 6), small_rationals))
        shifted = (ra[0] + q,) + ra[1:]
        results += [
            (a * q, Na, tuple(x * q for x in ra)),
            (q * a, Na, tuple(x * q for x in ra)),
            (a + q, Na, shifted),
            (q + a, Na, shifted),
            (a - q, Na, (ra[0] - q,) + ra[1:]),
        ]
        if Na > 1:
            # the one inverse the library keeps: (1 - z)^(-1) for a
            # primitive Na-th root of unity z = zeta_Na^k
            k = data.draw(st.sampled_from(
                [k for k in range(1, Na) if gcd(k, Na) == 1]))
            inv = one_minus_inverse(RootOfUnity(Na, k))
            one = (Fraction(1),) + (Fraction(0),) * (_totient(Na) - 1)
            one_minus_z = _ref_reduce([1] + [0] * (k - 1) + [-1], Na)
            assert _ref_mul(inv.coords, one_minus_z, Na) == one
            results.append((inv, Na, inv.coords))
        for r, N, coords in results:
            self.check(r, N, coords)
        assert (a == q) == (ra == (Fraction(q),) + (Fraction(0),) * (
            len(ra) - 1))
        for (r, N, x), (s, K, y) in itertools.combinations(results, 2):
            J = lcm(N, K)
            assert (r == s) == (_ref_embed(x, N, J) == _ref_embed(y, K, J))


class TestRootOfUnity:
    def test_nth_roots_cube_to_input(self):
        z3 = RootOfUnity(3, 1)
        roots = nth_roots(z3, 3)
        assert len(roots) == 3
        for b in roots:
            assert b ** 3 == z3

    def test_nth_roots_of_one(self):
        roots = nth_roots(RootOfUnity(1, 0), 2)
        vals = sorted(complex(b.to_complex()).real for b in roots)
        assert close(vals[0], -1) and close(vals[1], 1)

    def test_inverse(self):
        r = RootOfUnity(5, 2)
        assert (r * r.inverse()).is_one()

    # every root of unity of order 2 .. 60 in lowest terms
    @pytest.mark.parametrize("order,exp", [
        (n, k) for n in range(2, 61) for k in range(1, n) if gcd(n, k) == 1])
    def test_one_minus_inverse(self, order, exp):
        r = RootOfUnity(order, exp)
        inv = one_minus_inverse(r)
        assert inv.N == order
        assert (ONE - r.to_cyclo()) * inv == 1
        assert one_minus_inverse(RootOfUnity(order, exp)) is inv

    def test_one_minus_inverse_of_one_raises(self):
        with pytest.raises(ZeroDivisionError):
            one_minus_inverse(RootOfUnity(1, 0))


class TestCharacters:
    def test_induced_decomposition_identity(self):
        # L = Z, sublattice 3Z with trivial character: the three extensions
        # sum to 3 on 3Z and 0 elsewhere
        chi = LatticeCharacter.trivial([[3]])
        exts = induced_character_decompose([[1]], chi)
        assert len(exts) == 3
        for x in range(-6, 7):
            s = sum(complex(e.eval([x]).to_complex()) for e in exts)
            expected = 3.0 if x % 3 == 0 else 0.0
            assert close(s, expected, 1e-9)

    def test_induced_decomposition_2d(self):
        # index-2 sublattice of Z^2
        chi = LatticeCharacter.trivial([[1, 1], [0, 2]])
        exts = induced_character_decompose([[1, 0], [0, 1]], chi)
        assert len(exts) == 2
        for x in itertools.product(range(-3, 4), repeat=2):
            s = sum(complex(e.eval(list(x)).to_complex()) for e in exts)
            inside = (x[0] + x[1]) % 2 == 0
            assert close(s, 2.0 if inside else 0.0, 1e-9)

    def test_induced_nontrivial_character(self):
        chi = LatticeCharacter([[2]], 2, [1])  # chi(2k) = (-1)^k
        exts = induced_character_decompose([[1]], chi)
        assert len(exts) == 2
        for x in range(-4, 5):
            s = sum(complex(e.eval([x]).to_complex()) for e in exts)
            expected = 2 * (-1) ** (x // 2) if x % 2 == 0 else 0.0
            assert close(s, expected, 1e-9)

    def test_restrict(self):
        chi = LatticeCharacter([[1]], 4, [1])
        sub = restrict_character(chi, [[2]])
        assert close(sub.eval([2]).to_complex(), chi.eval([2]).to_complex())


def test_rational_round_trip():
    for q in [Fraction(3, 7), Fraction(-2), Fraction(0), Fraction(10, 4)]:
        assert rational_from_str(rational_to_str(q)) == q


def test_euler_phi():
    assert [euler_phi(n) for n in (1, 2, 3, 4, 6, 12)] == [1, 1, 2, 2, 2, 4]
