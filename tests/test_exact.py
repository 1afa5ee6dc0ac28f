import cmath
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conezeta.exact import (CycloNumber, RootOfUnity, LatticeCharacter,
                            nth_roots, euler_phi, restrict_character,
                            induced_character_decompose, rational_to_str,
                            rational_from_str)

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
        assert (x * x.inverse() - ONE).is_zero()

    @given(a=rationals, b=rationals, c=rationals)
    @settings(max_examples=50, deadline=None)
    def test_field_axioms_in_q_zeta3(self, a, b, c):
        z = CycloNumber.zeta(3)
        x = CycloNumber.from_rational(a, 3) + z * CycloNumber.from_rational(b, 3)
        y = CycloNumber.from_rational(c, 3) + z
        assert ((x + y) - (y + x)).is_zero()
        assert ((x * y) - (y * x)).is_zero()
        if not x.is_zero():
            assert (x * x.inverse() - ONE.embed(3)).is_zero()

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
    def test_inverse_stays_in_its_field(self, data):
        N = data.draw(st.integers(1, 24))
        x = CycloNumber(N, data.draw(st.lists(
            rationals, min_size=euler_phi(N), max_size=euler_phi(N))))
        if x.is_zero():
            with pytest.raises(ZeroDivisionError):
                x.inverse()
            return
        inv = x.inverse()
        assert inv.N == x.N
        assert all(type(c) is Fraction for c in inv.coords)
        assert x * inv == 1

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
                          (q + x, Q + x), (x - q, x - Q)):
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
