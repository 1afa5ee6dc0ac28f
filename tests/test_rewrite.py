import itertools
import random
from fractions import Fraction

import numpy as np

from conezeta.exact import CycloNumber, RootOfUnity, LatticeCharacter
from conezeta.geometry import SimplicialCone
from conezeta.derivation import build_derived_sequences, primitive_rescale
from conezeta.linalg import primitive_int_vector
from conezeta.rewrite import (FactorTerm, Integrand, ReductionTrace,
                              integral_expression, convergence_check,
                              root_split, change_coordinates, normalize_term,
                              partial_fraction_pair, uni_factorize,
                              integrand_series, series_equal)

ONE = CycloNumber.from_rational(1, 1)
DEG = 6


def random_root(rnd):
    N = rnd.choice([1, 2, 3, 4])
    return RootOfUnity(N, rnd.randrange(N))


def random_factor(rnd, nvars, max_exp=2):
    while True:
        exps = tuple(rnd.randint(0, max_exp) for _ in range(nvars))
        if any(exps):
            break
    mu = rnd.randint(0, 2)
    s = rnd.randint(1, mu) if mu else 1
    return FactorTerm(random_root(rnd), exps, mu, s)


def units(d):
    """The unit generators of the coordinate orthant in dimension d."""
    return [tuple(int(i == j) for j in range(d)) for i in range(d)]


def as_integrands(terms, nvars):
    return [Integrand(c, fl, nvars) for c, fl in terms]


class TestNormalizeTerm:
    def test_value_preserved_100_random(self):
        rnd = random.Random(10)
        for _ in range(100):
            nvars = rnd.randint(1, 3)
            factors = [random_factor(rnd, nvars)
                       for _ in range(rnd.randint(1, 3))]
            out = normalize_term(ONE, factors)
            assert series_equal([Integrand(ONE, factors, nvars)],
                                as_integrands(out, nvars), DEG)
            # postconditions: poles carry numerator power 1, keys unique
            for c0, fl in out:
                keys = [f.key() for f in fl]
                assert len(keys) == len(set(keys))
                for f in fl:
                    assert f.s >= 1
                    assert f.mu == 0 or f.s == 1


class TestPartialFractionPair:
    def random_pair(self, rnd, nvars):
        lead = rnd.randrange(nvars)
        expsA = [0] * nvars
        expsA[lead] = 1
        for i in range(lead + 1, nvars):
            expsA[i] = rnd.randint(0, 2)
        expsB = list(expsA)
        for i in range(lead + 1, nvars):
            expsB[i] += rnd.randint(0, 2)
        A = FactorTerm(random_root(rnd), tuple(expsA), rnd.randint(1, 3), 1)
        B = FactorTerm(random_root(rnd), tuple(expsB), rnd.randint(1, 3), 1)
        return A, B

    def test_value_preserved_100_random(self):
        rnd = random.Random(20)
        count = 0
        while count < 100:
            nvars = rnd.randint(2, 3)
            A, B = self.random_pair(rnd, nvars)
            if A.exps == B.exps and A.root == B.root:
                continue
            out = partial_fraction_pair(A, B)
            assert series_equal([Integrand(ONE, [A, B], nvars)],
                                as_integrands(out, nvars), DEG)
            count += 1

    def test_same_monomial_uses_constant_coefficient(self):
        A = FactorTerm(RootOfUnity(1, 0), (1, 0), 2, 1)
        B = FactorTerm(RootOfUnity(2, 1), (1, 0), 1, 1)
        out = partial_fraction_pair(A, B)
        assert series_equal([Integrand(ONE, [A, B], 2)],
                            as_integrands(out, 2), DEG)


class TestRootSplit:
    def test_value_preserved_100_random(self):
        rnd = random.Random(30)
        for _ in range(100):
            nvars = rnd.randint(1, 3)
            while True:
                prim = tuple(rnd.randint(0, 2) for _ in range(nvars))
                if any(prim):
                    break
            c = rnd.randint(1, 3)
            root = random_root(rnd)
            whole = FactorTerm(root, tuple(c * x for x in prim), 1, 1)
            out = root_split(root, prim, c)
            assert series_equal([Integrand(ONE, [whole], nvars)],
                                as_integrands(out, nvars), DEG)
            # one pole b*w/(1-b*w) per root b of e, each with coefficient 1/c
            assert len(out) == c
            assert all(coeff == Fraction(1, c) and len(fl) == 1
                       for coeff, fl in out)


class TestUniFactorize:
    def random_integrand(self, rnd):
        # two variables with leading exponent 1: exponent differences of any
        # clashing pair are automatically sign-definite
        factors = []
        for _ in range(rnd.randint(2, 4)):
            if rnd.random() < 0.7:
                exps = (1, rnd.randint(0, 3))
            else:
                exps = (0, 1)
            factors.append(FactorTerm(random_root(rnd), exps, 1, 1))
        return Integrand(ONE, factors, 2)

    def test_value_preserved_and_uni_100_random(self):
        rnd = random.Random(40)
        for _ in range(100):
            I = self.random_integrand(rnd)
            out = uni_factorize(I)
            assert series_equal([I], out, DEG)
            for J in out:
                leads = [f.leading() for f in J.factors if f.mu >= 1]
                assert len(leads) == len(set(leads))

    def test_pipeline_generated_three_variable_instance(self):
        chi = LatticeCharacter.trivial([[1, 0], [0, 1]])
        forms = [(1, 0), (1, 1), (1, 1)]
        I = integral_expression([[1, 0], [0, 1]], forms, chi)
        for ds, J in _orthant_pieces(I):
            out = uni_factorize(J)
            assert series_equal([J], out, DEG)
            for K in out:
                leads = [f.leading() for f in K.factors if f.mu >= 1]
                assert len(leads) == len(set(leads))

    def test_trace_replay(self):
        rnd = random.Random(41)
        I = self.random_integrand(rnd)
        trace = ReductionTrace()
        uni_factorize(I, trace=trace)
        assert len(trace) > 0
        assert trace.replay()


def _orthant_pieces(I):
    sforms = {}
    for f in I.factors:
        sforms.setdefault(primitive_int_vector(f.exps), f.exps)
    n = I.nvars
    orth = SimplicialCone([tuple(1 if i == j else 0 for j in range(n))
                           for i in range(n)])
    pieces = [primitive_rescale(ds)[1]
              for ds in build_derived_sequences(orth, list(sforms.values()))]
    return list(zip(pieces, change_coordinates(I, pieces)))


class TestIntegralExpression:
    def test_zeta2_shape(self):
        chi = LatticeCharacter.trivial([[1]])
        I = integral_expression([[1]], [(1,), (1,)], chi)
        assert I.nvars == 2
        assert len(I.factors) == 1
        assert I.factors[0].exps == (1, 1)

    def test_series_matches_defining_sum(self):
        # coefficient of y1^i y2^j counts lattice points with form values
        # (i, j); for generators [[1]], forms x, x that is [i == j >= 1]
        chi = LatticeCharacter.trivial([[1]])
        I = integral_expression([[1]], [(1,), (1,)], chi)
        terms = integrand_series(I, DEG)
        for mono, c in terms.items():
            i, j = mono
            expected = 1 if (i == j and i >= 1) else 0
            assert (c - CycloNumber.from_rational(expected, 1)).is_zero()

    def test_rational_generators_scale_coefficient(self):
        chi = LatticeCharacter.trivial([[Fraction(1, 2)]])
        I = integral_expression([[Fraction(1, 2)]],
                                [(1,), (1,)], chi)
        # clearing the 1/2 scales both forms by 2, so the coefficient
        # compensates by 4
        assert (I.coeff - CycloNumber.from_rational(4, 1)).is_zero()
        assert I.factors[0].exps == (1, 1)


class TestChangeCoordinates:
    def test_pointwise_substitution_identity(self):
        # with x = y^A (multiplicative substitution by the piece matrix A),
        # the integrand on a piece must equal |det A| * I(x)
        from conezeta.numeric import integrand_eval
        from conezeta.linalg import mat_det
        chi = LatticeCharacter.trivial([[1, 0], [0, 1]])
        forms = [(1, 0), (1, 1), (1, 1)]
        I = integral_expression([[1, 0], [0, 1]], forms, chi)
        out = _orthant_pieces(I)
        assert len(out) >= 2
        rnd = random.Random(7)
        n = I.nvars
        for ds, J in out:
            gens = ds.generators
            A = [[Fraction(g[i]) for g in gens] for i in range(n)]
            jac = abs(mat_det(A))
            for _ in range(25):
                y = [rnd.uniform(0.05, 0.9) for _ in range(n)]
                x = [float(np.prod([y[k] ** float(A[i][k])
                                    for k in range(n)])) for i in range(n)]
                lhs = integrand_eval(J, y)
                rhs = float(jac) * integrand_eval(I, x)
                assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


class TestConvergenceCheckP3:
    """Exhaustive agreement with a brute-force partial-sum probe on all
    form multisets with at most 4 forms, coefficients in {0, 1, 2}, in
    ambient dimension at most 2."""

    @staticmethod
    def brute_force_converges(rows, d, R=320):
        if d == 1:
            a = np.arange(1, R + 1, dtype=float)
            den = np.ones_like(a)
            for r in rows:
                den *= r[0] * a
            vals = 1.0 / den
            s1 = vals[: R // 4].sum()
            s2 = vals[: R // 2].sum()
            s3 = vals.sum()
        else:
            a1, a2 = np.meshgrid(np.arange(1, R + 1, dtype=float),
                                 np.arange(1, R + 1, dtype=float),
                                 indexing="ij")
            den = np.ones_like(a1)
            for r in rows:
                den *= (r[0] * a1 + r[1] * a2)
            vals = 1.0 / den
            box = np.maximum(a1, a2)
            s1 = vals[box <= R // 4].sum()
            s2 = vals[box <= R // 2].sum()
            s3 = vals.sum()
        # convergent tails shrink by at least ~2x per doubling here;
        # divergent ones (at worst logarithmic) do not shrink at all
        return s3 - s2 < 0.8 * (s2 - s1)

    def test_exhaustive_family(self):
        for d in (1, 2):
            if d == 1:
                alphabet = [(1,), (2,)]
            else:
                alphabet = [v for v in itertools.product((0, 1, 2), repeat=2)
                            if any(v)]
            checked = 0
            for n in range(1, 5):
                for rows in itertools.combinations_with_replacement(
                        alphabet, n):
                    predicted = convergence_check(units(d), rows)
                    actual = self.brute_force_converges(rows, d)
                    assert predicted == actual, (d, rows)
                    checked += 1
            assert checked > (2 if d == 1 else 100)
