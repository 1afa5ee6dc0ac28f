import itertools
import math

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from conezeta.exact import CycloNumber, RootOfUnity, nth_roots
from conezeta.polylog import (DivergentResult, PNormalForm, ZExpression,
                              MZVSymbol, mzv_symbol_from_word, shuffle,
                              word_is_convergent, multiply_factor,
                              integrate_P, word_value_series, pnf_value,
                              word_regularization, word_germ,
                              regularize_limit, _partial_fractions,
                              _pole_key)
from conezeta.numeric import eval_word, eval_zexpr

W0 = None
W1 = RootOfUnity(1, 0)
WM1 = RootOfUnity(2, 1)
ONE = CycloNumber.from_rational(1, 1)

_WV_CACHE = {}


def wv(word, y, nterms=3000):
    key = (tuple(word), y, nterms)
    if key not in _WV_CACHE:
        _WV_CACHE[key] = word_value_series(word, y, nterms)
    return _WV_CACHE[key]


def words_up_to(weight, letters=(W0, W1, WM1)):
    """All nonempty words of weight <= `weight` not ending in dt/t."""
    out = []
    for n in range(1, weight + 1):
        for w in itertools.product(letters, repeat=n):
            if w[-1] is not None:
                out.append(w)
    return out


class TestWords:
    def test_convergence_predicate(self):
        assert word_is_convergent(())
        assert word_is_convergent((W0, W1))
        assert word_is_convergent((WM1,))
        assert not word_is_convergent((W1,))
        assert not word_is_convergent((W1, WM1))

    def test_shuffle_counts(self):
        u, v = (W0, W1), (WM1,)
        out = shuffle(u, v)
        assert sum(out.values()) == math.comb(3, 1)
        assert shuffle((W1,), (W1,)) == {(W1, W1): 2}

    def test_shuffle_homomorphism_numeric(self):
        # I(y; u) I(y; v) = sum of I(y; w) over the shuffle u sh v
        y = 0.9
        small = words_up_to(2)
        for u in small:
            for v in small:
                if len(u) + len(v) > 3:
                    continue
                lhs = wv(u, y) * wv(v, y)
                rhs = sum(c * wv(w, y) for w, c in shuffle(u, v).items())
                assert abs(lhs - rhs) < 1e-5, (u, v)

    def test_zexpression_shuffle_product(self):
        a = ZExpression.from_word((W0, W1))
        b = ZExpression.from_word((WM1,))
        prod = a * b
        expected = shuffle((W0, W1), (WM1,))
        assert set(prod.terms) == set(expected)
        for w, c in expected.items():
            assert (prod.terms[w] - CycloNumber.from_rational(c, 1)).is_zero()


class TestMZVDictionary:
    def test_zeta2_word(self):
        coeff, sym = mzv_symbol_from_word((W0, W1))
        assert coeff.is_one()
        assert sym == MZVSymbol((2,), (W1,))

    def test_alternating_weight_one(self):
        coeff, sym = mzv_symbol_from_word((WM1,))
        assert coeff == WM1  # (-1)^(-1) = -1
        assert sym == MZVSymbol((1,), (WM1,))
        # I(1; w_{-1}) = log 2
        r = eval_word((WM1,))
        assert abs(r.value - math.log(2)) < 1e-8

    def test_depth_two(self):
        coeff, sym = mzv_symbol_from_word((W0, WM1, W1))
        assert sym == MZVSymbol((1, 2), (W1, WM1))

    def test_divergent_word_rejected(self):
        with pytest.raises(ValueError):
            mzv_symbol_from_word((W1, W0, W1))

    def test_word_value_matches_series_near_one(self):
        for w in [(W0, W1), (W0, WM1), (WM1, W1)]:
            r = eval_word(w)
            approx = wv(w, 0.99999, 300000)
            assert abs(r.value - approx) < 2e-4, w


class TestMultiplyFactor:
    CASES = [
        (W1, 1, 1, 1), (W1, 2, 1, 1), (WM1, 1, 2, 1), (WM1, 2, 2, 2),
        (W1, 1, 2, 2), (RootOfUnity(3, 1), 1, 1, 1), (W1, 1, 0, 1),
    ]

    def test_product_identity_numeric(self):
        y = 0.7
        pnf = PNormalForm.one()
        direct = 1.0 + 0j
        for root, c, mu, s in self.CASES:
            pnf = multiply_factor(pnf, root, c, mu, s)
            u = complex(root.to_complex()) * y ** c
            direct *= u ** s / (1.0 - u) ** mu
        got = pnf_value(pnf, y, nterms=3000)
        assert abs(got - direct) < 1e-9

    def test_normal_form_shape(self):
        pnf = PNormalForm.one()
        for root, c, mu, s in self.CASES:
            pnf = multiply_factor(pnf, root, c, mu, s)
        for (pole, word) in pnf.terms:
            e, m = pole
            assert (e is None) == (m == 0)
            assert not word or word[-1] is not None


class TestPartialFractions:
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_decomposition_matches_the_product(self, data):
        # the c-th roots of a root of order <= 6, as multiply_factor makes
        # them, and one more root of order <= 6
        def root():
            N = data.draw(st.integers(1, 6))
            return RootOfUnity(N, data.draw(st.integers(0, N - 1)))

        roots = set(nth_roots(root(), data.draw(st.integers(1, 3))))
        roots.add(root())
        poles = _pole_key((b, data.draw(st.integers(1, 3))) for b in roots)
        degree = sum(m for _, m in poles)
        for j in range(degree + 1):
            parts = _partial_fractions(j, poles)
            for y in (0.3, -0.55, 0.8j):
                want = y ** j
                for b, m in poles:
                    want /= (1 - b.to_complex() * y) ** m
                got = sum(c.to_complex() * (1 if b is None else
                                            (1 - b.to_complex() * y) ** -k)
                          for (b, k), c in parts)
                assert abs(got - want) < 1e-9 * max(1, abs(want)), (j, y)
        with pytest.raises(AssertionError):
            _partial_fractions(degree + 1, poles)

    def test_two_simple_poles_exactly(self):
        # 1/((1-ay)(1-by)) = c_a/(1-ay) + c_b/(1-by) holds exactly iff
        # c_a + c_b = 1 and c_a b + c_b a = 0, for every ordered pair of
        # distinct roots of order <= 12
        roots = [RootOfUnity(n, k) for n in range(1, 13) for k in range(n)
                 if math.gcd(n, k) == 1]
        pairs = list(itertools.permutations(roots, 2))
        assert len(pairs) == 2070
        for a, b in pairs:
            parts = dict(_partial_fractions(0, _pole_key(((a, 1), (b, 1)))))
            assert set(parts) == {(a, 1), (b, 1)}
            ca, cb = parts[(a, 1)], parts[(b, 1)]
            assert ca + cb == 1
            assert (ca * b.to_cyclo() + cb * a.to_cyclo()).is_zero()

    def test_cached_value_is_not_mutated(self):
        pnf = multiply_factor(PNormalForm.one(), WM1, 1, 2, 1)
        first, second = (multiply_factor(pnf, RootOfUnity(3, 1), 2, 1, 1)
                         for _ in range(2))
        assert ({k: z.terms for k, z in first.terms.items()}
                == {k: z.terms for k, z in second.terms.items()})


class TestIntegrateP:
    def test_dt_over_t_double_pole_against_quadrature(self):
        # int_0^y log(1+t) / (t (1-t)^2) dt, since I(t; w_{-1}) = log(1+t)
        pnf = PNormalForm({((W1, 2), (WM1,)): ZExpression.one()})
        out = integrate_P(pnf)
        y = 0.5
        got = pnf_value(out, y, nterms=3000)
        want = mp.quad(lambda t: mp.log(1 + t) / (t * (1 - t) ** 2), [0, y])
        assert abs(got - complex(want)) < 1e-8

    def test_dt_over_t_double_pole_on_a_dt_over_t_word(self):
        # I(t; 0, w_{-1}) = -Li2(-t): the pole integral of a word that
        # starts with dt/t
        pnf = PNormalForm({((W1, 2), (W0, WM1)): ZExpression.one()})
        out = integrate_P(pnf)
        y = 0.5
        got = pnf_value(out, y, nterms=3000)
        want = mp.quad(lambda t: -mp.polylog(2, -t) / (t * (1 - t) ** 2),
                       [0, y])
        assert abs(got - complex(want)) < 1e-8

    def test_dt_over_t_prepends_letter(self):
        pnf = PNormalForm({((None, 0), (W1,)): ZExpression.one()})
        out = integrate_P(pnf)
        assert set(out.terms) == {((None, 0), (W0, W1))}

    def test_dt_over_t_with_pole_cancellation(self):
        # (1/(1-t) - 1)/t integrates to -log(1-y)
        pnf = PNormalForm({((W1, 1), ()): ZExpression.one(),
                           ((None, 0), ()): -ZExpression.one()})
        out = integrate_P(pnf)
        y = 0.6
        got = pnf_value(out, y, nterms=3000)
        assert abs(got - (-math.log(1 - y))) < 1e-10

    def test_dt_over_t_divergent_at_zero(self):
        with pytest.raises(DivergentResult):
            integrate_P(PNormalForm.one())


class TestGermsAndRegularization:
    def test_shuffle_regularization_of_log(self):
        reg = word_regularization((W1,))
        assert reg.get(0, ZExpression()).is_zero()
        assert not reg[1].is_zero()

    def test_germ_extrapolation_matches_series(self):
        # evaluate the order-3 germ at s = 1-y and compare with the power
        # series; covers divergent words too via the log layers
        y = 0.99
        s = 1.0 - y
        T = -math.log(s)
        for w in words_up_to(3):
            germ = word_germ(w, 3)
            pred = 0j
            for (a, i), c in germ.items():
                pred += eval_zexpr(c).value * s ** a * T ** i
            truth = wv(w, y, 40000)
            assert abs(pred - truth) < 1e-5, w

    def test_regularize_dilogarithm(self):
        pnf = PNormalForm({((None, 0), (W0, W1)): ZExpression.one()})
        val = regularize_limit(pnf)
        assert set(val.terms) == {(W0, W1)}
        r = eval_zexpr(val)
        assert abs(r.value - math.pi ** 2 / 6) < 1e-9

    def test_regularize_rejects_pole(self):
        pnf = PNormalForm({((W1, 1), ()): ZExpression.one()})
        with pytest.raises(DivergentResult):
            regularize_limit(pnf)

    def test_regularize_log_layer_detected(self):
        # (Li_2(y) - zeta(2))/(1-y) = log(1-y) - 1 + O(s log s): the pole
        # cancels but a log layer survives, so the limit must be refused
        z2 = ZExpression.from_word((W0, W1))
        pnf = PNormalForm({((W1, 1), (W0, W1)): ZExpression.one(),
                           ((W1, 1), ()): -z2})
        with pytest.raises(DivergentResult):
            regularize_limit(pnf)

    def test_regularize_log_layer_cancellation(self):
        # adding log(1-y) = -I(y; w_1) kills the log layer; the limit is -1
        z2 = ZExpression.from_word((W0, W1))
        pnf = PNormalForm({((W1, 1), (W0, W1)): ZExpression.one(),
                           ((W1, 1), ()): -z2,
                           ((None, 0), (W1,)): ZExpression.one()})
        val = regularize_limit(pnf)
        assert abs(eval_zexpr(val).value - (-1.0)) < 1e-9
