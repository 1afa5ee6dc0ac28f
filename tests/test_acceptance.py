"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Z1-Z5 run the full reduction pipeline on fixed configurations and compare
against closed forms or direct summation; P1-P5 are the property criteria
(the heavy instance loops live in the per-module test files and are
re-exercised here in compressed form at the pinned tolerances).
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from conezeta.exact import CycloNumber, RootOfUnity, LatticeCharacter
from conezeta.derivation import build_derived_sequences, primitive_rescale
from conezeta.rewrite import (FactorTerm, Integrand, normalize_term,
                              partial_fraction_pair, root_split,
                              uni_factorize, convergence_check, series_equal)
from conezeta.polylog import DivergentResult, shuffle, word_germ, \
    word_value_series
from conezeta.pipeline import reduce_cone_zeta
from conezeta.numeric import eval_zexpr, eval_cone_zeta

from test_rewrite import (random_factor, random_root, as_integrands, units,
                          TestPartialFractionPair as _PairHelper,
                          TestConvergenceCheckP3 as _ProbeHelper)
from test_derivation import random_instance
from test_polylog import words_up_to, wv

ONE = CycloNumber.from_rational(1, 1)
W1 = RootOfUnity(1, 0)
ZETA2 = math.pi ** 2 / 6
ZETA3 = 1.2020569031595942854


def report(name, ok, detail):
    print("%s: %s (%s)" % (name, "PASS" if ok else "FAIL", detail))
    assert ok, "%s: %s" % (name, detail)


class TestZValues:
    def test_Z1_zeta2(self):
        t0 = time.time()
        res = reduce_cone_zeta([[1]], [(1,), (1,)])
        val = eval_zexpr(res.value).value
        dt = time.time() - t0
        diff = abs(val - ZETA2)
        report("Z1", diff < 1e-6 and dt < 10,
               "diff=%.2e tol=1e-6, %.1fs limit 10s" % (diff, dt))

    def test_Z2_zeta3(self):
        t0 = time.time()
        res = reduce_cone_zeta([[1, 0], [0, 1]], [(1, 0), (1, 1), (1, 1)])
        val = eval_zexpr(res.value).value
        dt = time.time() - t0
        diff = abs(val - ZETA3)
        report("Z2", diff < 1e-5 and dt < 60,
               "diff=%.2e tol=1e-5, %.1fs limit 60s" % (diff, dt))

    def test_Z3_zeta2_squared(self):
        res = reduce_cone_zeta([[1, 0], [0, 1]],
                               [(1, 0), (1, 0), (0, 1), (0, 1)])
        val = eval_zexpr(res.value).value
        diff = abs(val - ZETA2 ** 2)
        report("Z3", diff < 1e-5, "diff=%.2e tol=1e-5" % diff)

    def test_Z4_alternating(self):
        chi = LatticeCharacter([[1]], 2, [1])
        res = reduce_cone_zeta([[1]], [(1,), (1,)], character=chi)
        val = eval_zexpr(res.value).value
        diff = abs(val + math.pi ** 2 / 12)
        report("Z4", diff < 1e-6, "diff=%.2e tol=1e-6" % diff)

    def test_Z5_nonunimodular_vs_direct(self):
        gens = [[1, 0], [1, 2]]
        forms = [(1, 0), (1, 1), (1, 1)]
        res = reduce_cone_zeta(gens, forms)
        val = eval_zexpr(res.value).value
        direct = eval_cone_zeta(gens, forms, radius=1000).value
        diff = abs(val - direct)
        report("Z5", diff < 1e-4, "diff=%.2e tol=1e-4" % diff)


class TestProperties:
    def test_P1_rewrite_rules_preserve_series(self):
        rnd = random.Random(100)
        checked = {"normalize_term": 0, "partial_fraction_pair": 0,
                   "root_split": 0, "uni_factorize": 0}
        helper = _PairHelper()
        while min(checked.values()) < 100:
            nvars = rnd.randint(2, 3)
            # normalize_term
            factors = [random_factor(rnd, nvars)
                       for _ in range(rnd.randint(1, 3))]
            out = normalize_term(ONE, factors)
            assert series_equal([Integrand(ONE, factors, nvars)],
                                as_integrands(out, nvars), 6)
            checked["normalize_term"] += 1
            # partial_fraction_pair
            A, B = helper.random_pair(rnd, nvars)
            if not (A.exps == B.exps and A.root == B.root):
                out = partial_fraction_pair(A, B)
                assert series_equal([Integrand(ONE, [A, B], nvars)],
                                    as_integrands(out, nvars), 6)
                checked["partial_fraction_pair"] += 1
            # root_split
            prim = tuple(rnd.randint(0, 1) for _ in range(nvars - 1)) + (1,)
            c = rnd.randint(1, 3)
            root = random_root(rnd)
            whole = FactorTerm(root, tuple(c * x for x in prim), 1, 1)
            out = root_split(root, prim, c)
            assert series_equal([Integrand(ONE, [whole], nvars)],
                                as_integrands(out, nvars), 6)
            checked["root_split"] += 1
            # uni_factorize (two variables keep clash deltas sign-definite)
            fl = [FactorTerm(random_root(rnd), (1, rnd.randint(0, 3)), 1, 1)
                  for _ in range(rnd.randint(2, 3))]
            I = Integrand(ONE, fl, 2)
            out = uni_factorize(I)
            assert series_equal([I], out, 6)
            checked["uni_factorize"] += 1
        report("P1", True, "series preserved to degree 6, %s" % checked)

    def test_P2_derived_sequences_validate(self):
        rnd = random.Random(200)
        total = 0
        for case in range(50):
            n = rnd.randint(1, 3)
            cone, forms = random_instance(rnd, n)
            for ds in build_derived_sequences(cone, forms):
                assert ds.validate() == []
                assert ds.sign_pattern_ok()
                rescaled = primitive_rescale(ds)[1]
                assert rescaled.validate() == []
                total += 1
        report("P2", True,
               "validator + sign pattern on %d sequences from 50 inputs"
               % total)

    def test_P3_convergence_criterion_exhaustive(self):
        probe = _ProbeHelper.brute_force_converges
        checked = 0
        for d in (1, 2):
            alphabet = [v for v in itertools.product((0, 1, 2), repeat=d)
                        if any(v)]
            if d == 1:
                alphabet = [(1,), (2,)]
            for n in range(1, 5):
                for rows in itertools.combinations_with_replacement(
                        alphabet, n):
                    assert convergence_check(units(d), rows) \
                        == probe(rows, d), rows
                    checked += 1
        report("P3", True, "%d form families agree with brute force"
               % checked)

    def test_P4_shuffle_and_regularization(self):
        y = 0.9
        pairs = 0
        small = words_up_to(2)
        for u in small:
            for v in small:
                if len(u) + len(v) > 3:
                    continue
                lhs = wv(u, y) * wv(v, y)
                rhs = sum(c * wv(w, y) for w, c in shuffle(u, v).items())
                assert abs(lhs - rhs) < 1e-5, (u, v)
                pairs += 1
        worst = 0.0
        s = 0.01
        T = -math.log(s)
        for w in words_up_to(3):
            germ = word_germ(w, 3)
            pred = sum(eval_zexpr(c).value * s ** a * T ** i
                       for (a, i), c in germ.items())
            truth = word_value_series(w, 1.0 - s, 40000)
            worst = max(worst, abs(pred - truth))
        report("P4", worst < 1e-5,
               "%d shuffle pairs at 1e-5; germ extrapolation worst=%.2e"
               % (pairs, worst))

    def test_P5_divergent_rejected_before_reduction(self):
        jobs = [
            ([[1]], [(1,)]),                       # harmonic
            ([[1, 0], [0, 1]], [(1, 0), (1, 1)]),  # zeta(1,1) shape
        ]
        for gens, forms in jobs:
            with pytest.raises(DivergentResult):
                reduce_cone_zeta(gens, forms)
        report("P5", True, "harmonic and zeta(1,1)-shape jobs rejected")
