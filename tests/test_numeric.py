import ast
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conezeta.exact import CycloNumber, RootOfUnity, LatticeCharacter
from conezeta.linalg import mat_det
from conezeta.polylog import ZExpression
from conezeta.rewrite import integral_expression
from conezeta.numeric import (eval_mzv, eval_word, eval_zexpr,
                              zexpr_zero_check, eval_cone_zeta,
                              quad_check, _tail_bound, _character_values)

W0 = None
W1 = RootOfUnity(1, 0)
WM1 = RootOfUnity(2, 1)

ZETA2 = math.pi ** 2 / 6
ZETA3 = 1.2020569031595942854
ZETA4 = math.pi ** 4 / 90


class TestEvalMZV:
    def test_known_values(self):
        cases = [
            ((2,), (W1,), ZETA2),
            ((3,), (W1,), ZETA3),
            ((4,), (W1,), ZETA4),
            ((2,), (WM1,), -math.pi ** 2 / 12),
            ((1,), (WM1,), -math.log(2)),
            ((1, 2), (W1, W1), ZETA3),  # Euler's sum
        ]
        for ks, eps, want in cases:
            r = eval_mzv(ks, eps)
            assert abs(r.value - want) < 1e-9, (ks, want)
            assert abs(r.value.imag) < 1e-10

    def test_error_estimates_honest(self):
        # coarse evaluations must cover their distance to a fine one
        for ks, eps in [((2,), (W1,)), ((1, 2), (W1, W1)),
                        ((1, 1, 1), (W1, W1, WM1)), ((1, 2), (WM1, W1))]:
            fine = eval_mzv(ks, eps, terms=3_000_000)
            for terms in (50_000, 200_000):
                coarse = eval_mzv(ks, eps, terms)
                gap = abs(coarse.value - fine.value)
                assert gap <= coarse.error + fine.error + 1e-12, (ks, terms)

    def test_weight_four_euler_identity(self):
        # 4*zeta(1,3) + 2*zeta(2,2) = zeta(2)^2
        a = eval_mzv((1, 3), (W1, W1))
        b = eval_mzv((2, 2), (W1, W1))
        assert abs(4 * a.value + 2 * b.value - ZETA2 ** 2) < 1e-8

    def test_zero_check_on_relation(self):
        # -zeta(2) + 2 * I(w_0 w_{-1}) = 0  (dilogarithm at -1)
        zx = (ZExpression.from_word((W0, WM1)).scale(2)
              - ZExpression.from_word((W0, W1)))
        assert zexpr_zero_check()(zx)
        assert not zexpr_zero_check()(ZExpression.from_word((W0, W1)))
        # zeta(2) - 1.6449340 is about 6.7e-8, just above tol = 1e-8
        near = ZExpression.from_word((W0, W1)) - ZExpression.from_cyclo(
            CycloNumber.from_rational(Fraction(16449340, 10 ** 7)))
        assert abs(eval_zexpr(near).value) < 1e-7
        assert not zexpr_zero_check()(near)


def mp_root(eta):
    return mpmath.expjpi(mpmath.mpf(2 * eta.exp) / eta.order)


def mp_li(k, eta):
    """Li_k(eta) = zeta(k; eta) from mpmath closed forms."""
    if eta.is_one():
        return mpmath.zeta(k)
    if k == 1:
        return -mpmath.log(1 - mp_root(eta))
    return mpmath.polylog(k, mp_root(eta))


class TestHonestBounds:
    """|value - truth| <= error against mpmath, with a small finite error."""

    def check(self, r, truth, what):
        assert math.isfinite(r.error) and r.error <= 1e-12, (what, r)
        assert abs(r.value - complex(truth)) <= r.error, (what, r, truth)

    def test_depth_one_closed_forms(self):
        rng = random.Random(1)
        with mpmath.workdps(30):
            for N in range(1, 61):
                for j in sorted({1 % N, rng.randrange(N)}):
                    eta = RootOfUnity(N, j)
                    for k in (1, 2, 3, 5):
                        if k == 1 and eta.is_one():
                            continue
                        self.check(eval_mzv((k,), (eta,)), mp_li(k, eta),
                                   (k, eta))

    def test_depth_two_and_three_zeta_values(self):
        with mpmath.workdps(30):
            z3, z6 = mpmath.zeta(3), mpmath.zeta(6)
            cases = [
                ((1, 2), z3),  # Euler: zeta(2,1) = zeta(3)
                ((1, 1, 4), mpmath.mpf(23) / 16 * z6 - z3 ** 2),
                ((2, 2, 2), mpmath.pi ** 6 / mpmath.factorial(7)),
            ]
            for ks, truth in cases:
                self.check(eval_mzv(ks, (W1,) * len(ks)), truth, ks)

    def test_stuffle_at_roots_of_unity(self):
        # Li_a(x) Li_b(y) = Li_(a,b)(x,y) + Li_(b,a)(y,x) + Li_(a+b)(xy),
        # Li_(a,b)(x,y) = sum over n > m > 0 of x^n y^m / (n^a m^b)
        #              = zeta(b, a; xy, x)
        rng = random.Random(2)
        with mpmath.workdps(30):
            for _ in range(25):
                x = RootOfUnity(rng.randint(1, 12), rng.randrange(12))
                y = RootOfUnity(rng.randint(1, 12), rng.randrange(12))
                a, b = rng.randint(1, 3), rng.randint(1, 3)
                if (a == 1 and x.is_one()) or (b == 1 and y.is_one()):
                    continue
                p = eval_mzv((b, a), (x * y, x))
                q = eval_mzv((a, b), (x * y, y))
                for r in (p, q):
                    assert math.isfinite(r.error) and r.error <= 1e-12
                truth = mp_li(a, x) * mp_li(b, y) - mp_li(a + b, x * y)
                assert (abs(p.value + q.value - complex(truth))
                        <= p.error + q.error), (a, b, x, y)

    def test_truncated_series_widen_the_error(self):
        with mpmath.workdps(30):
            eta = RootOfUnity(60, 1)
            for ks, eps, truth in [((2,), (W1,), mpmath.zeta(2)),
                                   ((1, 2), (W1, W1), mpmath.zeta(3)),
                                   ((2,), (eta,), mp_li(2, eta))]:
                r = eval_mzv(ks, eps, terms=5)
                assert math.isfinite(r.error) and r.error > 1e-6, ks
                assert abs(r.value - complex(truth)) <= r.error, ks

    def test_tail_bound_covers_the_majorant_sum(self):
        # sum over n > M of r^n (1+log n)^(k-1) / (n (k-1)!), summed directly
        for r in (0.5, 0.9, 0.99):
            stop = int(math.log(1e-30) / math.log(r))
            for k in (1, 3, 6, 8):
                for M in (0, 3, 60):
                    direct = math.fsum(
                        r ** n * (1 + math.log(n)) ** (k - 1)
                        / (n * math.factorial(k - 1))
                        for n in range(M + 1, stop))
                    assert direct <= _tail_bound(r, k, M), (r, k, M)


def conezeta_imports(tree):
    """conezeta modules a module imports, relatively or absolutely."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            mods = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ("conezeta." if node.level else "") + (node.module or "")
            mods = [base.rstrip(".") + "." + a.name for a in node.names]
            mods += [base] if node.module else []
        else:
            continue
        for mod in mods:
            parts = mod.split(".")
            if parts[0] == "conezeta" and len(parts) > 1:
                yield parts[1]


def test_oracle_is_independent_of_the_reduction():
    """numeric, and every conezeta module it imports, stays clear of the
    reduction modules rewrite, pipeline and derivation."""
    pkg = os.path.join(os.path.dirname(__file__), os.pardir, "src",
                       "conezeta")
    seen, todo = set(), ["numeric"]
    while todo:
        mod = todo.pop()
        if mod in seen or not os.path.exists(os.path.join(pkg, mod + ".py")):
            continue
        seen.add(mod)
        with open(os.path.join(pkg, mod + ".py")) as fh:
            todo.extend(conezeta_imports(ast.parse(fh.read())))
    assert "numeric" in seen and "polylog" in seen, seen
    assert not seen & {"rewrite", "pipeline", "derivation"}, seen


def test_numpy_stays_off_the_import_path():
    """Only direct summation needs numpy, so importing the CLI (and every
    module it imports) does not load it."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                       "src")
    code = "import sys, conezeta.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "False"


class TestEvalWord:
    def test_dilogarithm_words(self):
        # I(1; w_0 w_e) = (1/e) Li_2(e)
        assert abs(eval_word((W0, W1)).value - ZETA2) < 1e-9
        assert abs(eval_word((W0, WM1)).value - math.pi ** 2 / 12) < 1e-9
        assert abs(eval_word((W0, W0, W1)).value - ZETA3) < 1e-9


class TestEvalConeZeta:
    def test_one_dimensional_zeta(self):
        r = eval_cone_zeta([[1]], [(1,), (1,)], radius=2000)
        assert abs(r.value - ZETA2) < 1e-6

    def test_one_dimensional_alternating(self):
        chi = LatticeCharacter([[1]], 2, [1])
        r = eval_cone_zeta([[1]], [(1,), (1,)],
                           character=chi, radius=2000)
        assert abs(r.value + math.pi ** 2 / 12) < 1e-8

    @pytest.mark.parametrize("gen, forms, N, k, scale", [
        (1, [1, 1], 1, 0, 1),            # zeta(2)
        (1, [1, 1], 2, 1, 1),            # eta(2) = -Li_2(-1)
        (1, [1] * 5, 4, 1, 1),           # Li_5(i)
        (1, [1, 1, 1], 3, 1, 1),         # Li_3(zeta_3)
        (1, [1, 1], 6, 5, 1),            # Li_2(zeta_6^5)
        (-1, [-2, -1], 4, 1, 2),         # x = -k: Li_2(-i) / 2
    ])
    def test_one_dimensional_sum_is_polylog(self, gen, forms, N, k, scale):
        chi = LatticeCharacter([[1]], N, [k])
        r = eval_cone_zeta([[gen]], [(c,) for c in forms], chi)
        with mpmath.workdps(30):
            z = mpmath.exp(2j * mpmath.pi * gen * k / N)
            want = complex(mpmath.polylog(len(forms), z) / scale)
        assert abs(r.value - want) <= r.error < 1e-14

    def test_one_dimensional_divergent_or_off_lattice(self):
        with pytest.raises(ValueError):
            eval_cone_zeta([[1]], [(1,)])
        chi = LatticeCharacter([[2]], 2, [1])
        with pytest.raises(ValueError, match="not in the lattice"):
            eval_cone_zeta([[1]], [(1,), (1,)], chi)

    def test_quadrant_product(self):
        forms = [(1, 0), (1, 0), (0, 1), (0, 1)]
        r = eval_cone_zeta([[1, 0], [0, 1]], forms, radius=600)
        assert abs(r.value - ZETA2 ** 2) < 1e-4
        assert abs(r.value - ZETA2 ** 2) < r.error + 1e-6

    def test_quadrant_zeta3(self):
        forms = [(1, 0), (1, 1), (1, 1)]
        r = eval_cone_zeta([[1, 0], [0, 1]], forms, radius=600)
        assert abs(r.value - ZETA3) < 1e-3
        assert abs(r.value - ZETA3) < r.error + 1e-6


def reference_cone_zeta(generators, forms, chi, radius, refine=2):
    """eval_cone_zeta computed point by point: an exact interior test from
    the integer adjugate of the two generators, chi.eval at every point,
    and the same cut-offs, summation order and extrapolation."""
    (a, b), (c, d) = generators
    det = a * d - b * c

    def partial(R):
        chis, dens = [], []
        for x1 in range(-R, R + 1):
            for x2 in range(-R, R + 1):
                s, t = (x1 * d - x2 * c) * det, (a * x2 - b * x1) * det
                if s <= 0 or t <= 0:
                    continue
                chis.append(complex(chi.eval([x1, x2]).to_complex()))
                dens.append(math.prod(float(f0) * x1 + float(f1) * x2
                                      for f0, f1 in forms))
        return complex(np.sum(np.array(chis) / np.array(dens)))

    mod = chi.modulus
    u = max(refine * radius // (4 * mod), 1)
    S1, S2, S3 = partial(u * mod), partial(2 * u * mod), partial(4 * u * mod)
    d1, d2 = S3 - S2, S2 - S1
    if abs(d2) > 0 and abs(d1) < 0.9 * abs(d2):
        rho = d1 / d2
        corr = d1 * rho / (1 - rho)
        return S3 + corr, max(0.5 * abs(corr) + 1e-3 * abs(d1), 1e-12)
    return S3, max(2.0 * (abs(d1) + abs(d2)), 1e-12)


QUADRANT = [[1, 0], [0, 1]]
IDENT = [[1, 0], [0, 1]]


class TestCharacterGrid:
    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_lookup_equals_per_point_eval(self, data):
        m = data.draw(st.integers(1, 3))
        entry = st.integers(-4, 4)
        basis = data.draw(st.lists(st.lists(entry, min_size=m, max_size=m),
                                   min_size=m, max_size=m))
        assume(mat_det(basis) != 0)
        N = data.draw(st.integers(1, 12))
        exps = data.draw(st.lists(st.integers(-30, 30), min_size=m,
                                  max_size=m))
        chi = LatticeCharacter(basis, N, exps)
        coords = data.draw(st.lists(st.lists(st.integers(-9, 9), min_size=m,
                                             max_size=m),
                                    min_size=1, max_size=8))
        points = [[sum(ci * row[i] for ci, row in zip(cs, basis))
                   for i in range(m)] for cs in coords]
        got = _character_values(chi, m)(np.array(points, dtype=np.int64))
        want = [complex(chi.eval(x).to_complex()) for x in points]
        assert list(got) == want

    @pytest.mark.parametrize("gens, forms, N, exps", [
        (QUADRANT, [(1, 1)] * 3, 2, [1, 1]),
        (QUADRANT, [(1, 0), (1, 0), (0, 1), (0, 1)], 3, [1, 2]),
        (QUADRANT, [(1, 0), (0, 1), (1, 1)], 1, [0, 0]),
        (QUADRANT, [(1, 0), (0, 1), (1, 1)], 4, [1, 1]),
        ([[1, 0], [1, 1]], [(1, 0), (1, 1), (1, 1)], 1, [0, 0]),
    ])
    def test_verify_direct_shapes_match_per_point_loop(self, gens, forms,
                                                       N, exps):
        chi = LatticeCharacter(IDENT, N, exps)
        r = eval_cone_zeta(gens, forms, chi, radius=50)
        assert (r.value, r.error) == reference_cone_zeta(gens, forms, chi,
                                                         50)

    @pytest.mark.parametrize("basis", [[[1, 0]], [[1, 1], [2, 2]]])
    def test_bad_basis_rejected_before_enumeration(self, basis,
                                                   monkeypatch):
        def no_grid(*args, **kwargs):
            raise AssertionError("enumeration started")

        monkeypatch.setattr(np, "arange", no_grid)
        chi = LatticeCharacter(basis, 2, [1] * len(basis))
        with pytest.raises(ValueError):
            eval_cone_zeta(QUADRANT, [(1, 0), (0, 1), (1, 1)], chi,
                           radius=50)

    def test_point_outside_the_lattice(self):
        chi = LatticeCharacter([[2, 0], [0, 1]], 2, [1, 0])
        with pytest.raises(ValueError, match="not in the lattice"):
            eval_cone_zeta(QUADRANT, [(1, 0), (0, 1), (1, 1)], chi,
                           radius=50)


class TestQuadCheck:
    def test_zeta2_integral(self):
        chi = LatticeCharacter.trivial([[1]])
        I = integral_expression([[1]], [(1,), (1,)], chi)
        got = quad_check(I, maxdegree=6)
        assert abs(got - ZETA2) < 1e-5
