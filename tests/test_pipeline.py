import itertools
import json
import math
import os
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from conezeta import cli
from conezeta.exact import CycloNumber, LatticeCharacter, RootOfUnity
from conezeta.geometry import Cone, open_simplicial_decomposition
from conezeta.geometry import free_superlattice
from conezeta.linalg import dot, mat_det
from conezeta.polylog import DivergentResult, regularize_limit
from conezeta.rewrite import FactorTerm, Integrand
from conezeta.pipeline import (reduce_cone_zeta, PieceLimitExceeded,
                               integrand_function)
from conezeta.numeric import (eval_zexpr, eval_cone_zeta, verify_reduction,
                              quad_check, zexpr_zero_check)

ZETA2 = math.pi ** 2 / 6
ZETA3 = 1.2020569031595942854

POOL = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                    "perfbench", "pool.json")


def pool_slot(job_id):
    """The pool slot (job and reference) of a benchmark job."""
    with open(POOL) as fh:
        workloads = json.load(fh)["workloads"]
    return next(s for slots in workloads.values() for s in slots
                if s["id"] == job_id)


def reduce_pool_job(job_id, **kwargs):
    job = cli.parse_job(pool_slot(job_id)["job"])
    return reduce_cone_zeta(job["generators"], job["forms"],
                            character=job["character"], **kwargs)


class TestEndToEnd:
    def test_zeta2(self):
        res = reduce_cone_zeta([[1]], [(1,), (1,)])
        syms = res.symbols()
        assert len(syms) == 1
        coeff, sym = syms[0]
        assert sym is not None and sym.ks == (2,)
        r = eval_zexpr(res.value)
        assert abs(r.value - ZETA2) < 1e-10

    def test_alternating_zeta2(self):
        chi = LatticeCharacter([[1]], 2, [1])
        res = reduce_cone_zeta([[1]], [(1,), (1,)], character=chi)
        r = eval_zexpr(res.value)
        assert abs(r.value + math.pi ** 2 / 12) < 1e-10

    def test_zeta3_from_double_sum(self):
        res = reduce_cone_zeta([[1, 0], [0, 1]],
                               [(1, 0), (1, 1), (1, 1)])
        r = eval_zexpr(res.value)
        assert abs(r.value - ZETA3) < 1e-8

    def test_trace_collection_and_replay(self):
        # the index-2 cone needs root splits as well as pair reductions
        res = reduce_cone_zeta([[1, 0], [1, 2]], [(1, 1)] * 3,
                               collect_trace=True)
        rules = {step["rule"] for step in res.trace.steps}
        assert rules == {"root_split", "partial_fraction_pair"}
        assert res.trace.replay()

    def test_divergent_rejected_before_reduction(self):
        with pytest.raises(DivergentResult):
            reduce_cone_zeta([[1, 0], [0, 1]], [(1, 0), (1, 1)])
        with pytest.raises(DivergentResult):
            reduce_cone_zeta([[1]], [(1,)])

    def test_piece_limit(self):
        with pytest.raises(PieceLimitExceeded):
            reduce_cone_zeta([[1]], [(1,), (1,)], max_pieces=0)
        res = reduce_cone_zeta([[1]], [(1,), (1,)], max_pieces=1)
        assert res.stats["pieces"] == 1

    def test_verify_reduction_passes(self):
        res = reduce_cone_zeta([[1]], [(1,), (1,)])
        rep = verify_reduction(res, [[1]], [(1,), (1,)],
                               tolerance=1e-6, radius=2000)
        assert rep["ok"]
        assert rep["difference"] < 1e-6


class TestInducedDecomposition:
    def test_nonunimodular_cone_numeric_identity(self):
        # cone((1,0),(1,2)): the interior sum equals 1/kappa times the sum
        # of the induced-character sums over the free semigroup
        from conezeta.exact import restrict_character, \
            induced_character_decompose
        gens = [(1, 0), (1, 2)]
        forms = [(1, 0), (1, 1), (1, 1)]
        C = Cone([tuple(Fraction(x) for x in g) for g in gens])
        pieces = open_simplicial_decomposition(C)
        m = 2
        ident = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
        chi0 = LatticeCharacter.trivial(ident)
        R = 60
        assert len(pieces) == 1
        face, L = pieces[0]
        free_gens = free_superlattice(face, L)
        # over L = Z^2 a 2-D super-lattice Z g_i / kappa has covolume
        # kappa / kappa^2
        kappa = 1 / abs(mat_det(free_gens))
        assert kappa > 1
        chi_l = restrict_character(chi0, L)
        chars = induced_character_decompose(free_gens, chi_l)
        assert len(chars) == kappa
        total = 0j
        direct = 0.0
        for a1 in range(1, R + 1):
            for a2 in range(1, R + 1):
                x = [a1 * g1 + a2 * g2
                     for g1, g2 in zip(free_gens[0], free_gens[1])]
                den = 1.0
                for f in forms:
                    den *= float(dot(f, x))
                for chi in chars:
                    total += complex(chi.eval(x).to_complex()) / den / kappa
                # the character average must filter exactly the points of
                # the original lattice (here Z^2)
                if all(Fraction(c).denominator == 1 for c in x):
                    direct += 1.0 / den
        assert abs(total - direct) < 1e-12


class TestAgainstDirectSummation:
    def test_nonunimodular_cone_value(self):
        gens = [[1, 0], [1, 2]]
        forms = [(1, 0), (1, 1), (1, 1)]
        res = reduce_cone_zeta(gens, forms)
        sym = eval_zexpr(res.value)
        direct = eval_cone_zeta(gens, forms, radius=800)
        assert abs(sym.value - direct.value) < 1e-4


class TestGroupedIntegration:
    """Uni-terms with equal factors are integrated once, coefficients summed;
    the answer must equal the sum over every uni-term integrated alone."""

    @pytest.mark.parametrize("forms", [[(2, -1), (1, 0), (1, 1)],
                                       [(1, 1), (1, 1), (1, 1)]])
    def test_grouping_matches_per_term_sum(self, forms, monkeypatch):
        from conezeta import pipeline
        from conezeta.polylog import PNormalForm
        gens = [[1, 0], [1, 2]]
        chi = LatticeCharacter([[1, 0], [0, 1]], 2, [1, 0])
        grouped = reduce_cone_zeta(gens, forms, character=chi,
                                   collect_trace=True)
        assert grouped.stats["distinct_integrands"] \
            < grouped.stats["uni_terms"]
        assert grouped.trace.replay()

        def per_term(I, trace, check_zero, stats, derived):
            fn = PNormalForm()
            for IU in pipeline._uni_terms(I, trace, stats, derived):
                fn = fn + pipeline.integrand_function(IU, check_zero, trace)
            return pipeline.regularize_limit(fn, check_zero)

        monkeypatch.setattr(pipeline, "_reduce_integrand", per_term)
        reference = reduce_cone_zeta(gens, forms, character=chi)
        assert (grouped.value - reference.value).is_zero()
        assert repr(grouped.symbols()) == repr(reference.symbols())
        assert reference.stats["uni_terms"] == grouped.stats["uni_terms"]


def recipe_children(node):
    op = node[0]
    if op == "one":
        return []
    if op == "sum":
        return [child for _, child in node[1]]
    return [node[2] if op == "mul" else node[1]]


class TestSharedRecipes:
    """Equal sub-integrals of one reduction share one recipe node, and
    execute_recipe evaluates each node once per reduce_cone_zeta call;
    nothing is kept from one call to the next."""

    @pytest.mark.parametrize("job_id", ["z2cubed", "k2_skew"])
    def test_each_node_evaluated_once_per_call(self, job_id, monkeypatch):
        from conezeta import pipeline
        inner = pipeline.execute_recipe
        received = []

        def counted(node, *args, **kwargs):
            received.append(node)
            return inner(node, *args, **kwargs)

        monkeypatch.setattr(pipeline, "execute_recipe", counted)
        work = []
        for _ in range(2):
            received.clear()
            reduce_pool_job(job_id)
            # `received` keeps every node alive, so no id is reused
            ids = [id(node) for node in received]
            assert len(set(ids)) == len(ids)
            edges = [id(child) for node in received
                     for child in recipe_children(node)]
            assert set(edges) <= set(ids)
            assert len(edges) > len(set(edges))  # some node is shared
            work.append(len(received))
        assert work[0] == work[1]

    @pytest.mark.parametrize("job_id", ["k2_mod3", "k2_skew"])
    def test_trace_replays(self, job_id):
        res = reduce_pool_job(job_id, collect_trace=True)
        assert len(res.trace) > 0
        assert res.trace.replay()


# Convergent jobs on which pair reduction used to cycle until its fuel ran
# out (k2_slot, cyc3, k1_chi3), stop on "exponent difference ... not
# sign-definite" (quad_assert, q2_assert) or report a spurious divergence
# (div33), and a kappa = 3 job whose 3240 uni-terms are now 84 (k3).
# References from mpmath at 18 digits with
# perfbench/make_references.cone_sum_2d (k2_slot's is in the pool); div33's
# cone (1,0),(3,3) has the interior points of (1,0),(1,1).
PAIRING_JOBS = {
    "cyc3": ([[1, 0], [1, 2]], [[1, 2], [1, 1], [1, 0]], None,
             0.4070037393129099, 1.8e-15),
    "k1_chi3": ([[1, 0], [1, 1]], [[1, 2], [1, 1], [0, 2]], (3, [2, 2]),
                complex(0.02671323330811587, -0.006692619403474997),
                1.4e-15),
    "quad_assert": ([[1, 0], [0, 1]], [[2, 1], [1, 2], [1, 0]], None,
                    0.5509427472814807, 2.4e-15),
    "q2_assert": ([[1, 0], [1, 2]], [[2, 1], [1, 0], [1, 1]], None,
                  0.37392205414629365, 2.3e-15),
    "div33": ([[1, 0], [3, 3]], [[2, 1], [2, 0], [2, 2]], None,
              0.03056513943670092, 1.2e-15),
    "k3": ([[1, 0], [1, 3]], [[1, 0], [1, 1], [1, 1]], None,
           0.7504723278153116, 6.0e-15),
}


class TestPairReductionEnds:
    """Poles that normalization leaves leading with an exponent c > 1 are
    root-split again before pairing, so these jobs answer, and each answer
    passes the budget rule of cli.run_job against its reference."""

    @pytest.mark.parametrize("job_id", ["k2_slot"] + sorted(PAIRING_JOBS))
    def test_answer_within_budget(self, job_id):
        if job_id in PAIRING_JOBS:
            gens, forms, chi, want, bound = PAIRING_JOBS[job_id]
            doc = {"ambientDim": 2, "cone": {"generators": gens},
                   "forms": forms}
            if chi is not None:
                doc["character"] = {"modulus": chi[0], "exponents": chi[1]}
        else:
            slot = pool_slot(job_id)
            doc, ref = slot["job"], slot["ref"]
            want, bound = complex(ref["re"], ref["im"]), ref["bound"]
        report, code = cli.run_job(cli.parse_job(doc), "reduce")
        assert code == cli.EXIT_PASS
        got = report["numericSymbolic"]
        diff = abs(complex(got["re"], got["im"]) - want)
        budget = max(report["budgets"]["tolerance"],
                     4 * (got["bound"] + bound))
        assert diff <= budget, (diff, budget)


R2 = RootOfUnity(2, 1)
I4 = RootOfUnity(4, 1)


class TestReductionPaths:
    """Hand-built uni-factor integrands that reach reduction paths no cone
    job reaches: a factor constant in the last variable (the 'const'
    recipe), a slot pole of power 2 (integration by parts, whose derivative
    term needs a third variable), pole powers 2 in the dt/t kernel, and a
    pole of power 2 at the root of the first letter of its word (partial
    fractions of two equal roots), and a slot pole of power 2 in its slot's
    variable alone (a constant boundary term).  The box integral of each
    must match nested quadrature."""

    @pytest.mark.parametrize("factors, maxdegree", [
        ([(R2, (1, 0), 1), (I4, (0, 1), 1)], 9),
        ([(R2, (1, 1), 1), (I4, (0, 1), 2)], 9),
        ([(R2, (1, 0), 1), (I4, (1, 1), 2)], 9),
        ([(R2, (1, 1, 0), 1), (I4, (0, 1, 1), 2)], 3),
        ([(R2, (1, 1), 1), (R2, (0, 1), 2)], 9),
    ], ids=["const", "pole2", "const_parts_pole2", "parts_derivative",
            "equal_roots"])
    def test_box_integral_matches_quadrature(self, factors, maxdegree):
        fl = [FactorTerm(root, exps, mu, 1) for root, exps, mu in factors]
        I = Integrand(CycloNumber.from_rational(1, 1), fl, len(fl[0].exps))
        check = zexpr_zero_check()
        value = regularize_limit(integrand_function(I, check), check)
        got = eval_zexpr(value).value
        want = quad_check(I, maxdegree=maxdegree)
        assert abs(got - want) < 1e-9

    def test_pure_slot_pole_at_the_boundary(self):
        # a slot pole of power 2 in y0 alone: its by-parts boundary term is
        # the constant e/(1-e) at y0 = 1
        A = FactorTerm(R2, (1, 0), 2, 1)
        B = FactorTerm(RootOfUnity(3, 1), (0, 1), 1, 1)
        I = Integrand(CycloNumber.from_rational(1, 1), [A, B], 2)
        check = zexpr_zero_check()
        got = eval_zexpr(regularize_limit(integrand_function(I, check),
                                          check)).value
        assert abs(got - quad_check(I, maxdegree=7)) < 1e-10
        assert abs(got - complex(0.274653072167027, -0.261799387799149)) \
            < 1e-12

    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_random_two_factor_integrands(self, data):
        # A = (e y0^a0 y1^a1) / (1 - .)^mu and B = (e' y1^b) / (1 - .)^mu'
        # with roots other than 1
        def root():
            N = data.draw(st.integers(2, 6))
            return RootOfUnity(N, data.draw(st.integers(1, N - 1)))

        exps, powers = st.integers(1, 3), st.integers(1, 2)
        A = FactorTerm(root(), (data.draw(exps), data.draw(st.integers(0, 3))),
                       data.draw(powers), 1)
        B = FactorTerm(root(), (0, data.draw(exps)), data.draw(powers), 1)
        I = Integrand(1, [A, B], 2)
        check = zexpr_zero_check()
        got = eval_zexpr(regularize_limit(integrand_function(I, check),
                                          check)).value
        assert abs(got - quad_check(I, maxdegree=7)) < 1e-10


ONE_ROOT = RootOfUnity(1, 0)


class TestBoxIntegralClosedForms:
    """The box integral of u/(1-u)^mu, u = y^a, against prod dy_i/y_i is
    the sum over k >= 1 of binom(k+mu-2, mu-1) / prod(a_i k), which is
    zeta(d-mu+1)/prod(a_i) for mu in {1, 2}.  Exponents other than 1 reach
    the pole's exponent in every integration by parts."""

    @pytest.mark.parametrize("d, mu", [(2, 1), (3, 1), (3, 2)])
    def test_single_factor(self, d, mu):
        check = zexpr_zero_check()
        wrong = []
        for a in itertools.product((1, 2, 3), repeat=d):
            I = Integrand(1, [FactorTerm(ONE_ROOT, a, mu, 1)], d)
            got = eval_zexpr(regularize_limit(integrand_function(I, check),
                                              check)).value
            want = float(mpmath.zeta(d - mu + 1)) / math.prod(a)
            if abs(got - want) > 1e-10:
                wrong.append((a, got, want))
        assert wrong == []


# Values from mpmath at 30 digits: each row x2 = t of interior points is
# summed exactly in x1 by partial fractions (digamma and psi(1, .)), and the
# rows are added by mpmath.nsum (over each residue class of t mod q for the
# cone (1,0),(1,q)).  Test ids name the forms: a = (1,0), b = (1,1).
FORM_ORDER_JOBS = [
    ([(1, 0), (1, 1)], [(1, 0), (1, 0), (1, 1)], 0.300514225789899),
    ([(1, 0), (1, 1)], [(1, 1), (1, 1), (1, 0)], 0.207700987014786),
    ([(1, 0), (1, 1)], [(1, 0), (1, 0), (1, 0), (1, 1)], 0.0805618778468367),
    ([(1, 0), (1, 2)], [(1, 0), (1, 0), (1, 1)], 1.07979634541279),
    ([(1, 0), (1, 2)], [(1, 1), (1, 1), (1, 0)], 0.580413598629483),
    ([(1, 0), (1, 2)], [(1, 0), (1, 0), (1, 0), (1, 1)], 0.669773193008508),
]


class TestFormOrder:
    """The value of a cone zeta job does not depend on the order of its
    forms; every ordering must match the row-summed reference."""

    @pytest.mark.parametrize("gens, forms, want", FORM_ORDER_JOBS, ids=[
        "q1_aab", "q1_bba", "q1_aaab", "q2_aab", "q2_bba", "q2_aaab"])
    def test_every_ordering_matches_reference(self, gens, forms, want):
        check = zexpr_zero_check()
        for order in sorted(set(itertools.permutations(forms))):
            res = reduce_cone_zeta(gens, list(order), check_zero=check)
            got = eval_zexpr(res.value).value
            assert abs(got - want) < 1e-10, (order, got)


def _eta(s):
    """Alternating zeta: sum over c >= 1 of (-1)^(c-1) / c^s."""
    return (1 - mpmath.mpf(2) ** (1 - s)) * mpmath.zeta(s)


# Cones in Z^3 with the form (0,0,1) four times: the interior points of
# height c number 2c^2 - 2c + 1 (square cone), (c-1)^2 (simplex) and 2c - 1
# (the 2-D piece), so each value is a combination of zeta(2..4), with
# chi(x) = (-1)^(x_3) turning zeta into -eta.  The square cone and the
# simplex have 3-D pieces of kappa = 2.
SQUARE = [[1, 0, 1], [0, 1, 1], [-1, 0, 1], [0, -1, 1]]
Z = mpmath.zeta
CLOSED_FORM_3D_JOBS = [
    (SQUARE, None, 2 * Z(2) - 2 * Z(3) + Z(4)),
    (SQUARE, (2, (0, 0, 1)), -2 * _eta(2) + 2 * _eta(3) - _eta(4)),
    ([[-1, 0, 1], [1, 0, 1], [0, 1, 1]], None, Z(2) - 2 * Z(3) + Z(4)),
    ([[-1, 0, 1], [1, 0, 1]], None, 2 * Z(3) - Z(4)),
]


class TestClosedForms3D:
    """A d-dimensional piece's induced characters number [Lbar : L] =
    kappa^(d-1), and the reduction divides by that count: 3-D pieces with
    kappa > 1 must give the closed form, not kappa times it."""

    @pytest.mark.parametrize("gens, chi, want", CLOSED_FORM_3D_JOBS, ids=[
        "square", "square_chi2", "simplex", "plane_piece"])
    def test_value_matches_closed_form(self, gens, chi, want):
        character = None if chi is None else \
            LatticeCharacter([[1, 0, 0], [0, 1, 0], [0, 0, 1]], *chi)
        res = reduce_cone_zeta(gens, [(0, 0, 1)] * 4, character=character)
        got = eval_zexpr(res.value).value
        assert abs(got - complex(want)) < 1e-12
