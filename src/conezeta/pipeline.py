"""End-to-end reduction of cone zeta values to cyclotomic zeta symbols.

The value reduced is

    Z(C, S; chi) = sum over x in interior(C) cap Z^m of chi(x) / prod l(x)

for a pointed rational cone C, linear forms S positive on the interior, and
a finite-order character chi.  The stages are: open simplicial decomposition,
free super-lattice and induced characters per piece, a multiple-integral
expression, a monotone change of coordinates adapted to derived sequences,
uni-factorization, weight descent to one variable, and symbolic polylogarithm
integration with regularization at 1.
"""

from fractions import Fraction

from .exact import (LatticeCharacter, restrict_character,
                    induced_character_decompose)
from .linalg import identity, primitive_int_vector
from .geometry import (Cone, SimplicialCone, open_simplicial_decomposition,
                       free_superlattice)
from .derivation import build_derived_sequences, primitive_rescale
from .rewrite import (Integrand, integral_expression, convergence_check,
                      change_coordinates, uni_factorize,
                      reduce_to_univariate, ReductionTrace)
from .polylog import (PNormalForm, ZExpression, multiply_factor, integrate_P,
                      regularize_limit, mzv_symbol_from_word, DivergentResult)


class PieceLimitExceeded(Exception):
    """The decomposition produced more pieces than allowed."""


def execute_recipe(node, check_zero=None, memo=None):
    """Evaluate a univariate reduction recipe to a polylog normal form.

    Equal sub-integrals share one node object; `memo` maps id(node) to
    (node, value) for every node evaluated so far, so each node is
    evaluated once (a fresh dict if omitted)."""
    if memo is None:
        memo = {}

    def value(child):
        hit = memo.get(id(child))
        if hit is None:
            hit = memo[id(child)] = (child, execute_recipe(child, check_zero,
                                                           memo))
        return hit[1]
    op = node[0]
    if op == "one":
        return PNormalForm.one()
    if op == "sum":
        out = PNormalForm()
        for coeff, child in node[1]:
            out = out + value(child).scale(coeff)
        return out
    if op == "mul":
        pnf = value(node[2])
        for root, c, mu, s in node[1]:
            pnf = multiply_factor(pnf, root, c, mu, s)
        return pnf
    if op == "int":
        return integrate_P(value(node[1]), check_zero)
    if op == "const":
        return PNormalForm.constant(regularize_limit(value(node[1]),
                                                     check_zero))
    raise ValueError("unknown recipe node %r" % (op,))


def integrand_function(I, check_zero=None, trace=None, memo=None):
    """Partial box integral of a uni-factor integrand against prod dy_i/y_i,
    as a normal form in the last variable (the final limit at 1 pending).
    `memo` holds the recipe nodes and values of the calling reduction."""
    recipe = reduce_to_univariate(I, trace, memo)
    pnf = execute_recipe(recipe, check_zero, memo)
    return integrate_P(pnf, check_zero)


class ReductionResult:
    """Outcome of a cone zeta reduction."""

    __slots__ = ("value", "stats", "trace")

    def __init__(self, value, stats, trace=None):
        self.value = value
        self.stats = stats
        self.trace = trace

    def symbols(self):
        """List of (CycloNumber coefficient, MZVSymbol-or-None) terms;
        None stands for the rational/cyclotomic constant 1."""
        out = []
        for word, c in sorted(self.value.terms.items(),
                              key=lambda t: (len(t[0]), repr(t[0]))):
            if not word:
                out.append((c, None))
            else:
                root, sym = mzv_symbol_from_word(word)
                out.append((c * root.to_cyclo(), sym))
        return out

    def __repr__(self):
        return "ReductionResult(%r)" % (self.value,)


def reduce_cone_zeta(generators, forms, character=None, check_zero=None,
                     max_pieces=None, collect_trace=False):
    """Reduce a cone zeta value to a ZExpression of cyclotomic zeta symbols.

    generators: rays of a pointed cone in Z^m; forms: linear forms given as
    coefficient sequences, positive on the interior; character: an optional
    LatticeCharacter on a finite-index sublattice of Z^m (trivial if omitted).
    With `collect_trace` the result carries a ReductionTrace of the rewrite
    rules applied.  Raises DivergentResult when the defining sum fails the
    convergence criterion and PieceLimitExceeded past `max_pieces` pieces.
    """
    generators = [tuple(Fraction(x) for x in g) for g in generators]
    m = len(generators[0])
    if not all(any(f) for f in forms):
        raise ValueError("zero linear form")
    if character is None:
        character = LatticeCharacter.trivial(identity(m))
    trace = ReductionTrace() if collect_trace else None
    if check_zero is None:
        from .numeric import zexpr_zero_check
        check_zero = zexpr_zero_check()

    C = Cone(generators)
    pieces = open_simplicial_decomposition(C)
    if max_pieces is not None and len(pieces) > max_pieces:
        raise PieceLimitExceeded("%d pieces > limit %d"
                                 % (len(pieces), max_pieces))
    # reject divergent jobs before reducing anything
    prepared = []
    for face, L in pieces:
        free_gens = free_superlattice(face, L)
        if not convergence_check(free_gens, forms):
            raise DivergentResult("defining sum diverges on a piece")
        prepared.append((L, free_gens))
    total = ZExpression()
    stats = {"pieces": len(pieces), "characters": 0, "branches": 0,
             "uni_terms": 0, "distinct_integrands": 0}
    # work done once per call and dropped with it: the orthant branches of
    # each exponent-class list (the induced characters of a piece share
    # them), one recipe node per sub-integral and the value of each node
    memo = {}
    for L, free_gens in prepared:
        chi_l = restrict_character(character, L)
        chars = induced_character_decompose(free_gens, chi_l)
        stats["characters"] += len(chars)
        # the extensions of chi_l to the super-lattice sum to its index over
        # L times chi_l on L, and to 0 off L
        scale = Fraction(1, len(chars))
        for chi in chars:
            I = integral_expression(free_gens, forms, chi).scaled(scale)
            total = total + _reduce_integrand(I, trace, check_zero, stats,
                                              memo)
    return ReductionResult(total, stats, trace)


def _reduce_integrand(I, trace, check_zero, stats, memo):
    """Reduce a type-S integrand on the open unit box to a ZExpression."""
    # the recipe is linear in the uni-term's coefficient, so uni-terms with
    # equal factors are integrated once, with their coefficients summed
    groups = {}
    for IU in _uni_terms(I, trace, stats, memo):
        key = (IU.factors, IU.nvars)
        groups[key] = groups[key] + IU.coeff if key in groups else IU.coeff
    # per-term limits at 1 may diverge with cancellation across terms, so
    # sum the partial integrals as functions of the shared last variable
    # and regularize once
    fn = PNormalForm()
    for (factors, nvars), coeff in groups.items():
        if coeff.is_zero():
            continue
        stats["distinct_integrands"] += 1
        IU = Integrand(coeff, factors, nvars)
        fn = fn + integrand_function(IU, check_zero, trace, memo)
    return regularize_limit(fn, check_zero)


def _uni_terms(I, trace, stats, memo):
    """Uni-factor integrands summing to a type-S integrand I, over the
    derived-sequence branches of the coordinate orthant; `memo` maps the
    exponent classes to the rescaled branches already built for them."""
    n = I.nvars
    # decompose the coordinate orthant by the factor exponent classes
    sforms = {}
    for f in I.factors:
        sforms.setdefault(primitive_int_vector(f.exps), f.exps)
    key = ("branches", n, tuple(sforms.values()))
    if key not in memo:
        orthant = SimplicialCone(identity(n))
        branches = build_derived_sequences(orthant, list(sforms.values()))
        memo[key] = [primitive_rescale(ds)[1] for ds in branches]
    rescaled = memo[key]
    stats["branches"] += len(rescaled)
    out = []
    for ID in change_coordinates(I, rescaled):
        out.extend(uni_factorize(ID, trace))
    stats["uni_terms"] += len(out)
    return out
