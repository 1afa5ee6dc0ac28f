"""Rewriting engine for cone zeta integrands.

An integrand is a Q^ab-coefficient times a product of factors

    (e * y^alpha)^s / (1 - e * y^alpha)^mu

with e a root of unity, alpha a nonzero vector of natural exponents, s >= 0
the numerator power and mu >= 0 the pole power.  Rewriting reduces a definite
integral of such a product over the open unit box, with dy_i/y_i measure, to a
recipe of one-variable kernel integrations consumed by the polylog module.
"""

import itertools
from fractions import Fraction
from math import lcm

from .exact import CycloNumber, nth_roots, one_minus_inverse
from .linalg import dot, mat_det

ONE = CycloNumber.from_rational(1, 1)


class FactorTerm:
    """(e*y^alpha)^s / (1 - e*y^alpha)^mu."""

    __slots__ = ("root", "exps", "mu", "s")

    def __init__(self, root, exps, mu=1, s=1):
        self.root = root
        self.exps = tuple(int(x) for x in exps)
        self.mu = int(mu)
        self.s = int(s)
        if all(x == 0 for x in self.exps):
            raise ValueError("factor monomial must be nonconstant")
        if any(x < 0 for x in self.exps):
            raise ValueError("factor exponents must be nonnegative")
        if self.mu < 0 or self.s < 0 or (self.mu == 0 and self.s == 0):
            raise ValueError("invalid factor powers")

    def leading(self):
        return next(i for i, x in enumerate(self.exps) if x != 0)

    def key(self):
        return (self.leading(), self.exps, self.root.sort_key(), self.mu, self.s)

    def __eq__(self, other):
        return (isinstance(other, FactorTerm) and self.root == other.root
                and self.exps == other.exps and self.mu == other.mu
                and self.s == other.s)

    def __hash__(self):
        return hash((self.root, self.exps, self.mu, self.s))

    def __repr__(self):
        return "FactorTerm(e=%r, a=%s, mu=%d, s=%d)" % (
            self.root, list(self.exps), self.mu, self.s)


class Integrand:
    """Coefficient times a product of factors in a fixed variable list."""

    __slots__ = ("coeff", "factors", "nvars")

    def __init__(self, coeff, factors, nvars):
        self.coeff = coeff if isinstance(coeff, CycloNumber) else \
            CycloNumber.from_rational(coeff, 1)
        self.factors = tuple(factors)
        self.nvars = int(nvars)
        for f in self.factors:
            if len(f.exps) != self.nvars:
                raise ValueError("factor arity mismatch")

    def scaled(self, c):
        return Integrand(self.coeff * c, self.factors, self.nvars)

    def __repr__(self):
        return "Integrand(%r, %s)" % (self.coeff, list(self.factors))


class ReductionTrace:
    """Audit trace of rewrite-rule applications.

    Each step stores the rule name with its input and output objects;
    replay re-executes every recorded rule and checks that the repr of its
    result equals that of the recorded output.
    """

    def __init__(self):
        self.steps = []

    def record(self, rule, inputs, outputs):
        self.steps.append({"rule": rule, "inputs": inputs, "outputs": outputs})

    def replay(self):
        for step in self.steps:
            fn = TRACEABLE_RULES[step["rule"]]
            redo = fn(*step["inputs"])
            if repr(redo) != repr(step["outputs"]):
                raise AssertionError("trace replay diverged at rule %s"
                                     % step["rule"])
        return True

    def __len__(self):
        return len(self.steps)


# ---------------------------------------------------------------------------
# formal power series oracle (used by tests to certify every rewrite rule)

def factor_series(f, maxdeg):
    """Truncated multivariate series of a FactorTerm up to total degree."""
    deg_a = sum(f.exps)
    out = {}
    # (e y^a)^s * sum_t binom(mu-1+t, t) (e y^a)^t
    t = 0
    while deg_a * (f.s + t) <= maxdeg:
        if f.mu == 0 and t > 0:
            break
        if f.mu == 0:
            coef = ONE
        else:
            b = 1
            for i in range(1, t + 1):
                b = b * (f.mu - 1 + i) // i
            coef = CycloNumber.from_rational(b, 1)
        power = f.s + t
        exps = tuple(x * power for x in f.exps)
        rc = coef * (f.root ** power).to_cyclo()
        out[exps] = out.get(exps, CycloNumber.from_rational(0, 1)) + rc
        t += 1
    return out


def _series_mul(a, b, maxdeg):
    out = {}
    for ea, ca in a.items():
        da = sum(ea)
        for eb, cb in b.items():
            if da + sum(eb) > maxdeg:
                continue
            key = tuple(x + y for x, y in zip(ea, eb))
            c = ca * cb
            if key in out:
                out[key] = out[key] + c
            else:
                out[key] = c
    return out


def integrand_series(I, maxdeg):
    """Series of a single Integrand up to total degree maxdeg."""
    n = I.nvars
    cur = {tuple([0] * n): I.coeff}
    for f in I.factors:
        cur = _series_mul(cur, factor_series(f, maxdeg), maxdeg)
    return cur


def combination_series(terms, maxdeg):
    """Series of a list of Integrands (a Q^ab-linear combination)."""
    total = {}
    for I in terms:
        for k, v in integrand_series(I, maxdeg).items():
            if k in total:
                total[k] = total[k] + v
            else:
                total[k] = v
    return {k: v for k, v in total.items() if not v.is_zero()}


def series_equal(termsA, termsB, maxdeg):
    sa = combination_series(termsA, maxdeg)
    sb = combination_series(termsB, maxdeg)
    keys = set(sa) | set(sb)
    zero = CycloNumber.from_rational(0, 1)
    return all((sa.get(k, zero) - sb.get(k, zero)).is_zero() for k in keys)


# ---------------------------------------------------------------------------
# entry: integral expression of a cone zeta sum over a free semigroup

def integral_expression(generators, forms, chi):
    """Type-S integrand for sum over the free semigroup on `generators`.

    generators: ordered free semigroup generators (rational vectors);
    forms: coefficient tuples positive on the open cone; chi:
    LatticeCharacter.
    The value of the cone zeta sum equals the integral over (0,1)^n of the
    returned integrand times prod dy_i/y_i.
    """
    n = len(forms)
    d = len(generators)
    scale = Fraction(1)
    rows = []
    for f in forms:
        vals = [Fraction(dot(f, g)) for g in generators]
        if any(v < 0 for v in vals) or all(v == 0 for v in vals):
            raise ValueError("form not positive on the open cone piece")
        den = lcm(*(v.denominator for v in vals))
        scale *= Fraction(1, den)  # form scaled up by den => zeta scaled down
        rows.append([int(v * den) for v in vals])
    # factor j corresponds to generator j; its exponent vector is column j
    factors = []
    for j in range(d):
        exps = tuple(rows[i][j] for i in range(n))
        root = chi.eval(generators[j])
        factors.append(FactorTerm(root, exps, mu=1, s=1))
    # scaling forms by den multiplies the form, dividing zeta; compensate
    coeff = CycloNumber.from_rational(1 / scale, 1)
    return Integrand(coeff, factors, n)


def convergence_check(generators, forms):
    """Criterion for absolute convergence of the free-semigroup sum.

    For every nonempty subset J of generator coordinates, the number of forms
    involving at least one coordinate of J must exceed |J|.
    """
    d = len(generators)
    mat = [[dot(f, g) for g in generators] for f in forms]
    for r in range(1, d + 1):
        for J in itertools.combinations(range(d), r):
            cnt = sum(1 for row in mat if any(row[j] != 0 for j in J))
            if cnt <= r:
                return False
    return True


# ---------------------------------------------------------------------------
# coordinate change to a derived-sequence piece, and root splitting

def root_split(root, prim_exps, c):
    """Split e*w^c/(1-e*w^c), w = y^prim, into factors with monomial w.

    Returns c terms (1/c, [FactorTerm(b, prim, 1, 1)]), one for each b with
    b^c = e, whose sum equals the input factor: the sum over those b of
    1/(1-b*w) is c/(1-e*w^c), so the sum of b*w/(1-b*w) is
    c*e*w^c/(1-e*w^c).
    """
    inv = CycloNumber.from_rational(Fraction(1, c), 1)
    return [(inv, [FactorTerm(b, prim_exps, 1, 1)])
            for b in nth_roots(root, c)]


def change_coordinates(I, pieces):
    """Rewrite a type-S integrand on the orthant over derived-sequence pieces.

    `pieces` is a list of rescaled DerivedSequences whose generators span
    cones that decompose the orthant.  Returns one Integrand per piece;
    summing their integrals over (0,1)^n reproduces the integral of I.  Every factor monomial is a
    multiple of a variable-part representative; uni_factorize splits it.
    """
    out = []
    n = I.nvars
    for ds in pieces:
        gens = ds.generators  # columns of the substitution matrix
        if len(gens) != n:
            raise ValueError("piece dimension mismatch")
        A = [[g[i] for g in gens] for i in range(n)]  # A[i][k]
        for row in A:
            for x in row:
                if x < 0 or x.denominator != 1:
                    raise AssertionError("substitution matrix not natural")
        factors = []
        for f in I.factors:
            new_exps = tuple(int(dot(f.exps, g)) for g in gens)
            c = next(x for x in new_exps if x != 0)
            if any(x % c for x in new_exps):
                raise AssertionError("monomial not a multiple of a primitive "
                                     "variable-part representative")
            factors.append(FactorTerm(f.root, new_exps, f.mu, f.s))
        out.append(Integrand(I.coeff * abs(mat_det(A)), factors, n))
    return out


# ---------------------------------------------------------------------------
# uni-factorization

def _merge_factors(factors):
    """Merge factors sharing (root, exps) by adding powers."""
    acc = {}
    for f in factors:
        key = (f.root, f.exps)
        if key in acc:
            g = acc[key]
            acc[key] = FactorTerm(f.root, f.exps, g.mu + f.mu, g.s + f.s)
        else:
            acc[key] = f
    return sorted(acc.values(), key=lambda f: f.key())


def _numerator_normalize_factor(f):
    """Rewrite a factor as a combination with numerator power s in {0, 1};
    s=0 only for pure monomials (mu=0 yields s>=1 monomial factors or 1).

    Returns list of (CycloNumber coeff, FactorTerm or None).
    """
    if f.s == 1 or (f.mu == 0 and f.s >= 1):
        return [(ONE, f)]
    if f.s == 0:
        # 1/(1-u)^mu = 1 + sum_{t=1..mu} u/(1-u)^t
        out = [(ONE, None)]
        for t in range(1, f.mu + 1):
            out.append((ONE, FactorTerm(f.root, f.exps, t, 1)))
        return out
    # s >= 2, mu >= 1: u^s/(1-u)^mu = u^(s-1)/(1-u)^mu - u^(s-1)/(1-u)^(mu-1)
    out = []
    for c, g in _numerator_normalize_factor(FactorTerm(f.root, f.exps, f.mu, f.s - 1)):
        out.append((c, g))
    if f.mu - 1 == 0:
        neg = FactorTerm(f.root, f.exps, 0, f.s - 1) if f.s - 1 >= 1 else None
        out.append((-ONE, neg))
    else:
        for c, g in _numerator_normalize_factor(FactorTerm(f.root, f.exps, f.mu - 1, f.s - 1)):
            out.append((-c, g))
    return out


def normalize_term(coeff, factors):
    """Merge and numerator-normalize a factor list.

    Returns a list of (coeff, [factors]) with every factor having s=1 (poles)
    or mu=0, s>=1 (pure monomials), at most one factor per (root, exps).
    """
    terms = [(coeff, [])]
    for f in _merge_factors(factors):
        expansion = _numerator_normalize_factor(f)
        new_terms = []
        for c0, fl in terms:
            for c1, g in expansion:
                new_terms.append((c0 * c1, fl + ([g] if g is not None else [])))
        terms = new_terms
    # expansion keeps each factor's (root, exps), so the terms stay merged
    # and key-sorted
    return terms


def partial_fraction_pair(A, B):
    """Reduce a product of two pole factors with the same leading variable.

    Both factors must have s=1, mu>=1 and share the leading variable, and
    A.exps <= B.exps in every entry, as for the key-sorted pairs that
    _pair_reduce passes.  The returned list of (coeff, [factors]) sums to
    A*B.  The new factor's monomial is the exponent difference, one level
    deeper.
    """
    if A.s != 1 or B.s != 1 or A.mu < 1 or B.mu < 1:
        raise ValueError("pair reduction expects s=1 pole factors")
    if A.leading() != B.leading():
        raise ValueError("factors must share the leading variable")
    if A.exps == B.exps and A.root == B.root:
        raise ValueError("identical factors should be merged, not paired")
    delta = tuple(b - a for a, b in zip(A.exps, B.exps))
    if any(x < 0 for x in delta):
        raise AssertionError("a clashing pair needs A.exps <= B.exps in "
                             "every entry; derived sequence violated")
    eq = B.root * A.root.inverse()  # ratio u_B/u_A = eq * y^delta
    def residual(f):
        # (1-u)^-(mu-1), dropped entirely when mu-1 == 0
        if f.mu - 1 == 0:
            return []
        return [FactorTerm(f.root, f.exps, f.mu - 1, 0)]

    out = []
    if all(x == 0 for x in delta):
        if eq.is_one():
            raise AssertionError("clashing pair with equal monomial and root")
        # constant X = eq/(1-eq) = inv - 1 with inv = 1/(1-eq);
        # L1 L2 = X L1' + (-X-1) L2'
        inv = one_minus_inverse(eq)
        out.append((inv - 1, [A] + residual(B)))
        out.append((-inv, [B] + residual(A)))
    else:
        X = FactorTerm(eq, delta, 1, 1)
        out.append((ONE, [A, X] + residual(B)))
        out.append((-ONE, [B, X] + residual(A)))
        out.append((-ONE, [B] + residual(A)))
    return out


def uni_factorize(I, trace=None):
    """Rewrite an integrand from change_coordinates as a combination of
    uni-factor integrands: root-split every pole factor whose leading
    exponent exceeds 1, then pair-reduce each term of the split.

    In a uni-factor integrand at most one pole factor has any given leading
    variable (pure monomial factors are exempt).  Lowest level first, then the
    lexicographically smallest clashing pair.
    """
    # one term at a time: the order of the uni-terms fixes the order in
    # which the pipeline sums them, and so the printed moduli
    return [Integrand(c, fl, I.nvars)
            for term in _split_leading(I.coeff, list(I.factors), trace)
            for c, fl in _pair_reduce([term], None, trace)]


def _pair_reduce(work, slot, trace=None):
    """Normalize each (coeff, [factors]) term of `work` and pair-reduce its
    clashing poles until no two pole factors share a leading variable
    (slot None), or until at most one leads at `slot`.  The clash taken is
    the first adjacent pair of key-sorted poles: the key starts with the
    leading variable.  Returns a list of (coeff, [factors])."""
    done = []
    # no termination proof is known for pairing; a cycle becomes an error
    fuel = 100000
    while work:
        fuel -= 1
        if fuel < 0:
            raise RuntimeError("pair reduction did not terminate")
        c, fl = work.pop()
        for c0, fl0 in normalize_term(c, fl):
            if any(_splits(f) for f in fl0):
                # merged powers and the s = 0 residual of a paired pole
                # can leave a pole leading with c > 1; pairing it with a
                # leading-1 pole would leave the derived levels
                work.extend(_split_leading(c0, fl0, trace))
                continue
            if slot is not None and any(f.mu == 0 and f.leading() == slot
                                        for f in fl0):
                raise AssertionError("monomial factor at an integrated slot")
            poles = sorted((f for f in fl0 if f.mu >= 1 and
                            (slot is None or f.leading() == slot)),
                           key=FactorTerm.key)
            clash = next(((a, b) for a, b in zip(poles, poles[1:])
                          if a.leading() == b.leading()), None)
            if clash is None:
                done.append((c0, fl0))
                continue
            a, b = clash
            repl = partial_fraction_pair(a, b)
            if trace is not None:
                trace.record("partial_fraction_pair", (a, b), repl)
            rest = list(fl0)
            rest.remove(a)
            rest.remove(b)
            for c1, new in repl:
                # a fresh delta factor may be a c-th power of a primitive
                # monomial; split it before normalization can merge it into
                # a higher pole power, which takes more pairings to reduce
                work.extend(_split_leading(c0 * c1, rest + new, trace))
    return done


def _split_leading(coeff, factors, trace=None):
    """Root-split every s=1, mu=1 pole factor whose leading exponent is > 1.

    Returns a list of (coeff, [factors]) summing to the input product, in
    which every pole factor has leading exponent 1 or is a residual/monomial.
    """
    terms = [(coeff, [])]
    for f in factors:
        if _splits(f):
            c = f.exps[f.leading()]
            prim = tuple(x // c for x in f.exps)
            split = root_split(f.root, prim, c)
            if trace is not None:
                trace.record("root_split", (f.root, prim, c), split)
            terms = [(t0 * c1, fl0 + fl1)
                     for t0, fl0 in terms for c1, fl1 in split]
        else:
            terms = [(t0, fl0 + [f]) for t0, fl0 in terms]
    return terms


def _splits(f):
    """Whether root_split applies: an s=1, mu=1 pole whose leading exponent
    c > 1 divides every exponent."""
    if f.mu != 1 or f.s != 1:
        return False
    c = f.exps[f.leading()]
    return c > 1 and all(x % c == 0 for x in f.exps)


TRACEABLE_RULES = {
    "partial_fraction_pair": partial_fraction_pair,
    "root_split": root_split,
}


# ---------------------------------------------------------------------------
# weight descent: reduce a uni-factor integral to one-variable kernel recipes
#
# Objects track an ordered tuple of the coordinate ids still present; the
# first `weight` of them are integrated over (0,1) with dy/y measure, the
# rest are free.  Every factor keeps the integrand's full exponent tuple,
# zero at each coordinate already set to 1, so leading() is a coordinate id.
# A simple object has at most one pole factor per integrated coordinate,
# each with mu = 1 and s = 1, and no factors leading at free coordinates.
# reduce_A, _integrate_slot and reduce_B recurse only on objects of strictly
# smaller weight, so the recursion terminates.

class UFObject:
    """Partially integrated product of factors."""

    __slots__ = ("coords", "factors", "weight")

    def __init__(self, coords, factors, weight):
        self.coords = tuple(coords)
        self.factors = tuple(factors)
        self.weight = int(weight)
        kept = set(self.coords)
        for f in self.factors:
            if any(x and i not in kept for i, x in enumerate(f.exps)):
                raise AssertionError("factor involves a deleted coordinate")

    def is_simple(self):
        slots = [f.leading() for f in self.factors]
        return (len(slots) == len(set(slots))
                and set(slots) <= set(self.coords[:self.weight])
                and all(f.mu == 1 and f.s == 1 for f in self.factors))

    def __repr__(self):
        return "UFObject(%s, %s, w=%d)" % (list(self.coords),
                                           list(self.factors), self.weight)


def _restrict_object(obj, cid):
    """Substitute y_cid = 1 (delete the coordinate): (coeff, object)."""
    pos = obj.coords.index(cid)
    new_factors = []
    coeff = ONE
    for f in obj.factors:
        exps = f.exps[:cid] + (0,) + f.exps[cid + 1:]
        if all(x == 0 for x in exps):
            if f.root.is_one():
                raise AssertionError("pole at 1 in a face restriction")
            inv = one_minus_inverse(f.root)
            val = (f.root ** f.s).to_cyclo()
            for _ in range(f.mu):
                val = val * inv
            coeff = coeff * val
        else:
            new_factors.append(FactorTerm(f.root, exps, f.mu, f.s))
    w = obj.weight - 1 if pos < obj.weight else obj.weight
    return coeff, UFObject(obj.coords[:pos] + obj.coords[pos + 1:],
                           new_factors, w)


def _extend_weight(obj, f, cid):
    """Adjoin the factor f (None adjoins nothing) and integrate the first
    free coordinate, which must be cid; the numerator must be divisible by
    it."""
    if obj.coords[obj.weight] != cid:
        raise AssertionError("integration coordinate out of order")
    factors = obj.factors if f is None else obj.factors + (f,)
    if all(g.exps[cid] == 0 for g in factors if g.s > 0):
        raise AssertionError("divergent integration: numerator not "
                             "divisible by the integration variable")
    return UFObject(obj.coords, factors, obj.weight + 1)


def reduce_A(coords, factors, w, trace=None):
    """Express the integral over the first w coordinates of prod(factors) as
    sum coeff * M * h with M a list of factors leading at free coordinates
    and h a simple object of weight <= w.  Returns a list of (coeff, M, h).
    """
    if w == 0:
        return [(ONE, list(factors), UFObject(coords, (), 0))]
    cid = coords[w - 1]
    out = []
    low = [f for f in factors if f.leading() < cid]
    slotf = [f for f in factors if f.leading() == cid]
    high = [f for f in factors if f.leading() > cid]
    for c1, M1, h in reduce_A(coords, low, w - 1, trace):
        slot_parts = slotf + [m for m in M1 if m.leading() == cid]
        high1 = high + [m for m in M1 if m.leading() > cid]
        for c2, fl2 in _pair_reduce([(ONE, slot_parts)], cid, trace):
            poles = [f for f in fl2 if f.leading() == cid]
            Mh = high1 + [f for f in fl2 if f.leading() > cid]
            coef = c1 * c2
            P = poles[0] if poles else None
            for c3, M3, h3 in _integrate_slot(P, h, cid, trace):
                out.append((coef * c3, Mh + M3, h3))
    return out


def _integrate_slot(P, h, cid, trace):
    """Integrate (0,1) in y_cid of P(y) * h(y, frees) dy/y.

    P is the unique pole factor leading at y_cid (or None); h is a simple
    object whose first free coordinate is cid.  Returns a list of
    (coeff, M, h') in the sense of reduce_A.
    """
    if P is not None and (P.s != 1 or P.mu < 1):
        raise AssertionError("unnormalized slot factor")
    if P is None or P.mu == 1:
        return [(ONE, [], _extend_weight(h, P, cid))]
    boundary, derivative = _by_parts(P, P.mu, h, cid, 1)
    out = list(boundary)
    for c, ext in derivative:
        for c3, M3, h3 in reduce_A(ext.coords, list(ext.factors),
                                   ext.weight, trace):
            out.append((c * c3, M3, h3))
    return out


def _by_parts(P, nu, h, cid, scale):
    """Integrate u/(1-u)^nu * h against dy/y over (0,1) by parts, y = y_cid
    and u = e*y^a the monomial of the factor P, times the rational scale:

        ([F h]_{y=1} - int F (y d/dy h) dy/y) / (c (nu - 1)),

    F = sum_{t<nu} u/(1-u)^t and c = a_cid.  Returns the boundary terms as
    (coeff, factor list of the t-th term of F at y = 1, h at y = 1), the
    list empty when that term is a constant, and the derivative terms as
    (coeff, object integrating the t-th term of F against y d/dy h).
    """
    inv = Fraction(scale, (nu - 1) * P.exps[cid])
    bc, hb = _restrict_object(h, cid)
    ts = range(1, nu)
    boundary = []
    for t in ts:
        # a term constant at y = 1 joins the coefficient
        cF, Fb = _restrict_object(UFObject(
            h.coords, (FactorTerm(P.root, P.exps, t, 1),), h.weight), cid)
        boundary.append((inv * bc * cF, list(Fb.factors), hb))
    derivative = [(-inv * cD, _extend_weight(
                       obj, FactorTerm(P.root, P.exps, t, 1), cid))
                  for cD, obj in reduce_B(h, cid) for t in ts]
    return boundary, derivative


def reduce_B(h, vid):
    """Differential y_vid * d/dy_vid of a simple object h, for a free
    coordinate vid.  Returns a list of (coeff, UFObject) of weight < h.weight
    representing the derivative.
    """
    w = h.weight
    if w == 0:
        return []
    cid = h.coords[w - 1]
    # the pole factor leading at y_cid, if any
    L = next((f for f in h.factors if f.leading() == cid), None)
    g = UFObject(h.coords, [f for f in h.factors if f.leading() != cid],
                 w - 1)
    out = [(c, _extend_weight(obj, L, cid)) for c, obj in reduce_B(g, vid)]
    if L is not None and L.exps[vid] != 0:
        # y_vid d/dy_vid L = a_vid u/(1-u)^2, integrated by parts in y_cid
        boundary, derivative = _by_parts(L, 2, g, cid, L.exps[vid])
        out.extend((c, UFObject(gb.coords, gb.factors + tuple(Fs), gb.weight))
                   for c, Fs, gb in boundary)
        out.extend(derivative)
    return out


# ---------------------------------------------------------------------------
# recipes: symbolic plans executed by the polylog module
#
# node forms:
#   ('one',)                       the constant function 1
#   ('sum', [(coeff, node), ...])  Q^ab-linear combination
#   ('mul', [(root, c, mu, s), ...], node)
#                                  multiply by prod (e y^c)^s/(1-e y^c)^mu
#   ('int', node)                  integral from 0 to y, dt/t
#   ('const', node)                regularized value at y=1, as a constant

def reduce_to_univariate(I, trace=None, memo=None):
    """Recipe for I(y_n): the integral of a uni-factor integrand over all
    variables but the last, as a function of the last variable.  `memo`
    maps each sub-integral already planned to its node, so equal
    sub-integrals share one node (a fresh dict if omitted)."""
    coords = tuple(range(I.nvars))
    node = _p_recipe(coords, tuple(I.factors), trace,
                     {} if memo is None else memo)
    return ('sum', [(I.coeff, node)])


def _p_recipe(coords, factors, trace, memo):
    key = ("p", coords, factors)
    if key in memo:
        return memo[key]
    last = coords[-1]
    pure = [f for f in factors if f.leading() == last]
    rest = [f for f in factors if f.leading() < last]
    if len(coords) == 1:
        node = ('one',)
    else:
        parts = []
        for coef, M, h in reduce_A(coords, rest, len(coords) - 1, trace):
            if any(m.leading() < last for m in M):
                raise AssertionError("free factor at an integrated slot")
            node = _simple_recipe(h, trace, memo)
            if M:
                node = ('mul', [_pure_factor(m) for m in M], node)
            parts.append((coef, node))
        node = ('sum', parts)
    if pure:
        node = ('mul', [_pure_factor(f) for f in pure], node)
    memo[key] = node
    return node


def _pure_factor(f):
    lead = f.leading()
    if any(x != 0 for i, x in enumerate(f.exps) if i != lead):
        raise AssertionError("factor is not univariate")
    return (f.root, f.exps[lead], f.mu, f.s)


def _simple_recipe(h, trace, memo):
    """Recipe for a univariate simple object as a function of its last
    coordinate."""
    key = ("simple", h.coords, h.factors, h.weight)
    if key in memo:
        return memo[key]
    if len(h.coords) != h.weight + 1:
        raise AssertionError("object is not univariate")
    if not h.is_simple():
        raise AssertionError("object is not simple")
    last = h.coords[-1]
    if h.weight == 0:
        node = ('one',)
    elif all(f.exps[last] == 0 for f in h.factors):
        # constant in the free variable: its value is the full integral,
        # recovered as the regularized limit of the weight-w function
        inner = _p_recipe(h.coords[:-1], h.factors, trace, memo)
        node = ('const', ('int', inner))
    else:
        parts = []
        for c, obj in reduce_B(h, last):
            if obj.weight != len(obj.coords) - 1:
                raise AssertionError("derivative term is not univariate")
            parts.append((c, _p_recipe(obj.coords, obj.factors, trace,
                                       memo)))
        node = ('int', ('sum', parts))
    memo[key] = node
    return node
