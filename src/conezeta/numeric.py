"""Numeric oracle: independent floating-point evaluation.

Everything here computes values from defining sums, convergent series and
integrals, without using the symbolic reduction machinery, so it can serve
as an independent check of the pipeline output.
"""

import math
from fractions import Fraction

from .exact import RootOfUnity
from .linalg import mat_inverse
from .polylog import mzv_symbol_from_word


class EvalResult:
    """A numeric value with an error estimate."""

    __slots__ = ("value", "error")

    def __init__(self, value, error):
        self.value = complex(value)
        self.error = float(error)

    def __repr__(self):
        return "EvalResult(%r, err<=%g)" % (self.value, self.error)


# unit roundoff of a double, and the truncation error each series aims for
_U = 2.0 ** -53
_TAIL = 1e-17


def _tail_bound(r, k, M):
    """Bound on sum over n > M of r^n (1+log n)^(k-1) / (n (k-1)!).

    That term bounds the n-th scaled series coefficient of a word with k
    nonzero letters whose ratios |y/b| are all at most r < 1: the nested
    sum over n > n_2 > ... > n_k > 0 of 1/(n n_2...n_k) is at most
    H_(n-1)^(k-1) / (n (k-1)!).  Here (1+log x)^(k-1)/x decreases beyond
    e^(k-2), so its largest value over n > M times the geometric tail
    r^(M+1)/(1-r) bounds the sum.
    """
    x = max(M + 1.0, math.exp(k - 2))
    f = (1 + math.log(x)) ** (k - 1) / (x * math.factorial(k - 1))
    return r ** (M + 1) * f / (1 - r)


def _nested_series(letters, y, terms):
    """Values and error bounds of G(b_l, ..., b_1; y) for l = 0..len(letters),
    where letters = [b_1, b_2, ...] lists the innermost letter first, None
    stands for the letter 0, b_1 is nonzero and |y/b| < 1 for every nonzero
    letter b.

    G(b_l..b_1; y) is the integral over 0 < t < y of G(b_(l-1)..b_1; t)
    dt/(t - b_l).  With every power series coefficient c_n scaled to
    c_n y^n, a letter 0 divides coefficient n by n, and a letter b turns
    coefficients c into -z e_(n-1)/n with e_n = c_n + z e_(n-1), z = y/b.
    All levels run up to one length: the shortest whose proven tail
    (_tail_bound) is below _TAIL at every level, capped at `terms`.  The
    rounding term runs the same recurrences on absolute values: a term of
    index n on level l passes through at most n + l steps, each step
    rounds a few times and multiplies by a z carrying the error of its
    letter.
    """
    zs = [None if b is None else y / b for b in letters]
    ratios, depths = [], []
    r, k = 0.0, 0
    for z in zs:
        if z is not None:
            r, k = max(r, abs(z)), k + 1
        ratios.append(r)
        depths.append(k)
    M = 0
    for r, k in zip(ratios, depths):
        n = max(int(math.log(_TAIL * (1 - r)) / math.log(r)), M)
        while n < terms and _tail_bound(r, k, n) > _TAIL:
            n += 1
        M = min(n, terms)
    # one step is a complex multiply by z, an add and a divide (under 5
    # units of roundoff) plus the relative error of z: y is exact, and a
    # letter a or 1 - a is off by under 20 units absolute (to_complex)
    step = 8 + 20 / min(abs(b) for b in letters if b is not None)

    L = len(zs)
    c, e = [0j] * L, [0j] * L
    ac, ae = [0.0] * L, [0.0] * L
    cols = [[] for _ in range(L)]
    weight = [0.0] * L
    for n in range(1, M + 1):
        # coefficients n-1 (prev) and n (cur) of level 0, the constant 1
        prev = aprev = 1.0 if n == 1 else 0.0
        cur = acur = 0.0
        for l, z in enumerate(zs):
            below, abelow = prev, aprev  # coefficient n-1 of level l-1
            prev, aprev = c[l], ac[l]
            if z is None:
                cur, acur = cur / n, acur / n
            else:
                e[l] = below + z * e[l]
                ae[l] = abelow + abs(z) * ae[l]
                cur, acur = -z * e[l] / n, abs(z) * ae[l] / n
            c[l], ac[l] = cur, acur
            cols[l].append(cur)
            weight[l] += (n + l + 1) * acur
    out = [(1 + 0j, 0.0)]
    for l in range(L):
        v = complex(math.fsum(x.real for x in cols[l]),
                    math.fsum(x.imag for x in cols[l]))
        err = (_tail_bound(ratios[l], depths[l], M)
               + _U * (step * weight[l] + 2 * abs(v)))
        out.append((v, err))
    return out


def eval_mzv(ks, eps, terms=2_000_000):
    """Numeric value of zeta(k_1..k_m; eps_1..eps_m) = sum over a in
    (N^x)^m of prod eps_i^(a_i) / prod (a_1+...+a_i)^(k_i).

    eps entries are RootOfUnity objects.  Returns an EvalResult.  Raises
    ValueError on the divergent case k_m = 1, eps_m = 1.

    Uses the Hoelder convolution of Borwein, Bradley, Broadhurst and
    Lisonek ("Special values of multiple polylogarithms", 2001): the value
    is (-1)^m G(a_1..a_n; 1), the multiple polylogarithm of the word
    0^(k_m-1) 1/eps_m ... 0^(k_1-1) 1/eps_1.  Splitting its path at
    x = 1/(1+d), d = min(1, |1-a| over letters a other than 0 and 1), gives
    G(a_1..a_n; 1) = sum_j (-1)^j G(1-a_j..1-a_1; 1-x) G(a_(j+1)..a_n; x),
    and every factor is a power series whose terms shrink geometrically by
    1/(1+d) (1/2 for roots of order at most 6).  `terms` caps the length
    of each series; the default never binds.  The error is the proven
    truncation bound of every series plus a bound on floating-point
    rounding.
    """
    ks = [int(k) for k in ks]
    m = len(ks)
    if len(eps) != m:
        raise ValueError("depth mismatch")
    if m == 0:
        return EvalResult(1.0, 0.0)
    if min(ks) < 1:
        raise ValueError("weights must be positive")
    word = []  # (letter, letter is exactly 1), outermost first; None is 0
    for k, e in zip(reversed(ks), reversed(eps)):
        a = e.inverse()  # the letter 1/e, inverted exactly
        word += [(None, False)] * (k - 1) + [(a.to_complex(), a.is_one())]
    if word[0][1]:
        raise ValueError("divergent symbol")
    d = min([1.0] + [abs(1 - a) for a, one in word
                     if a is not None and not one])
    x = 1 / (1 + d)
    left = _nested_series([1 + 0j if a is None else None if one else 1 - a
                           for a, one in word], 1 - x, terms)
    right = _nested_series([a for a, _ in reversed(word)], x, terms)
    n = len(word)
    total, err, size = 0j, 0.0, 0.0
    for j in range(n + 1):
        (lv, lerr), (rv, rerr) = left[j], right[n - j]
        total += (-1) ** j * lv * rv
        err += abs(lv) * rerr + abs(rv) * lerr + lerr * rerr
        size += abs(lv * rv)
    err += _U * (n + 3) * size
    return EvalResult((-1) ** m * total, err)


def eval_word(word):
    """Numeric value of a convergent iterated-integral word at 1."""
    if not word:
        return EvalResult(1.0, 0.0)
    root, sym = mzv_symbol_from_word(word)
    r = eval_mzv(sym.ks, sym.eps)
    c = complex(root.to_complex())
    return EvalResult(c * r.value, r.error)


def eval_zexpr(zx):
    """Numeric value of a ZExpression: every word goes through eval_mzv,
    and the error is the sum of the word errors weighted by the moduli of
    their coefficients."""
    total = 0j
    err = 0.0
    for w, c in zx.terms.items():
        r = eval_word(w)
        cc = complex(c.to_complex())
        total += cc * r.value
        err += abs(cc) * r.error
    return EvalResult(total, err)


ZERO_TOL = 1e-8


def zexpr_zero_check():
    """Callback deciding whether a ZExpression vanishes numerically: its
    eval_zexpr value has modulus at most max(ZERO_TOL, 4 * error).  That
    error is far below ZERO_TOL, so ZERO_TOL decides."""
    def check(zx):
        r = eval_zexpr(zx)
        return abs(r.value) <= max(ZERO_TOL, 4 * r.error)
    return check


# ---------------------------------------------------------------------------
# direct evaluation of the defining cone sum

DIRECT_MAX_DIM = 2


def _character_values(character, m):
    """Vectorised character: a function taking an (n, m) int64 array of
    lattice points to the n complex values chi(x), each equal bit for bit
    to complex(character.eval(x).to_complex()).

    The square basis B (rows are basis vectors) is inverted exactly once:
    B^-1 = A / q with A integer, so a point x = c B has coordinates
    c = (x A) / q and chi(x) = zeta_N^(c . exps).  A is reduced mod q N,
    which keeps both the divisibility by q and the class of c mod N.
    Raises ValueError for a basis that is not square of size m or is
    singular, and for a point outside the lattice.
    """
    import numpy as np

    B = character.basis
    if len(B) != m or any(len(row) != m for row in B):
        raise ValueError("character basis must be square of size %d" % m)
    inv = mat_inverse(B)
    q = math.lcm(*(x.denominator for row in inv for x in row))
    N = character.modulus
    A = np.array([[int(x * q) % (q * N) for x in row] for row in inv],
                 dtype=np.int64)
    exps = np.array(character.exps, dtype=np.int64)
    table = np.array([complex(RootOfUnity(N, j).to_complex())
                      for j in range(N)])

    def values(X):
        qc = X @ A
        off = np.any(qc % q, axis=1)
        if off.any():
            x = tuple(int(v) for v in X[np.argmax(off)])
            raise ValueError("point %r is not in the lattice" % (x,))
        return table[((qc // q) @ exps) % N]

    return values


def _hurwitz_sum(g, fms, P, chi):
    """The 1-D cone sum in closed form.  With s the sign of the generator g
    and P the character modulus, the points are x = s k for k >= 1, chi(s k)
    has period P in k, and for forms l_i(x) = c_i x the sum is

        P^-n sum_{r=1..P} chi(s r) zeta(n, r/P) / prod(c_i s),

    a finite sum of Hurwitz zeta values, taken by mpmath at 30 digits.  The
    bound covers the character values (each within 10 units of roundoff of
    its root) and the rounding of the result to doubles."""
    import mpmath as mp
    import numpy as np

    n = len(fms)
    s = 1 if g > 0 else -1
    den = math.prod(Fraction(f[0]) * s for f in fms)
    if n < 2 or den == 0:
        raise ValueError("the 1-D sum diverges")
    ks = np.arange(1, P + 1)
    vals = np.ones(P) if chi is None else chi(s * ks[:, None])
    with mp.workdps(30):
        terms = [mp.mpc(v) * mp.zeta(n, mp.mpf(int(k)) / P)
                 for k, v in zip(ks, vals)]
        scale = mp.mpf(P) ** n * den.numerator / den.denominator
        total = mp.fsum(terms) / scale
        size = mp.fsum(abs(t) for t in terms) / abs(scale)
    return EvalResult(complex(total), 11 * _U * float(size))


def eval_cone_zeta(generators, forms, character=None, radius=400,
                   refine=2):
    """Numeric value of sum over interior(C) cap Z^m of chi(x)/prod l(x).

    In dimension 1 the sum is a finite sum of Hurwitz zeta values, exact up
    to rounding; it needs at least two forms.  In dimension 2 it is direct
    enumeration up to cut-offs set by `radius` and `refine`, with
    Richardson extrapolation over the cut-off.  Supports ambient dimension
    m <= DIRECT_MAX_DIM (sufficient as an oracle for the bundled examples
    and tests); raises ValueError otherwise.  The character is evaluated
    over all points at once from one exact inverse of its basis; a basis
    that is not square or is singular, or a point outside the character's
    lattice, raises ValueError.
    """
    import numpy as np

    from .geometry import Cone

    gens = [tuple(Fraction(x) for x in g) for g in generators]
    m = len(gens[0])
    if m > DIRECT_MAX_DIM:
        raise ValueError("direct enumeration supports dimension <= %d"
                         % DIRECT_MAX_DIM)
    C = Cone(gens)
    chi = None if character is None else _character_values(character, m)
    mod = 1 if character is None else int(character.modulus)
    if m == 1:
        return _hurwitz_sum(gens[0][0], forms, mod, chi)

    def partial(R):
        # vectorized strict-interior enumeration on the [-R, R]^2 grid;
        # a full-dimensional cone's span basis is the standard one, so
        # its facet normals are covectors on the grid coordinates
        normals = C.facet_normals()
        if C.dim != 2 or not normals:
            raise ValueError("cone must be full-dimensional and pointed")
        rng = np.arange(-R, R + 1)
        x1, x2 = rng[:, None], rng[None, :]
        mask = np.ones((rng.size, rng.size), dtype=bool)
        for c1, c2 in normals:
            mask &= (float(c1) * x1 + float(c2) * x2) > 1e-9
        X = rng[np.argwhere(mask)]
        den = np.ones(len(X))
        for f in forms:
            den *= sum(float(c) * X[:, i] for i, c in enumerate(f))
        if chi is None:
            return complex(np.sum(1.0 / den))
        return complex(np.sum(chi(X) / den))

    # three nested cutoffs with ratio 2, aligned to the character modulus so
    # oscillating partial sums are compared in phase; the tail decays like a
    # power of the cutoff, so extrapolate the drift geometrically
    u = max(int(refine) * int(radius) // (4 * mod), 1)
    S1, S2, S3 = partial(u * mod), partial(2 * u * mod), partial(4 * u * mod)
    d1, d2 = S3 - S2, S2 - S1
    if abs(d2) > 0 and abs(d1) < 0.9 * abs(d2):
        rho = d1 / d2
        corr = d1 * rho / (1 - rho)
        return EvalResult(S3 + corr,
                          max(0.5 * abs(corr) + 1e-3 * abs(d1), 1e-12))
    return EvalResult(S3, max(2.0 * (abs(d1) + abs(d2)), 1e-12))


# ---------------------------------------------------------------------------
# quadrature of multivariate factor integrands

def integrand_eval(I, y):
    """Value of an Integrand at a point y of the open unit box."""
    total = complex(I.coeff.to_complex())
    for f in I.factors:
        mono = 1.0
        for e, yi in zip(f.exps, y):
            if e:
                mono *= yi ** e
        u = complex(f.root.to_complex()) * mono
        total *= u ** f.s / (1.0 - u) ** f.mu
    return total


def quad_check(I, maxdegree=9):
    """Box integral of an Integrand against prod dy_i/y_i by nested
    tanh-sinh quadrature (mpmath).  Slow; intended for low dimensions."""
    import mpmath as mp

    n = I.nvars

    def rec(vals, depth):
        if depth == n:
            y = list(vals)
            return integrand_eval(I, y) / math.prod(y)
        def inner(t):
            # float() may round nodes very close to 1 up to exactly 1.0,
            # where pole factors blow up; keep strictly inside the box
            x = min(float(t), 1.0 - 1e-15)
            return rec(vals + [x], depth + 1)
        return mp.quad(inner, [0, 1], maxdegree=maxdegree)

    return complex(rec([], 0))


def verify_reduction(result, generators, forms, character=None,
                     tolerance=1e-6, radius=400):
    """Compare a ReductionResult against direct numeric evaluation.

    Returns a dict with both values, the difference, and a pass flag.
    """
    sym = eval_zexpr(result.value)
    ref = eval_cone_zeta(generators, forms, character, radius=radius)
    diff = abs(sym.value - ref.value)
    budget = max(tolerance, 4 * (sym.error + ref.error))
    return {
        "symbolic": sym.value,
        "symbolic_error": sym.error,
        "direct": ref.value,
        "direct_error": ref.error,
        "difference": diff,
        "tolerance": budget,
        "ok": diff <= budget,
    }
