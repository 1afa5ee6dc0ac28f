"""Numeric oracle: independent floating-point evaluation.

Everything here computes values directly from defining sums and integrals,
without using the symbolic reduction machinery, so it can serve as an
independent check of the pipeline output.
"""

import math
import cmath
import itertools
from fractions import Fraction

import numpy as np

from .polylog import mzv_symbol_from_word, MZVSymbol


class EvalResult:
    """A numeric value with an error estimate."""

    __slots__ = ("value", "error")

    def __init__(self, value, error):
        self.value = complex(value)
        self.error = float(error)

    def __repr__(self):
        return "EvalResult(%r, err<=%g)" % (self.value, self.error)


def _log_int_tail(N, k, j):
    """Integral over s > N of (log s)^j / s^k ds, for k >= 2."""
    # substitute s = N e^t: N^(1-k) sum_i C(j,i) (log N)^(j-i) i!/(k-1)^(i+1)
    lo = math.log(N)
    total = 0.0
    for i in range(j + 1):
        total += (math.comb(j, i) * lo ** (j - i) * math.factorial(i)
                  / (k - 1) ** (i + 1))
    return N ** (1 - k) * total


def eval_mzv(ks, eps, terms=2_000_000):
    """Numeric value of zeta(k_1..k_m; eps_1..eps_m) = sum over a in
    (N^x)^m of prod eps_i^(a_i) / prod (a_1+...+a_i)^(k_i).

    eps entries may be RootOfUnity objects or complex numbers of modulus 1.
    Returns an EvalResult.  Raises ValueError on the divergent case
    k_m = 1, eps_m = 1.
    """
    ks = [int(k) for k in ks]
    m = len(ks)
    ev = [complex(e.to_complex()) if hasattr(e, "to_complex") else complex(e)
          for e in eps]
    if len(ev) != m:
        raise ValueError("depth mismatch")
    if m == 0:
        return EvalResult(1.0, 0.0)
    if ks[-1] == 1 and abs(ev[-1] - 1.0) < 1e-12:
        raise ValueError("divergent symbol")
    # rewrite in partial sums: sum over 0 < s_1 < ... < s_m of
    # prod eta_i^(s_i) / s_i^(k_i), with eta_i = eps_i / eps_(i+1)
    etas = [ev[i] / ev[i + 1] for i in range(m - 1)] + [ev[-1]]
    N = int(terms)
    s = np.arange(1, N + 1, dtype=float)
    powers = []
    for eta in etas:
        ang = cmath.phase(eta)
        if abs(eta - 1.0) < 1e-12:
            powers.append(None)  # means all ones
        else:
            powers.append(np.exp(1j * ang * s))
    T = np.ones(N, dtype=complex)  # T_0 evaluated at s (before shift)
    for j in range(m - 1):
        f = T / s ** ks[j]
        if powers[j] is not None:
            f = f * powers[j]
        cs = np.cumsum(f)
        # T_{j+1}(s) = sum over s' < s
        T = np.empty(N, dtype=complex)
        T[0] = 0.0
        T[1:] = cs[:-1]
    f = T / s ** ks[-1]
    if powers[-1] is not None:
        f = f * powers[-1]
    k = ks[-1]
    if powers[-1] is None and k < 2:
        raise ValueError("divergent symbol")

    def estimate(M):
        """Head + tail estimate with the outer sum cut off at M."""
        head = np.sum(f[:M][::-1])  # small terms first
        if powers[-1] is not None:
            eta = etas[-1]
            g_n = f[M - 1] / powers[-1][M - 1]
            g_n1 = f[M - 2] / powers[-1][M - 2]
            dg = g_n - g_n1
            w = eta ** (M + 1) / (1 - eta)
            tail = w * ((g_n + dg) + (eta / (1 - eta)) * dg)
        else:
            # T_{m-1}(s) grows at most like a polynomial in log s; fit one
            # on geometric sample points and integrate the fitted tail
            deg = min(m - 1, 3)
            pts = [M // (2 ** i) for i in range(deg + 1)]
            A = [[math.log(p) ** j for j in range(deg + 1)] for p in pts]
            b = [complex(T[p - 1]) for p in pts]
            coefs = np.linalg.solve(np.array(A), np.array(b))
            M2 = M + 0.5  # midpoint rule for the sum over s >= M+1
            tail = sum(c * _log_int_tail(M2, k, j)
                       for j, c in enumerate(coefs))
        return complex(head + tail)

    # inner partial sums approach their limits only polynomially, which the
    # outer tail formulas cannot see; estimate that drift empirically from
    # three cutoffs and extrapolate it geometrically
    S1, S2, S3 = estimate(N // 4), estimate(N // 2), estimate(N)
    value = S3
    base = abs(S3) * 1e-13 * math.sqrt(m)
    d1, d2 = S3 - S2, S2 - S1
    if abs(d2) > 0 and abs(d1) < 0.9 * abs(d2):
        rho = d1 / d2
        corr = d1 * rho / (1 - rho)
        value = S3 + corr
        err = base + 0.5 * abs(corr) + 1e-12
    else:
        err = base + 2.0 * (abs(d1) + abs(d2)) + 1e-12
    return EvalResult(value, err)


def eval_symbol(sym, terms=2_000_000):
    return eval_mzv(sym.ks, sym.eps, terms)


def eval_word(word, terms=2_000_000):
    """Numeric value of a convergent iterated-integral word at 1."""
    if not word:
        return EvalResult(1.0, 0.0)
    root, sym = mzv_symbol_from_word(word)
    r = eval_symbol(sym, terms)
    c = complex(root.to_complex())
    return EvalResult(c * r.value, r.error)


def eval_zexpr(zx, terms=2_000_000):
    """Numeric value of a ZExpression."""
    total = 0j
    err = 0.0
    for w, c in zx.terms.items():
        r = eval_word(w, terms)
        cc = complex(c.to_complex())
        total += cc * r.value
        err += abs(cc) * r.error
    return EvalResult(total, err)


def zexpr_zero_check(tol=1e-8, terms=500_000):
    """Callback deciding whether a ZExpression vanishes numerically."""
    def check(zx):
        r = eval_zexpr(zx, terms)
        return abs(r.value) <= max(tol, 4 * r.error)
    return check


# ---------------------------------------------------------------------------
# direct evaluation of the defining cone sum

DIRECT_MAX_DIM = 2


def eval_cone_zeta(generators, forms, character=None, radius=400,
                   refine=2):
    """Numeric value of sum over interior(C) cap Z^m of chi(x)/prod l(x)
    by direct enumeration with Richardson extrapolation over the cut-off.

    Supports ambient dimension m <= DIRECT_MAX_DIM (sufficient as an oracle
    for the bundled examples and tests); raises ValueError otherwise.
    """
    from .geometry import Cone, LinearForm

    gens = [tuple(Fraction(x) for x in g) for g in generators]
    m = len(gens[0])
    if m > DIRECT_MAX_DIM:
        raise ValueError("direct enumeration supports dimension <= %d"
                         % DIRECT_MAX_DIM)
    fms = [f if isinstance(f, LinearForm) else LinearForm(f) for f in forms]
    C = Cone(gens)

    def chi_val(x):
        if character is None:
            return 1.0
        return complex(character.eval(list(x)).to_complex())

    def partial(R):
        if m == 1:
            sgn = 1 if gens[0][0] > 0 else -1
            total = 0j
            for t in range(1, R + 1):
                x = (sgn * t,)
                total += chi_val(x) / math.prod(float(f(x)) for f in fms)
            return total
        # vectorized strict-interior enumeration on the [-R, R]^2 grid
        normals = C.facet_normals()
        if C.dim != 2 or not normals:
            raise ValueError("cone must be full-dimensional and pointed")
        rng = np.arange(-R, R + 1)
        x1, x2 = np.meshgrid(rng, rng, indexing="ij")
        mask = np.ones_like(x1, dtype=bool)
        for nrm in normals:
            # normals are covectors on span coordinates; in 2D full rank the
            # span basis is the standard one up to an integer change; work
            # through span_coords on the basis vectors
            c1 = sum(float(a) * float(b) for a, b in
                     zip(nrm, C.span_coords((1, 0))))
            c2 = sum(float(a) * float(b) for a, b in
                     zip(nrm, C.span_coords((0, 1))))
            mask &= (c1 * x1 + c2 * x2) > 1e-9
        vals = np.ones_like(x1, dtype=float)
        for f in fms:
            vals *= (float(f.coeffs[0]) * x1 + float(f.coeffs[1]) * x2)
        xs1 = x1[mask]
        xs2 = x2[mask]
        den = vals[mask]
        if character is None:
            return complex(np.sum(1.0 / den))
        ch = np.array([chi_val((int(a), int(b)))
                       for a, b in zip(xs1, xs2)])
        return complex(np.sum(ch / den))

    # three nested cutoffs with ratio 2, aligned to the character modulus so
    # oscillating partial sums are compared in phase; the tail decays like a
    # power of the cutoff, so extrapolate the drift geometrically
    mod = 1 if character is None else int(character.modulus)
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
                     tolerance=1e-6, terms=2_000_000, radius=400):
    """Compare a ReductionResult against direct numeric evaluation.

    Returns a dict with both values, the difference, and a pass flag.
    """
    sym = eval_zexpr(result.value, terms)
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
