"""Independent reference values for the benchmark's job pool.

    python3 perfbench/make_references.py [--only ID ...]

Reads perfbench/pool.json, computes a reference value for every job with
mpmath alone (conezeta is not imported), and writes each job's "ref" field
back as {"re", "im", "bound", "method"}.  Two methods:

closed form     the job's "closed_form" field, an mpmath expression in
                zeta, pi, li (li(k, a, N) = sum over n >= 1 of
                exp(2 pi i a n / N) / n^k, written as a finite sum of
                Hurwitz zeta values).
row summation   for 2-D cones spanned by (1, 0) and (p, q), q > 0.  Each row
                x2 = t of interior points is summed exactly: partial
                fractions in x1 turn it into Lerch sums at a root of unity,
                i.e. finite sums of Hurwitz zeta and digamma values.  The
                sum over rows is split into residue classes of t on which the
                row sums are analytic in t, and each class is summed by the
                Euler-Maclaurin formula (mpmath.nsum).  The bound is the change from a second run
                with five fewer digits.

A 2-D job with a closed form gets both; they must agree within the bound.
"""

import argparse
import json
import os
from fractions import Fraction
from math import gcd

import mpmath as mp

POOL = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pool.json")
DPS = 18


def mpq(x):
    x = Fraction(x)
    return mp.mpf(x.numerator) / x.denominator


def root(a, n):
    """exp(2 pi i a / n)."""
    return mp.expjpi(mp.mpf(2 * a) / n)


def reduced(a, n):
    a %= n
    g = gcd(a, n)
    return a // g, n // g


def lerch(a, n, j, x):
    """sum over k >= 0 of root(a, n)^k / (k + x)^j.  For j = 1 and a root
    equal to 1 the divergent constant is dropped (callers combine such
    terms with coefficients summing to zero)."""
    a, n = reduced(a, n)
    total = mp.mpc(0)
    for r in range(n):
        w = root(a * r, n)
        if j == 1:
            total += -w * mp.digamma((x + r) / n) / n
        else:
            total += w * mp.zeta(j, (x + r) / n) / mp.mpf(n) ** j
    return total


def li(k, a, n):
    """sum over m >= 1 of root(a, n)^m / m^k, for k >= 2."""
    return root(a, n) * lerch(a, n, k, 1)


def partial_fractions(poles):
    """poles: list of (p, multiplicity).  Returns {(g, j): A} with
    prod_g (x - p_g)^(-k_g) = sum A_{g,j} (x - p_g)^(-j)."""
    out = {}
    for g, (pg, kg) in enumerate(poles):
        others = [(pg - ph, kh) for h, (ph, kh) in enumerate(poles) if h != g]
        # Taylor coefficients at p_g of prod_h (x - p_h)^(-k_h) via its log
        logc = [mp.mpf(0)] + [
            -sum(kh * (-1) ** (k - 1) / (k * d ** k) for d, kh in others)
            for k in range(1, kg)]
        coef = [mp.mpf(1)]
        for d, kh in others:
            coef[0] /= d ** kh
        for n in range(1, kg):
            coef.append(sum(k * logc[k] * coef[n - k]
                            for k in range(1, n + 1)) / n)
        for j in range(1, kg + 1):
            out[(g, j)] = coef[kg - j]
    return out


def row_sum(t, x0, phase, forms, N, e1):
    """Sum over x1 >= x0 of phase * root(e1, N)^(x1 - x0) / prod l(x1, t);
    analytic in real t and x0."""
    const = phase
    groups = {}
    for a, b in forms:
        if a == 0:
            const /= mpq(b) * t
        else:
            const /= mpq(a)
            groups[b / a] = groups.get(b / a, 0) + 1
    poles = [(-mpq(ratio) * t, k) for ratio, k in sorted(groups.items())]
    total = mp.mpc(0)
    for (g, j), A in partial_fractions(poles).items():
        total += A * lerch(e1, N, j, x0 - poles[g][0])
    return const * total


def cone_sum_2d(gens, forms, chi):
    """Sum over the interior of cone((1,0), (p,q)) of chi(x) / prod l(x).
    Rows t = r + period * j of one residue class r share the phase and have
    x0 = floor(p t / q) + 1 linear in j, so the row sums are analytic in j
    and the Euler-Maclaurin formula applies to the sum over j."""
    (g1, g2) = gens
    if list(g1) != [1, 0] or g2[1] <= 0:
        raise ValueError("row summation needs generators (1,0), (p,q>0)")
    p, q = g2
    N, (e1, e2) = chi
    period = q * N
    total = mp.mpc(0)
    for r in range(1, period + 1):
        c = (p * r) // q + 1
        phase = root(e1 * c + e2 * r, N)
        total += mp.nsum(
            lambda j: row_sum(r + period * j, c + p * N * j, phase, forms,
                              N, e1),
            [0, mp.inf], method="euler-maclaurin")
    return total


def job_chi(job):
    m = job["ambientDim"]
    ch = job.get("character")
    if ch is None:
        return 1, [0] * m
    return ch["modulus"], ch["exponents"]


def reference(job, closed_form):
    gens = job["cone"]["generators"]
    forms = [[Fraction(x) for x in f] for f in job["forms"]]
    chi = job_chi(job)
    eps = mp.mpf(10) ** (3 - DPS)
    methods, values = [], []
    if closed_form is not None:
        v = mp.mpc(eval(closed_form, {"__builtins__": {}, "zeta": mp.zeta,
                                      "pi": mp.pi, "li": li}))
        values.append((v, eps))
        methods.append("closed form %s (mpmath, %d digits)"
                       % (closed_form, DPS))
    if job["ambientDim"] == 2:
        v = cone_sum_2d(gens, forms, chi)
        with mp.workdps(DPS - 5):
            err = abs(v - cone_sum_2d(gens, forms, chi))
        values.append((v, err + eps))
        methods.append("row summation: Hurwitz/digamma rows, Euler-Maclaurin over "
                       "residue classes (mpmath, %d digits)" % DPS)
    if not values:
        raise ValueError("no reference method for this job")
    v, bound = values[0]
    for w, b in values[1:]:
        if abs(w - v) > bound + b:
            raise ArithmeticError("methods disagree: %s vs %s" % (v, w))
    return {"re": float(v.real), "im": float(v.imag),
            "bound": float(max(b for _, b in values)),
            "method": "; ".join(methods)}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--only", nargs="*", default=None)
    args = ap.parse_args()
    mp.mp.dps = DPS
    with open(POOL) as fh:
        pool = json.load(fh)
    for name, slots in pool["workloads"].items():
        for slot in slots:
            if args.only and slot["id"] not in args.only:
                continue
            slot["ref"] = reference(slot["job"], slot.get("closed_form"))
            print(name, slot["id"], slot["ref"], flush=True)
    with open(POOL, "w") as fh:
        json.dump(pool, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
