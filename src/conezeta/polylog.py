"""One-variable polylogarithm algebra.

Functions of a single variable y are kept in a normal form

    sum over (e, m) and words w of  c_{e,m,w} * (1 - e*y)^(-m) * I(y; w)

where I(y; w) is the iterated integral of the word w from 0 to y, built from
the letters dt/t (written None) and dt/(1-e*t) for roots of unity e.  Values
of convergent words at y=1 are kept symbolically in ZExpression objects;
limits at y=1 of the normal forms are computed through germ expansions in
powers of s = 1-y and T = -log(1-y).
"""

from fractions import Fraction
from functools import lru_cache
from math import lcm

from .exact import CycloNumber, ONE_ROOT, nth_roots, one_minus_inverse

ONE = CycloNumber.from_rational(1, 1)

W0 = None  # the letter dt/t


class DivergentResult(Exception):
    """A regularized limit failed its vanishing checks."""


def _is_one_root(letter):
    return letter is not None and letter.is_one()


def word_is_convergent(word):
    """I(1; word) converges iff the word does not start with dt/(1-t)."""
    return len(word) == 0 or not _is_one_root(word[0])


# ---------------------------------------------------------------------------
# shuffle algebra and symbolic values of words at 1

def shuffle(u, v):
    """Shuffle product of two words: dict word -> integer multiplicity."""
    u, v = tuple(u), tuple(v)
    if not u:
        return {v: 1}
    if not v:
        return {u: 1}
    out = {}
    for w, c in shuffle(u[1:], v).items():
        key = (u[0],) + w
        out[key] = out.get(key, 0) + c
    for w, c in shuffle(u, v[1:]).items():
        key = (v[0],) + w
        out[key] = out.get(key, 0) + c
    return out


class _Combination:
    """Sparse linear combination: a dict key -> coefficient holding no zero
    coefficient.  Every sum of coefficients goes through _add_term."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        for k, c in (terms or {}).items():
            self._add_term(k, c)

    def _add_term(self, key, coeff):
        """Add coeff at key, dropping the key when the sum cancels."""
        cur = self.terms.get(key)
        s = coeff if cur is None else cur + coeff
        if s.is_zero():
            self.terms.pop(key, None)
        else:
            self.terms[key] = s

    def __add__(self, other):
        out = type(self)(self.terms)
        for k, c in other.terms.items():
            out._add_term(k, c)
        return out

    def scale(self, c):
        """Multiply every coefficient by c: a scalar, or for a PNormalForm
        also a ZExpression, through the shuffle product."""
        return type(self)({k: x * c for k, x in self.terms.items()})

    def is_zero(self):
        return not self.terms


class ZExpression(_Combination):
    """Q^ab-linear combination of values I(1; w) of convergent words."""

    __slots__ = ()

    @staticmethod
    def from_cyclo(c):
        return ZExpression({(): c})

    @staticmethod
    def one():
        return ZExpression({(): ONE})

    @staticmethod
    def from_word(word):
        if not word_is_convergent(word):
            raise ValueError("divergent word has no value")
        return ZExpression({tuple(word): ONE})

    def __neg__(self):
        return ZExpression({w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """Product via the shuffle relation for iterated integrals."""
        if isinstance(other, CycloNumber):
            return self.scale(other)
        out = ZExpression()
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                c = c1 * c2
                for w, mult in shuffle(w1, w2).items():
                    out._add_term(w, c * mult)
        return out

    def evaluate(self, word_value):
        """Numeric value given a callback word -> complex."""
        total = 0j
        for w, c in self.terms.items():
            total += complex(c.to_complex()) * (word_value(w) if w else 1.0)
        return total

    def __repr__(self):
        if not self.terms:
            return "ZExpression(0)"
        bits = []
        for w, c in sorted(self.terms.items(), key=lambda t: (len(t[0]), repr(t[0]))):
            bits.append("%r * I%s" % (c, ["0" if l is None else "%d/%d" % (l.exp, l.order) for l in w]))
        return "ZExpression(" + " + ".join(bits) + ")"


class MZVSymbol:
    """Cyclotomic multiple zeta symbol zeta(k_1..k_m; eps_1..eps_m).

    The value is sum over a in (N^x)^m of prod eps_i^(a_i) divided by
    prod (a_1+...+a_i)^(k_i).
    """

    __slots__ = ("ks", "eps")

    def __init__(self, ks, eps):
        self.ks = tuple(int(k) for k in ks)
        self.eps = tuple(eps)
        if len(self.ks) != len(self.eps):
            raise ValueError("depth mismatch")

    def __eq__(self, other):
        return (isinstance(other, MZVSymbol) and self.ks == other.ks
                and self.eps == other.eps)

    def __hash__(self):
        return hash((self.ks, self.eps))

    def __repr__(self):
        e = ",".join("%d/%d" % (x.exp, x.order) for x in self.eps)
        return "zeta(%s; %s)" % (",".join(map(str, self.ks)), e)


def mzv_symbol_from_word(word):
    """Convert a convergent word to (root coefficient, MZVSymbol) with
    I(1; word) = coeff * zeta(ks; eps)."""
    if not word_is_convergent(word):
        raise ValueError("divergent word")
    if not word or word[-1] is None:
        raise ValueError("not a value word")
    ks = []
    es = []
    k = 1
    for letter in word:
        if letter is None:
            k += 1
        else:
            ks.append(k)
            es.append(letter)
            k = 1
    # I(1; w) = (e_1...e_m)^(-1) zeta(k_m..k_1; e_m..e_1)
    prod = ONE_ROOT
    for e in es:
        prod = prod * e
    return prod.inverse(), MZVSymbol(tuple(reversed(ks)), tuple(reversed(es)))


# ---------------------------------------------------------------------------
# P-normal forms

class PNormalForm(_Combination):
    """Linear combination of (1-e*y)^(-m) * I(y; w) with ZExpression
    coefficients.  Keys are ((e, m), word) with (None, 0) for the pole-free
    part."""

    __slots__ = ()

    @staticmethod
    def one():
        return PNormalForm({((None, 0), ()): ZExpression.one()})

    @staticmethod
    def constant(z):
        return PNormalForm({((None, 0), ()): z})

    def __repr__(self):
        return "PNormalForm(%d terms)" % len(self.terms)


def _pole_key(pairs):
    """(root, power) pairs as the key of _partial_fractions: equal roots
    merged, zero powers dropped, sorted by root."""
    poles = {}
    for b, m in pairs:
        if m:
            poles[b] = poles.get(b, 0) + m
    return tuple(sorted(poles.items(), key=lambda t: t[0].sort_key()))


@lru_cache(maxsize=None)
def _partial_fractions(j, poles):
    """Partial fractions of y^j * prod (1-b*y)^(-m) over the distinct
    (b, m) pairs of `poles`, sorted by root: a tuple of ((root, m),
    CycloNumber) pairs, with (None, 0) for the constant part.  Requires
    j <= sum(m)."""
    if j > sum(m for _, m in poles):
        raise AssertionError("numerator power exceeds pole degree")
    if j:
        # y (1-by)^(-m) = (1/b) [(1-by)^(-m) - (1-by)^(-m+1)]
        (b, m), rest = poles[0], poles[1:]
        binv = b.inverse().to_cyclo()
        parts = ((poles, binv), (_pole_key(((b, m - 1),) + rest), -binv))
        j -= 1
    elif len(poles) > 1:
        # 1/((1-ay)(1-by)) = A/(1-ay) + B/(1-by) with A = a/(a-b)
        # = 1/(1 - b/a) and B = -b/(a-b) = 1 - A, of modulus lcm(a, b)
        (a, p), (b, q), rest = poles[0], poles[1], poles[2:]
        A = one_minus_inverse(b * a.inverse()).embed(lcm(a.order, b.order))
        parts = ((_pole_key(((a, p), (b, q - 1)) + rest), A),
                 (_pole_key(((a, p - 1), (b, q)) + rest), 1 - A))
    else:
        return ((poles[0] if poles else (None, 0), ONE),)
    out = _Combination()
    for sub, c in parts:
        for pole, c2 in _partial_fractions(j, sub):
            out._add_term(pole, c * c2)
    return tuple(out.terms.items())


def multiply_factor(pnf, root, c, mu, s):
    """Multiply a normal form by (e y^c)^s / (1 - e y^c)^mu.

    Requires s <= mu when mu >= 1 (pole factors) or mu == 0 (monomials are
    folded only if existing poles can absorb them).
    """
    roots = nth_roots(root, c) if mu >= 1 else []
    out = PNormalForm()
    rs = (root ** s).to_cyclo()
    for ((e, m), word), coeff in pnf.terms.items():
        poles = _pole_key([(e, m)] + [(b, mu) for b in roots])
        coeff2 = coeff * rs
        for pole, c2 in _partial_fractions(c * s, poles):
            out._add_term((pole, word), coeff2 * c2)
    return out


# ---------------------------------------------------------------------------
# kernel integration

def integrate_P(pnf, check_zero=None):
    """Integral from 0 to y of F(t) dt/t.

    The combination must vanish at 0; the residual coefficient is checked
    with `check_zero` (a callback ZExpression -> bool) or must be
    structurally zero.
    """
    out = PNormalForm()
    residual = ZExpression()
    for ((e, m), word), coeff in pnf.terms.items():
        if word:
            out._add_term(((None, 0), (W0,) + word), coeff)
        else:
            residual = residual + coeff
        if m:
            # 1/(t(1-et)^m) = 1/t + sum_{i<=m} e/(1-et)^i
            ec = e.to_cyclo()
            for i in range(1, m + 1):
                part = _int_pole(e, i, word)
                out = out + part.scale(coeff * ec)
    if not residual.is_zero():
        if check_zero is None or not check_zero(residual):
            raise DivergentResult("dt/t integral of a function with "
                                  "nonzero value at 0")
    return out


def _int_pole(b, nu, word):
    """Integral from 0 to y of (1-bt)^(-nu) I(t; word) dt as a PNormalForm."""
    word = tuple(word)
    if nu == 0:
        raise ValueError("pole power must be positive")
    if nu == 1:
        return PNormalForm({((None, 0), (b,) + word): ZExpression.one()})
    pref = b.inverse().to_cyclo() * Fraction(1, nu - 1)
    if not word:
        # closed form ((1-by)^(1-nu) - 1)/(b(nu-1))
        return PNormalForm({((b, nu - 1), ()): ZExpression.from_cyclo(pref),
                            ((None, 0), ()): ZExpression.from_cyclo(-pref)})
    out = PNormalForm({((b, nu - 1), word): ZExpression.from_cyclo(pref)})
    head, rest = word[0], word[1:]
    if head is None:
        # int (1-bt)^(1-nu) I(t; rest) dt/t
        sub = integrate_P(PNormalForm({((b, nu - 1), rest):
                                       ZExpression.one()}))
    else:
        poles = _pole_key([(b, nu - 1), (head, 1)])
        sub = PNormalForm()
        for (r2, m2), c2 in _partial_fractions(0, poles):
            sub = sub + _int_pole(r2, m2, rest).scale(c2)
    return out + sub.scale(-pref)


# ---------------------------------------------------------------------------
# numeric word values (series in y, |y| <= 1 with convergence at the rim
# handled by the caller's choice of y)

def word_value_series(word, y, nterms=4000):
    """I(y; word) by power series with nterms coefficients."""
    import numpy as np
    coeffs = np.zeros(nterms, dtype=complex)
    coeffs[0] = 1.0  # represents the constant function 1 (index = exponent)
    for letter in reversed(word):
        new = np.zeros(nterms, dtype=complex)
        if letter is None:
            # integrate f/t
            for nn in range(1, nterms):
                new[nn] = coeffs[nn] / nn
            coeffs = new
        else:
            e = complex(letter.to_complex())
            # g = int (sum_a (et)^a) f dt: s_N = e*s_{N-1} + c_{N-1}
            s = 0j
            for nn in range(1, nterms):
                s = e * s + coeffs[nn - 1]
                new[nn] = s / nn
            coeffs = new
    ys = complex(y)
    # Horner from the top
    total = 0j
    for nn in range(nterms - 1, -1, -1):
        total = total * ys + coeffs[nn]
    return total


def pnf_value(pnf, y, nterms=4000):
    """Numeric value of a normal form at y (0 < y < 1)."""
    total = 0j
    for ((e, m), word), coeff in pnf.terms.items():
        c = coeff.evaluate(lambda w: word_value_series(w, 1.0, nterms))
        v = c * (word_value_series(word, y, nterms) if word else 1.0)
        if m:
            v /= (1 - complex(e.to_complex()) * y) ** m
        total += v
    return total


# ---------------------------------------------------------------------------
# germs at y = 1 and regularized limits

@lru_cache(maxsize=None)
def word_regularization(word):
    """Shuffle-regularized expansion of I(y; word) at y=1: dict T-power ->
    ZExpression, where T = -log(1-y).  `word` is a tuple."""
    if word_is_convergent(word):
        out = {0: ZExpression.from_word(word)} if word else {0: ZExpression.one()}
    else:
        w1 = word[0]  # the letter dt/(1-t)
        rest = word[1:]
        sh = shuffle((w1,), rest)
        a = sh.get(word, 0)
        if a <= 0:
            raise AssertionError("shuffle regularization failed")
        # T * reg(rest)
        acc = _Combination({i + 1: c for i, c in
                            word_regularization(rest).items()})
        for v, mult in sh.items():
            if v != word:
                for i, c in word_regularization(v).items():
                    acc._add_term(i, c.scale(-mult))
        out = {i: c.scale(Fraction(1, a)) for i, c in acc.terms.items()}
    return out


@lru_cache(maxsize=None)
def _pole_germ(e, m, order):
    """Series in s of (1 - e*y)^(-m) at y = 1-s: dict s-power ->
    CycloNumber, with s-powers up to `order` (a single s^(-m) when e = 1)."""
    if m == 0:
        return {0: ONE}
    if e.is_one():
        return {-m: ONE}
    ec = e.to_cyclo()
    inv = one_minus_inverse(e)
    base = ONE
    for _ in range(m):
        base = base * inv
    out = {}
    cur = base
    ratio = -(ec * inv)
    for t in range(order + 1):
        out[t] = cur
        # binomial(m+t, t+1)/binomial(m-1+t, t) = (m+t)/(t+1)
        cur = cur * ratio * Fraction(m + t, t + 1)
    return out


@lru_cache(maxsize=None)
def word_germ(word, order):
    """Germ of I(y; word) at y=1: dict (s-power, T-power) -> ZExpression,
    with s-powers 0..order and exact T-polynomial part.  `word` is a
    tuple."""
    if not word:
        return {(0, 0): ZExpression.one()}
    sub = word_germ(word[1:], order + 1)
    # the kernel at y = 1-s: dt/t or dt/(1-e*t)
    ker = ({t: ONE for t in range(order + 2)} if word[0] is None
           else _pole_germ(word[0], 1, order + 1))
    # dF/ds = -kernel(s) * sub(s)
    deriv = _Combination()
    for (a1, i), c in sub.items():
        for a2, k in ker.items():
            if a1 + a2 <= order:
                deriv._add_term((a1 + a2, i), c.scale(-k))
    out = _Combination()
    for (a, i), c in deriv.terms.items():
        if a == -1:
            # antiderivative of s^-1 T^i is -T^(i+1)/(i+1)
            out._add_term((0, i + 1), c.scale(Fraction(-1, i + 1)))
        else:
            # antiderivative of s^a T^i: sum_{t<=i} c_t s^(a+1) T^t
            coefs = {i: Fraction(1, a + 1)}
            for t in range(i, 0, -1):
                coefs[t - 1] = coefs[t] * t / (a + 1)
            for t, q in coefs.items():
                out._add_term((a + 1, t), c.scale(q))
    # pure T-polynomial layer: T^(i>=1) already from s^-1 pieces; the
    # constant term comes from shuffle regularization
    reg0 = word_regularization(word).get(0)
    if reg0 is not None:
        out._add_term((0, 0), reg0)
    return out.terms


def regularize_limit(pnf, check_zero=None):
    """Limit of a normal form as y -> 1, as a ZExpression.

    Raises DivergentResult if a pole or logarithmic coefficient of the germ
    at y=1 does not vanish (structurally, or via the `check_zero` callback).
    """
    J = 0
    for ((e, m), _w), _c in pnf.terms.items():
        if m and e.is_one():
            J = max(J, m)
    layers = _Combination()
    for ((e, m), word), coeff in pnf.terms.items():
        pole = _pole_germ(e, m, J)
        for (a1, i), c in word_germ(word, J).items():
            for a2, k in pole.items():
                if a1 + a2 <= 0:
                    layers._add_term((a1 + a2, i), (c * coeff).scale(k))
    bad = [v for (a, i), v in layers.terms.items() if a < 0 or i > 0]
    if bad:
        if check_zero is None or not all(check_zero(v) for v in bad):
            raise DivergentResult("nonvanishing singular coefficients at y=1")
    return layers.terms.get((0, 0), ZExpression())
