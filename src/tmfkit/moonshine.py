"""Weight-zero Hecke operators, the Faber polynomial basis j_n, the generating
function for their constant terms, and the generalized prize-manifold forms.

j_1 = j - 744; for n >= 1 the function j_n is the unique monic degree-n integer
polynomial in j whose expansion is q^{-n} + O(q).
"""

from dataclasses import dataclass, field

from . import modforms, qseries
from .exactalg import PrecisionError, format_terms
from .modforms import MFPolynomial
from .qseries import QExpansion


class JPolynomial:
    """Integer polynomial in the j-function, stored low degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = [int(c) for c in coeffs]
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        if not coeffs:
            coeffs = [0]
        self.coeffs = coeffs

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def constant_term(self):
        return self.coeffs[0]

    def is_monic(self):
        return self.coeffs[-1] == 1

    def coefficient(self, k):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def evaluate_qexp(self, j):
        """Evaluate at a q-expansion of j (Horner, highest power first)."""
        total = QExpansion(0, [self.coeffs[-1]], j.prec)
        for c in reversed(self.coeffs[:-1]):
            total = total * j + c
        return total

    def __eq__(self, other):
        if not isinstance(other, JPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(self.coeffs))

    def __str__(self):
        terms = (((k,), self.coeffs[k]) for k in range(self.degree, -1, -1) if self.coeffs[k])
        return format_terms(("j",), terms)

    def __repr__(self):
        return "JPolynomial(%s)" % self

    def to_dict(self):
        return {"coefficients": list(self.coeffs)}

    @classmethod
    def from_dict(cls, d):
        return cls(d["coefficients"])


def j1_qexp(N):
    """j - 744 to precision N."""
    return qseries.j_qexp(N) - 744


def hecke_weight0(f, n):
    """Weight-zero Hecke operator on a Laurent q-expansion.

    Coefficient action: the coefficient of q^e in T_n f is
    sum over a | gcd(n, e) of (n/a) * c(e*n/a^2), which is the double sum over
    factorizations ad = n of d * sum_{d | m} c(m) q^{ma/d} collected at q^e.
    The result precision is about the input precision divided by n.
    """
    if n < 1:
        raise ValueError("Hecke index must be >= 1, got %r" % (n,))
    if n == 1:
        return f
    out_prec = -(-f.prec // n)  # ceil(prec / n)
    if out_prec < 1:
        raise PrecisionError(
            "input precision %d too small for the index-%d Hecke operator" % (f.prec, n)
        )
    # lowest reachable exponent: q^m maps to q^{ma/d} over the divisor pairs,
    # so negative exponents spread down by a factor n and positive ones shrink
    lo = f.val * n if f.val < 0 else -(-f.val // n)
    coeffs = []
    for e in range(lo, out_prec):
        total = 0
        for a in range(1, n + 1):
            if n % a:
                continue
            d = n // a
            if e % a:
                continue
            m = e * d // a
            if f.val <= m < f.prec:
                total += d * f.coeff(m)
        coeffs.append(total)
    return QExpansion(lo, coeffs, out_prec)


def faber_jn(n, N):
    """The basis function j_n: a monic degree-n integer polynomial in j together
    with its q-expansion q^{-n} + O(q), to precision N.

    Greedy elimination: starting from j^n, subtract the power of j matching the
    most negative remaining exponent, then clear the constant with j^0 = 1.
    """
    if n < 0:
        raise ValueError("Faber index must be >= 0, got %r" % (n,))
    if N < 1:
        raise PrecisionError("precision %d cannot certify the O(q) tail" % (N,))
    if n == 0:
        return JPolynomial([1]), QExpansion.one(N)
    # j^n first: it builds j^2 .. j^n (to N + 1 + n - k) in one upward loop,
    # so the lower powers are truncations of cached entries
    qseries.j_power(n, N + 1)
    jpow = [QExpansion.one(N + 1)] + [qseries.j_power(k, N + 1) for k in range(1, n + 1)]
    poly = [0] * (n + 1)
    poly[n] = 1
    r = jpow[n]
    for e in range(n - 1, -1, -1):
        c = r.coeff(-e)
        if c:
            poly[e] = -c
            r = r - jpow[e] * c
    tail = r - QExpansion.q_power(-n, r.prec)
    if not tail.is_zero() and tail.val <= 0:
        raise PrecisionError("elimination left exponent q^%d uncleared" % tail.val)
    return JPolynomial(poly), r.truncate(N)


def jn_at_omega(n):
    """j_n evaluated where j vanishes: the constant coefficient of the Faber polynomial."""
    if n < 1:
        raise ValueError("index must be >= 1, got %r" % (n,))
    poly, _ = faber_jn(n, 1)
    return poly.constant_term


@dataclass
class GenfunReport:
    """Outcome of the generating-function cross-check for the j_n constant terms."""

    n_max: int
    series_match: bool
    sign: int
    matches: list = field(default_factory=list)
    mismatches: list = field(default_factory=list)

    @property
    def ok(self):
        return self.series_match and not self.mismatches

    def to_dict(self):
        return {
            "n_max": self.n_max,
            "series_match": self.series_match,
            "sign": self.sign,
            "matches": self.matches,
            "mismatches": self.mismatches,
            "ok": self.ok,
        }


def faber_constants(N):
    """j_n(omega) for 1 <= n <= N in one sweep.

    j_n = sum_k a[n][k] j^k has principal part q^-n + O(q), so the matrix a is
    the inverse of the unitriangular P[k][m] = [q^-m] j^k (0 <= m <= k <= N),
    and j_n(omega) = a[n][0] is column 0 of that inverse: x_0 = 1 and
    x_k = -sum_(m<k) P[k][m] x_m, one forward substitution on the principal
    parts of j^1 .. j^N.
    """
    qseries.j_power(N, 1)  # builds j^2 .. j^N in one upward loop
    x = [1]
    for k in range(1, N + 1):
        jk = qseries.j_power(k, 1)
        x.append(-sum(jk.coeff(-m) * x[m] for m in range(k)))
    return x[1:]


def genfun_check(N):
    """Check that c6/c4 = -q (dj/dq)/j as expansions and that its q^n coefficient
    is j_n(omega) for 1 <= n <= N, up to one global sign fixed at n = 1.
    """
    if N < 1:
        raise ValueError("N must be >= 1, got %r" % (N,))
    pad = N + 2
    c4 = qseries.eisenstein(4, pad)
    c6 = qseries.eisenstein(6, pad)
    lhs = c6.exact_div(c4)
    j = qseries.j_qexp(N + 1)
    rhs = (-j.theta()).exact_div(j)
    series_match = lhs.agrees_with(rhs, N + 1)
    consts = faber_constants(N)
    sign = 1 if lhs.coeff(1) == consts[0] else -1
    report = GenfunReport(N, series_match, sign)
    for n, value in enumerate(consts, 1):
        want = sign * value
        got = lhs.coeff(n)
        if got == want:
            report.matches.append(n)
        else:
            report.mismatches.append({"n": n, "coefficient": got, "expected": want})
    return report


def witten_form(n):
    """Delta^n * j_n as a modular-form polynomial, via the substitution
    j^k Delta^n = c4^{3k} Delta^{n-k}."""
    if n < 1:
        raise ValueError("index must be >= 1, got %r" % (n,))
    poly, _ = faber_jn(n, 1)
    terms = {}
    for k in range(n + 1):
        c = poly.coefficient(k)
        if c:
            terms[(3 * k, 0, n - k)] = c
    return MFPolynomial(terms, 12 * n)


def witten_generalized(n):
    """Divisibility certificate for the weight-12n form Delta^n * j_n."""
    return modforms.tmf_image_test(witten_form(n))


def prize_form():
    """The weight-12 form c4^3 - 744*Delta (equal to Delta*(j - 744))."""
    return witten_form(1)


def delta_power_times_jn(n, N):
    """Expansion of Delta^n * j_n to precision N (a weight-12n integral form)."""
    _, jn = faber_jn(n, N + n + 1)
    delta = qseries.discriminant_qexp(N + n + 1)
    return ((delta ** n) * jn).truncate(N)
