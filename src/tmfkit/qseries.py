"""Classical level-one q-expansions with exact integer arithmetic.

Conventions: c4 = 1 + 240*sum sigma_3(n) q^n, c6 = 1 - 504*sum sigma_5(n) q^n,
Delta = (c4^3 - c6^2)/1728 = q*prod(1-q^n)^24, j = c4^3/Delta.
"""

from fractions import Fraction

from .exactalg import (
    QQ,
    ZZ,
    ExactnessError,
    PrecisionError,
    div_coeffs,
    format_terms,
    mul_coeffs,
    power,
)


class QExpansion:
    """Truncated Laurent series in q with exact coefficients.

    ``val`` is the exponent of the first stored coefficient, ``prec`` the first
    unknown exponent; coefficients below ``val`` are exactly zero.  Stored
    coefficients are ints whenever possible (a Fraction with denominator 1 is
    normalized to int), and the leading stored coefficient is nonzero unless
    the series is identically zero.
    """

    __slots__ = ("val", "coeffs", "prec")

    def __init__(self, val, coeffs, prec=None):
        coeffs = [self._canon(c) for c in coeffs]
        if prec is None:
            prec = val + len(coeffs)
        if val + len(coeffs) > prec:
            coeffs = coeffs[: prec - val]
        while coeffs and coeffs[0] == 0:
            coeffs.pop(0)
            val += 1
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        if not coeffs:
            val = prec
        self.val = val
        self.coeffs = coeffs
        self.prec = prec

    @staticmethod
    def _canon(c):
        if type(c) is int:
            return c
        if isinstance(c, Fraction):
            if c.denominator == 1:
                return int(c)
            return c
        if isinstance(c, int) and not isinstance(c, bool):
            return c
        raise TypeError("q-expansion coefficients must be exact, got %r" % (c,))

    # -- constructors

    @classmethod
    def zero(cls, prec):
        return cls(prec, [], prec)

    @classmethod
    def one(cls, prec):
        return cls(0, [1], prec)

    @classmethod
    def q_power(cls, e, prec):
        return cls(e, [1], prec)

    # -- queries

    def is_zero(self):
        return not self.coeffs

    def is_integral(self):
        return all(isinstance(c, int) for c in self.coeffs)

    def coeff(self, n):
        if n >= self.prec:
            raise PrecisionError("coefficient of q^%d beyond precision %d" % (n, self.prec))
        if n < self.val or n >= self.val + len(self.coeffs):
            return 0
        return self.coeffs[n - self.val]

    def truncate(self, prec):
        prec = min(self.prec, prec)
        return QExpansion(self.val, self.coeffs[: max(prec - self.val, 0)], prec)

    # -- arithmetic

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QExpansion(0, [other], self.prec)
        prec = min(self.prec, other.prec)
        lo = min(self.val, other.val)
        out = []
        for n in range(lo, prec):
            a = self.coeffs[n - self.val] if self.val <= n < self.val + len(self.coeffs) else 0
            b = other.coeffs[n - other.val] if other.val <= n < other.val + len(other.coeffs) else 0
            out.append(a + b)
        return QExpansion(lo, out, prec)

    __radd__ = __add__

    def __neg__(self):
        return QExpansion(self.val, [-c for c in self.coeffs], self.prec)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QExpansion(0, [other], self.prec)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QExpansion(self.val, [c * other for c in self.coeffs], self.prec)
        # a zero factor has val == prec, so the product is zero through its window
        prec = min(self.prec + other.val, other.prec + self.val)
        val = self.val + other.val
        return QExpansion(val, mul_coeffs(self.coeffs, other.coeffs, prec - val, 0), prec)

    __rmul__ = __mul__

    def __pow__(self, n):
        return power(self, n, QExpansion.one(self.prec))

    def exact_scalar_div(self, d):
        """Divide by an integer, verifying every coefficient divides exactly."""
        out = []
        for c in self.coeffs:
            if isinstance(c, int):
                q, r = divmod(c, d)
                if r:
                    raise ExactnessError("coefficient %d is not divisible by %d" % (c, d))
                out.append(q)
            else:
                out.append(c / d)
        return QExpansion(self.val, out, self.prec)

    def exact_div(self, den):
        """Laurent quotient self/den with exact integer coefficient checks."""
        if den.is_zero():
            raise ZeroDivisionError("division by an identically zero q-expansion")
        prec = min(self.prec - den.val, den.prec - 2 * den.val + self.val)
        val = self.val - den.val
        n = prec - val
        if n <= 0:
            raise PrecisionError("insufficient precision for q-expansion division")
        d0 = den.coeffs[0]

        def div(acc):
            if isinstance(acc, int) and isinstance(d0, int):
                return ZZ.exact_div(acc, d0)
            return QQ.exact_div(acc, d0)

        # numerator coefficient m sits at q^(val + den.val + m) = q^(self.val + m)
        return QExpansion(val, div_coeffs(self.coeffs + [0] * n, den.coeffs, n, div), prec)

    def inverse(self, prec=None):
        one = QExpansion.one(self.prec if prec is None else prec + self.val)
        return one.exact_div(self)

    def theta(self):
        """The operator q d/dq (coefficientwise multiplication by the exponent)."""
        out = [(self.val + i) * c for i, c in enumerate(self.coeffs)]
        return QExpansion(self.val, out, self.prec)

    # -- comparison / display

    def agrees_with(self, other, prec=None):
        """Coefficientwise agreement over the shared known window."""
        bound = min(self.prec, other.prec)
        if prec is not None:
            bound = min(bound, prec)
        lo = min(self.val, other.val)
        for n in range(lo, bound):
            a = self.coeffs[n - self.val] if self.val <= n < self.val + len(self.coeffs) else 0
            b = other.coeffs[n - other.val] if other.val <= n < other.val + len(other.coeffs) else 0
            if a != b:
                return False
        return True

    def __eq__(self, other):
        if not isinstance(other, QExpansion):
            return NotImplemented
        return self.val == other.val and self.prec == other.prec and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.val, tuple(self.coeffs), self.prec))

    def __str__(self):
        tail = "O(q^%d)" % self.prec
        if not self.coeffs:
            return tail
        terms = (((self.val + i,), c) for i, c in enumerate(self.coeffs) if c)
        return format_terms(("q",), terms) + " + " + tail

    def __repr__(self):
        return "QExpansion(%s)" % self

    def to_dict(self):
        return {
            "valuation": self.val,
            "precision": self.prec,
            "coefficients": [
                c if isinstance(c, int) else [c.numerator, c.denominator] for c in self.coeffs
            ],
        }

    @classmethod
    def from_dict(cls, d):
        coeffs = [c if isinstance(c, int) else Fraction(c[0], c[1]) for c in d["coefficients"]]
        return cls(d["valuation"], coeffs, d["precision"])


# ---------------------------------------------------------------------------
# divisor sums and the classical expansions


def sigma(k, n):
    """Sum of k-th powers of the divisors of n, by trial division."""
    if k < 1:
        raise ValueError("sigma exponent must be >= 1, got %r" % (k,))
    if n < 1:
        raise ValueError("sigma argument must be >= 1, got %r" % (n,))
    total = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            total += d ** k
            e = n // d
            if e != d:
                total += e ** k
        d += 1
    return total


# The longest expansion of c4, c6, Delta (Eisenstein route), j and each power
# j^k (k >= 2, under "j^k") computed so far, by name.  Requests at or below an
# entry's precision get a fresh truncation of it; a longer request replaces
# the entry.
_EXPANSION_CACHE = {}


def _cached(name, N, build):
    entry = _EXPANSION_CACHE.get(name)
    if entry is None or entry.prec < N:
        entry = _EXPANSION_CACHE[name] = build(N)
    return entry.truncate(N)


def eisenstein(weight, N):
    """Normalized Eisenstein series of weight 4 or 6 to precision N."""
    if N < 1:
        raise ValueError("precision must be >= 1")
    if weight == 4:
        scale, k = 240, 3
    elif weight == 6:
        scale, k = -504, 5
    else:
        raise ValueError("unsupported Eisenstein weight %r (need 4 or 6)" % (weight,))

    def build(N):
        return QExpansion(0, [1] + [scale * sigma(k, n) for n in range(1, N)], N)

    return _cached("c%d" % weight, N, build)


def euler_product(N):
    """prod_{n>=1} (1 - q^n) to precision N, via the pentagonal number expansion."""
    coeffs = [0] * N
    if N > 0:
        coeffs[0] = 1
    m = 1
    while True:
        p1 = m * (3 * m - 1) // 2
        p2 = m * (3 * m + 1) // 2
        if p1 >= N and p2 >= N:
            break
        s = -1 if m % 2 else 1
        if p1 < N:
            coeffs[p1] = s
        if p2 < N:
            coeffs[p2] = s
        m += 1
    return QExpansion(0, coeffs, N)


def _c4_cubed_and_delta(N):
    """c4^3 and Delta = (c4^3 - c6^2)/1728 to precision N, from one c4^3, with
    the division checked exact."""
    c4_cubed = eisenstein(4, N) ** 3
    return c4_cubed, (c4_cubed - eisenstein(6, N) ** 2).exact_scalar_div(1728)


def discriminant_qexp(N):
    """Delta = (c4^3 - c6^2)/1728 to precision N, with the division checked exact."""
    if N < 1:
        raise ValueError("precision must be >= 1")
    return _cached("delta", N, lambda N: _c4_cubed_and_delta(N)[1])


def discriminant_eta_product(N):
    """Delta = q * prod(1-q^n)^24 to precision N (the independent route, never cached)."""
    if N < 1:
        raise ValueError("precision must be >= 1")
    if N == 1:
        return QExpansion.zero(1)
    unit = euler_product(N - 1) ** 24
    return QExpansion(1, unit.coeffs, N)


def j_qexp(N):
    """The j-invariant c4^3/Delta as a Laurent expansion with valuation -1.

    The requested precision N bounds the exponents of the returned expansion;
    the inputs are computed with enough slack internally.
    """
    if N < 1:
        raise ValueError("precision must be >= 1")

    def build(N):
        c4_cubed, delta = _c4_cubed_and_delta(N + 2)
        return c4_cubed.exact_div(delta)  # precision N

    return _cached("j", N, build)


def j_power(k, N):
    """j^k (valuation -k) to precision N, for k >= 1.

    Each factor j costs one exponent, so j^k to precision N needs j^m to
    N + k - m and j to N + k - 1.  A request the cache cannot serve starts
    from the highest cached power that reaches its precision (or from j) and
    multiplies by j upward to j^k, one product per power, keeping each power
    it passes at the precision it was computed to.
    """
    if k < 1:
        raise ValueError("power of j must be >= 1, got %r" % (k,))
    if N < 1:
        raise ValueError("precision must be >= 1")
    if k == 1:
        return j_qexp(N)
    entry = _EXPANSION_CACHE.get("j^%d" % k)
    if entry is None or entry.prec < N:
        j = j_qexp(N + k - 1)
        entry, m = j, 1
        for i in range(k - 1, 1, -1):
            base = _EXPANSION_CACHE.get("j^%d" % i)
            if base is not None and base.prec >= N + k - i:
                entry, m = base, i
                break
        for i in range(m + 1, k + 1):
            entry = _EXPANSION_CACHE["j^%d" % i] = entry * j
    return entry.truncate(N)
