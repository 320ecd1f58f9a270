"""Exact arithmetic kernel: coefficient domains, sparse multivariate polynomials,
and truncated power series with inversion, composition, and reversion.

Every value is exact (machine ints, Fractions, or polynomials over those);
nothing in the package ever rounds.
"""

from fractions import Fraction
from math import lcm
from operator import mul as _times


class DomainMismatchError(TypeError):
    """Operands live over different coefficient domains."""


class ExactnessError(ArithmeticError):
    """A division that was required to be exact is not, or a non-unit was inverted."""


class PrecisionError(ValueError):
    """A coefficient beyond the tracked precision was requested."""


class InternalError(ArithmeticError):
    """An internal consistency check failed: two independent routes disagree,
    or an invariant the code maintains is broken.  A bug, not bad input."""


# ---------------------------------------------------------------------------
# shared kernels: every series and polynomial type runs its dense product,
# exact division, powers and display through these.  Coefficients only need
# native +, -, * and truthiness; a domain that reduces (GF(p)) canonicalizes
# the results when the caller builds its value from them.


def mul_coeffs(a, b, n, zero):
    """The first n coefficients of the product of two dense coefficient lists
    (low order first); zero coefficients are skipped.

    Integer lists (ZZ, GF(p) representatives) that pass the cost rule below
    take the Kronecker-substitution product ``mul_packed``.  Lists of
    polynomials over a graded ZZ[vars] or QQ[vars] take ``mul_graded`` when
    both are homogeneous.  Every other domain, and every product these
    paths turn down, runs ``mul_schoolbook``.
    """
    kind = type(zero)
    if kind is int:
        m = min(len(a), len(b), n)
        if m >= PACK_MIN_LEN:
            slot = _slot_bits(a, b, n)
            if slot and slot <= PACK_SLOT_PER_LEN * m:
                return mul_packed(a, b, n)
    elif kind is MPoly and zero.ring.weights:
        out = mul_graded(a, b, n, zero)
        if out is not None:
            return out
    return mul_schoolbook(a, b, n, zero)


# Cost rule for the packed product, on what the operands show: m, the shorter
# operand's length within the n requested terms, and the slot width s (about
# twice the largest coefficient's bit length).  Schoolbook costs about m^2/2
# interpreter steps, each a small multiply; the packed product costs a few
# interpreter steps per coefficient plus one Karatsuba product of two m*s-bit
# integers, so it wins once m is past the packing overhead and while s stays
# a small multiple of m.  Speed-up of mul_packed over mul_schoolbook (n = m,
# random signed coefficients, median of three best-of-five timings, CPython
# 3.11 on a 2-vCPU VM); "uniform" lists have one coefficient size, "growing"
# ones have coefficient i of size ~ sqrt(i/m) of the largest, as the powers
# of j do, so the largest coefficient overstates the schoolbook work:
#
#              uniform, s/m =              growing, s/m =
#     m      1     2     3     4     6      1     2     3     4     6
#    16   0.87  0.73  0.87  1.03  1.01   0.55  0.79  0.76  0.83  0.83
#    24   0.86  1.76  1.50  1.36  1.29   1.20  1.03  1.19  1.17  1.04
#    32   1.37  1.56  1.63  1.51  1.38   1.39  1.53  1.47  1.40  1.12
#    64   2.72  2.54  2.09  1.65  1.29   2.65  2.32  1.81  1.48  0.98
#   128   3.39  2.87  1.70  1.45  1.10   3.64  2.14  1.46  1.01  0.71
#   256   3.45  1.75  1.82  1.42  1.60   2.95  1.31  0.96  0.70  0.63
#   512   2.40  1.95  2.05  1.73  1.77   1.79  0.95  0.86  0.70  0.66
#
# Packing pays from m = 32 up to s = 2m (the growing lists break even at
# m = 512, s = 2m).  The series this package multiplies sit far inside that
# region (c4^3, c6^2 and the eta powers have s/m < 0.2 at m = 900) or far
# outside it (j^k * j in the Faber elimination has s/m > 3 from k = 1).
PACK_MIN_LEN = 32
PACK_SLOT_PER_LEN = 2


def _slot_bits(a, b, n):
    """Bits per slot that hold every coefficient of the truncated product
    a*b as a signed value: |c_k| <= m * max|a| * max|b| < 2^(slot-1) with
    m = min(len(a), len(b)).  None if a coefficient is not an int."""
    a, b = a[:n], b[:n]
    try:
        bits = max(map(int.bit_length, a), default=0) + max(map(int.bit_length, b), default=0)
    except TypeError:  # a Fraction among QQ coefficients
        return None
    return bits + min(len(a), len(b)).bit_length() + 1


def _pack(v, width):
    """The integer sum(v[i] * 2^(8*width*i)) for ints with |v[i]| < 2^(8*width-1)."""
    pos = int.from_bytes(b"".join((x if x > 0 else 0).to_bytes(width, "little") for x in v), "little")
    if min(v) >= 0:
        return pos
    neg = int.from_bytes(b"".join((-x if x < 0 else 0).to_bytes(width, "little") for x in v), "little")
    return pos - neg


def mul_packed(a, b, n):
    """The first n coefficients of a*b for int lists, by Kronecker substitution.

    Each list becomes one integer with a fixed-width slot per coefficient, a
    single big-int product (Karatsuba in CPython) multiplies them, and slot k
    of the result is coefficient k.  A bias of half a slot in each of the
    first n slots makes every slot nonnegative, so the slots unpack
    independently with no borrow between them.
    """
    if n <= 0:
        return []
    square = a is b
    a = a[:n]
    b = a if square else b[:n]
    if not a or not b:
        return [0] * n
    k = min(n, len(a) + len(b) - 1)
    width = (_slot_bits(a, b, n) + 7) >> 3  # whole bytes per slot
    s = 8 * width
    pa = _pack(a, width)
    c = pa * (pa if square else _pack(b, width))
    half = 1 << (s - 1)
    bias = int.from_bytes((bytes(width - 1) + b"\x80") * k, "little")
    raw = ((c + bias) & ((1 << (s * k)) - 1)).to_bytes(width * k, "little")
    out = [int.from_bytes(raw[i:i + width], "little") - half for i in range(0, width * k, width)]
    return out + [0] * (n - k)


# Cost rule for the graded product: the layout has a slot for every exponent
# vector in a box, which the terms fill densely over two variables (the
# special curves) but sparsely over five (the generic curve), where the big
# integers grow faster than the schoolbook work.  So the graded product runs
# only if the operands' slots number at most 10 times their terms.  Time in
# ms of all series products of group law construction plus p_series(fgl, 2,
# degree), each product best of three, CPython 3.11 on a 2-vCPU VM, by
# schoolbook, by the graded product always, and by the rule at 5, 10 and 20
# slots per term:
#
#    curve, degree   school   graded   s<=5t   s<=10t   s<=20t
#    a1a3,  6           6.9      2.7     2.7      2.7      2.7
#    a1a3, 20         545.1     59.3    59.9     59.3     59.3
#    a1a3, 30        2761.2    222.0   229.8    222.0    222.0
#    a2a4, 12           7.7      3.8     3.8      3.8      3.8
#    a2a4, 30         226.7     44.0    51.5     44.4     44.0
#    generic, 6        15.4     19.1    13.6     12.2     14.5
#    generic, 10      204.6    381.8   204.8    204.9    222.3
#    generic, 14     1985.2   6800.8  1985.4   1998.4   2035.7
GRADED_SLOTS_PER_TERM = 10


def _grade(coeffs, n, weights):
    """(valuation, k) of a polynomial coefficient list truncated at n: the
    first nonzero index and its weight offset k (z^i carries weight i + k
    when the list is homogeneous), or None for a zero list."""
    for i, c in enumerate(coeffs[:n]):
        if c.terms:
            return i, sum(map(_times, next(iter(c.terms)), weights)) - i
    return None


def _flatten(coeffs, lo, hi, k, weights, strides, row, rational):
    """(flat, den): coeffs[lo:hi] as one int list, term c*x^e of z^i at slot
    (i - lo)*row + sum(e*strides), scaled by den, the lcm of the
    denominators; None if a term of z^i has a weight other than i + k."""
    flat = [0] * ((hi - lo) * row)
    for i in range(lo, hi):
        at = (i - lo) * row
        for e, c in coeffs[i].terms.items():
            if sum(map(_times, e, weights)) != i + k:
                return None
            flat[at + sum(map(_times, e, strides))] = c
    den = 1
    if rational:
        den = lcm(*{c.denominator for c in flat if c})
        flat = [c.numerator * (den // c.denominator) for c in flat]
    return flat, den


def mul_graded(a, b, n, zero):
    """The first n coefficients of a*b for lists of polynomials over a graded
    ZZ[vars] or QQ[vars], by one integer product; None unless both lists
    are homogeneous and fill the layout densely enough (the cost rule above).

    A list is homogeneous if, for one k, every term of its z^i coefficient
    has weight i + k; the w-series, chord-sum, log/exp and composition
    series of a Weierstrass curve all are (|a_i| = i, |z| = -1).  Then the
    exponent of the lowest-weight variable x_d follows from i and the other
    exponents, so each list becomes one int list with a slot per z^i and
    other exponents (``_flatten``), and the integer ``mul_coeffs`` (packed
    or schoolbook by its own rule) multiplies the two.  An output term of
    z^i, i < n, has weight at most top = n - 1 + ka + kb, so its exponent
    e_j is at most top // w_j: digits of that width plus one never carry
    into the next digit, or into a kept z^i.  x_d's exponent comes back
    from the weight.  QQ lists are scaled to integers by the lcm of their
    denominators first.
    """
    ring = zero.ring
    rational = type(ring.base) is RationalRing
    if not rational and type(ring.base) is not IntegerRing:
        return None
    if n <= 0:
        return []
    weights = ring.weights
    ga = _grade(a, n, weights)
    gb = ga if b is a else _grade(b, n, weights)
    if ga is None or gb is None:
        return [zero] * n
    (va, ka), (vb, kb) = ga, gb
    top = n - 1 + ka + kb
    if n <= va + vb or top < 0:
        return [zero] * n
    d = weights.index(min(weights))
    strides, row = [0] * ring.nvars, 1
    for j, w in enumerate(weights):
        if j != d:
            strides[j] = row
            row *= top // w + 1
    # terms of a at z^i, i >= n - vb, reach no kept output (and likewise b)
    ha, hb = min(len(a), n - vb), min(len(b), n - va)
    nterms = sum(len(c.terms) for c in a[va:ha]) + sum(len(c.terms) for c in b[vb:hb])
    if (ha - va + hb - vb) * row > GRADED_SLOTS_PER_TERM * nterms:
        return None
    fa = _flatten(a, va, ha, ka, weights, strides, row, rational)
    fb = fa if b is a else _flatten(b, vb, hb, kb, weights, strides, row, rational)
    if fa is None or fb is None:
        return None
    (fa, da), (fb, db) = fa, fb
    prod = mul_coeffs(fa, fb, (n - va - vb) * row, 0)
    # the other exponents of each slot of a row, and their weight
    decode = []
    for r in range(row):
        e = [r // s % (top // w + 1) if s else 0 for s, w in zip(strides, weights)]
        decode.append((e, sum(map(_times, e, weights))))
    wd, den = weights[d], da * db
    out = [zero] * n
    for i in range(va + vb, n):
        at = (i - va - vb) * row
        terms = {}
        for r, c in enumerate(prod[at:at + row]):
            if c:
                e, w = decode[r]
                e[d], rest = divmod(i + ka + kb - w, wd)
                if rest or e[d] < 0:
                    raise InternalError("graded product lost the %s exponent (bug)" % ring.variables[d])
                terms[tuple(e)] = Fraction(c, den) if rational else c
        if terms:
            out[i] = MPoly(ring, terms, _clean=True)
    return out


def mul_schoolbook(a, b, n, zero):
    """The first n coefficients of a*b by the double sum (the reference product)."""
    out = [zero] * n
    for i, x in enumerate(a[:n]):
        if not x:
            continue
        for k, y in zip(range(i, n), b):
            if y:
                out[k] += x * y
    return out


def div_coeffs(num, den, n, div):
    """The first n coefficients of q with q*den == num, by triangular elimination.

    ``num`` holds at least n coefficients and ``den[0]`` is nonzero; ``div``
    is the domain's checked division of each accumulator by ``den[0]``.
    """
    out = []
    for m in range(n):
        acc = num[m]
        for k in range(max(0, m - len(den) + 1), m):
            d = den[m - k]
            if d:
                acc = acc - out[k] * d
        out.append(div(acc))
    return out


def power(x, n, one):
    """x**n by square-and-multiply, starting from x itself (so a truncated x
    keeps its own precision bookkeeping); ``one`` is the value for n == 0."""
    if not isinstance(n, int) or n < 0:
        raise ValueError("powers must be nonnegative integers")
    if n == 0:
        return one
    result = None
    while True:
        if n & 1:
            result = x if result is None else result * x
        n >>= 1
        if not n:
            return result
        x = x * x


def format_terms(names, terms, sep="*"):
    """Signed sum of terms, e.g. ``x^2*y - 3*y + 1``.

    ``terms`` yields (exponents, coefficient) pairs in display order, one
    exponent per name.  Unit coefficients are elided, a term without
    variables prints its coefficient alone, and an empty sum prints as 0.
    """
    pieces = []
    for exps, c in terms:
        mono = sep.join(v if e == 1 else "%s^%d" % (v, e) for v, e in zip(names, exps) if e)
        if not mono:
            body = str(c)
        elif c == 1:
            body = mono
        elif c == -1:
            body = "-" + mono
        else:
            body = "%s%s%s" % (c, sep, mono)
        pieces.append(body)
    if not pieces:
        return "0"
    out = pieces[0]
    for body in pieces[1:]:
        out += " - " + body[1:] if body.startswith("-") else " + " + body
    return out


# ---------------------------------------------------------------------------
# scalar coefficient domains


class IntegerRing:
    """Arbitrary-precision integers."""

    name = "ZZ"
    zero = 0
    one = 1

    def coerce(self, x):
        if isinstance(x, bool):
            raise DomainMismatchError("bool is not an integer coefficient")
        if isinstance(x, int):
            return x
        if isinstance(x, Fraction) and x.denominator == 1:
            return int(x)
        raise DomainMismatchError("cannot coerce %r into %s" % (x, self.name))

    def canon(self, a):
        return a

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def mul_int(self, a, n):
        return a * n

    def is_zero(self, a):
        return a == 0

    def is_unit(self, a):
        return a == 1 or a == -1

    def invert(self, a):
        if not self.is_unit(a):
            raise ExactnessError("%r is not a unit in %s" % (a, self.name))
        return a

    def exact_div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero in %s" % self.name)
        q, r = divmod(a, b)
        if r:
            raise ExactnessError("%r is not divisible by %r" % (a, b))
        return q

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return type(other) is type(self)

    def __hash__(self):
        return hash(self.name)


class RationalRing:
    """Exact rationals (fractions.Fraction)."""

    name = "QQ"
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, x):
        if isinstance(x, bool):
            raise DomainMismatchError("bool is not a rational coefficient")
        if isinstance(x, (int, Fraction)):
            return Fraction(x)
        raise DomainMismatchError("cannot coerce %r into %s" % (x, self.name))

    def canon(self, a):
        return a

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def mul_int(self, a, n):
        return a * n

    def is_zero(self, a):
        return a == 0

    def is_unit(self, a):
        return a != 0

    def invert(self, a):
        if a == 0:
            raise ExactnessError("zero is not a unit in %s" % self.name)
        return 1 / Fraction(a)

    def exact_div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero in %s" % self.name)
        return Fraction(a) / b

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return type(other) is type(self)

    def __hash__(self):
        return hash(self.name)


class PrimeField:
    """Integers mod a prime, represented canonically in [0, p)."""

    def __init__(self, p):
        if p < 2 or any(p % d == 0 for d in range(2, int(p ** 0.5) + 1)):
            raise ValueError("modulus %r is not prime" % (p,))
        self.p = p
        self.name = "GF(%d)" % p
        self.zero = 0
        self.one = 1 % p

    def coerce(self, x):
        if isinstance(x, bool):
            raise DomainMismatchError("bool is not a field coefficient")
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ExactnessError("denominator of %r vanishes mod %d" % (x, self.p))
            return x.numerator * pow(x.denominator, -1, self.p) % self.p
        raise DomainMismatchError("cannot coerce %r into %s" % (x, self.name))

    def canon(self, a):
        return a % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul_int(self, a, n):
        return (a * n) % self.p

    def is_zero(self, a):
        return a % self.p == 0

    def is_unit(self, a):
        return a % self.p != 0

    def invert(self, a):
        if a % self.p == 0:
            raise ExactnessError("zero is not a unit in %s" % self.name)
        return pow(a, -1, self.p)

    def exact_div(self, a, b):
        return self.mul(a, self.invert(b))

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return type(other) is type(self) and other.p == self.p

    def __hash__(self):
        return hash((self.name,))


ZZ = IntegerRing()
QQ = RationalRing()


# ---------------------------------------------------------------------------
# sparse multivariate polynomials


class PolynomialRing:
    """Sparse polynomials in named variables over a scalar domain.

    Doubles as a coefficient domain itself, so truncated series can run over
    polynomial coefficients through the same interface as over scalars.
    Optional positive integer ``weights``, one per variable, grade the ring
    (the Weierstrass rings have |a_i| = i); ``mul_coeffs`` uses the grading to
    pack series products.  Weights are not part of the ring's identity: they
    stay out of equality, hashing and serialization.
    """

    def __init__(self, variables, base=ZZ, weights=None):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable names: %r" % (variables,))
        if weights is not None:
            weights = tuple(weights)
            if len(weights) != len(variables) or not all(type(w) is int and w > 0 for w in weights):
                raise ValueError("weights %r do not give each of %r a positive integer" % (weights, variables))
        self.variables = variables
        self.weights = weights
        self.base = base
        self.nvars = len(variables)
        self._index = {v: i for i, v in enumerate(variables)}
        self.name = "%s[%s]" % (base.name, ", ".join(variables))
        self.zero = MPoly(self, {})
        zexp = (0,) * self.nvars
        self.one = MPoly(self, {zexp: base.one})

    def gen(self, name):
        exp = [0] * self.nvars
        exp[self._index[name]] = 1
        return MPoly(self, {tuple(exp): self.base.one})

    def gens(self):
        return [self.gen(v) for v in self.variables]

    def const(self, x):
        c = self.base.coerce(x)
        if self.base.is_zero(c):
            return self.zero
        return MPoly(self, {(0,) * self.nvars: c})

    def from_terms(self, terms):
        return MPoly(self, terms)

    def coerce(self, x):
        if isinstance(x, MPoly):
            if x.ring is self or x.ring == self:
                return x
            raise DomainMismatchError("polynomial from %s used over %s" % (x.ring.name, self.name))
        return self.const(x)

    # domain interface, so a PolynomialRing can serve as a series coefficient ring
    def canon(self, a):
        return self.coerce(a)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def mul_int(self, a, n):
        return a.mul_int(n)

    def is_zero(self, a):
        return not a.terms

    def is_unit(self, a):
        c = a.as_constant()
        return c is not None and self.base.is_unit(c)

    def invert(self, a):
        c = a.as_constant()
        if c is None:
            raise ExactnessError("cannot invert non-constant polynomial %s" % a)
        return self.const(self.base.invert(c))

    def exact_div(self, a, b):
        c = b.as_constant()
        if c is None:
            raise ExactnessError("exact division only by constant polynomials, got %s" % b)
        return a.exact_scalar_div(c)

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and other.variables == self.variables
            and other.base == self.base
        )

    def __hash__(self):
        return hash((self.variables, self.base))


class MPoly:
    """Sparse multivariate polynomial: a map from exponent vectors to coefficients.

    Immutable by convention; no stored coefficient is zero, and every exponent
    vector has one entry per ring variable.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms, _clean=False):
        self.ring = ring
        if _clean:
            self.terms = terms
            return
        base = ring.base
        clean = {}
        for exp, c in terms.items():
            exp = tuple(exp)
            if len(exp) != ring.nvars:
                raise ValueError(
                    "exponent vector %r has length %d, ring has %d variables"
                    % (exp, len(exp), ring.nvars)
                )
            c = base.canon(base.coerce(c))
            if not base.is_zero(c):
                clean[exp] = c
        self.terms = clean

    # -- basic queries

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def as_constant(self):
        """The scalar value if this polynomial is constant, else None."""
        if not self.terms:
            return self.ring.base.zero
        if len(self.terms) == 1:
            exp, c = next(iter(self.terms.items()))
            if not any(exp):
                return c
        return None

    def constant_coefficient(self):
        return self.terms.get((0,) * self.ring.nvars, self.ring.base.zero)

    def total_degree(self):
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def coefficient(self, exp):
        return self.terms.get(tuple(exp), self.ring.base.zero)

    # -- arithmetic

    def _check(self, other):
        if isinstance(other, MPoly):
            if other.ring is not self.ring and other.ring != self.ring:
                raise DomainMismatchError(
                    "mixed polynomial domains: %s vs %s" % (self.ring.name, other.ring.name)
                )
            return other
        return self.ring.coerce(other)

    def __add__(self, other):
        other = self._check(other)
        base = self.ring.base
        out = dict(self.terms)
        for exp, c in other.terms.items():
            s = base.add(out.get(exp, base.zero), c)
            if base.is_zero(s):
                out.pop(exp, None)
            else:
                out[exp] = s
        return MPoly(self.ring, out, _clean=True)

    __radd__ = __add__

    def __neg__(self):
        base = self.ring.base
        return MPoly(self.ring, {e: base.neg(c) for e, c in self.terms.items()}, _clean=True)

    def __sub__(self, other):
        return self + (-self._check(other))

    def __rsub__(self, other):
        return self._check(other) - self

    def __mul__(self, other):
        other = self._check(other)
        base = self.ring.base
        badd, bmul, bzero = base.add, base.mul, base.is_zero
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                p = bmul(c1, c2)
                s = badd(out.get(exp, base.zero), p)
                if bzero(s):
                    out.pop(exp, None)
                else:
                    out[exp] = s
        return MPoly(self.ring, out, _clean=True)

    __rmul__ = __mul__

    def mul_int(self, n):
        base = self.ring.base
        out = {}
        for e, c in self.terms.items():
            s = base.canon(base.mul_int(c, n))
            if not base.is_zero(s):
                out[e] = s
        return MPoly(self.ring, out, _clean=True)

    def __pow__(self, n):
        return power(self, n, self.ring.one)

    def exact_scalar_div(self, c):
        base = self.ring.base
        return MPoly(
            self.ring,
            {e: base.exact_div(v, c) for e, v in self.terms.items()},
            _clean=True,
        )

    # -- structure maps

    def substitute_scalars(self, values):
        """Evaluate at scalar values for every variable; returns a base-ring scalar."""
        base = self.ring.base
        vals = [base.coerce(values[v]) for v in self.ring.variables]
        total = base.zero
        for exp, c in self.terms.items():
            t = c
            for v, e in zip(vals, exp):
                for _ in range(e):
                    t = base.mul(t, v)
            total = base.add(total, t)
        return base.canon(total)

    def reduce_mod(self, p):
        """Image in the same variables over GF(p)."""
        ring = PolynomialRing(self.ring.variables, PrimeField(p), self.ring.weights)
        return MPoly(ring, dict(self.terms))

    def to_base(self, new_base):
        """Move to the same variables over another scalar domain, exactly."""
        ring = PolynomialRing(self.ring.variables, new_base, self.ring.weights)
        return MPoly(ring, dict(self.terms))

    # -- comparison / display

    def __eq__(self, other):
        if isinstance(other, MPoly):
            return self.ring == other.ring and self.terms == other.terms
        try:
            other = self.ring.coerce(other)
        except DomainMismatchError:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def to_dict(self):
        """JSON-ready form; integer or mod-p coefficients."""
        payload = {
            "variables": list(self.ring.variables),
            "terms": [[list(e), c] for e, c in sorted(self.terms.items())],
        }
        if isinstance(self.ring.base, PrimeField):
            payload["modulus"] = self.ring.base.p
        elif not isinstance(self.ring.base, IntegerRing):
            raise TypeError("only integer or mod-p polynomials serialize to JSON")
        return payload

    @classmethod
    def from_dict(cls, d):
        base = PrimeField(d["modulus"]) if "modulus" in d else ZZ
        ring = PolynomialRing(tuple(d["variables"]), base)
        return ring.from_terms({tuple(e): c for e, c in d["terms"]})

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: (-sum(t[0]), tuple(-e for e in t[0])))

    def __str__(self):
        return format_terms(self.ring.variables, self.sorted_terms())

    def __repr__(self):
        return "MPoly(%s)" % self


# ---------------------------------------------------------------------------
# truncated power series


def _min_prec(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


class TruncSeries:
    """Truncated power series over a coefficient domain.

    Coefficients are indexed from exponent 0; ``prec`` is the first unknown
    exponent (None means the series is an exact polynomial).  Binary operations
    propagate the minimum justified precision of their inputs and never extend
    it silently.
    """

    __slots__ = ("ring", "coeffs", "prec")

    def __init__(self, ring, coeffs, prec=None):
        self.ring = ring
        coeffs = [ring.canon(ring.coerce(c)) for c in coeffs]
        if prec is not None:
            if prec < 0:
                raise ValueError("precision must be nonnegative")
            coeffs = coeffs[:prec]
        while coeffs and ring.is_zero(coeffs[-1]):
            coeffs.pop()
        self.coeffs = coeffs
        self.prec = prec

    # -- constructors

    @classmethod
    def zero(cls, ring, prec=None):
        return cls(ring, [], prec)

    @classmethod
    def one(cls, ring, prec=None):
        return cls(ring, [ring.one], prec)

    @classmethod
    def identity(cls, ring, prec=None):
        """The series z."""
        return cls(ring, [ring.zero, ring.one], prec)

    # -- queries

    def coeff(self, i):
        if self.prec is not None and i >= self.prec:
            raise PrecisionError("coefficient %d beyond precision %d" % (i, self.prec))
        if i < 0 or i >= len(self.coeffs):
            return self.ring.zero
        return self.coeffs[i]

    def known(self, i):
        """Coefficient at i, or zero without a precision check (internal use)."""
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.ring.zero

    def valuation(self):
        """Index of the lowest nonzero coefficient; equals prec for a zero series."""
        for i, c in enumerate(self.coeffs):
            if not self.ring.is_zero(c):
                return i
        return self.prec

    def is_zero(self):
        return not self.coeffs

    def truncate(self, prec):
        return TruncSeries(self.ring, self.coeffs, _min_prec(self.prec, prec))

    # -- ring operations

    def _check(self, other):
        if isinstance(other, TruncSeries):
            if other.ring is not self.ring and other.ring != self.ring:
                raise DomainMismatchError(
                    "mixed series domains: %s vs %s" % (self.ring.name, other.ring.name)
                )
            return other
        return TruncSeries(self.ring, [self.ring.coerce(other)])

    def __add__(self, other):
        other = self._check(other)
        prec = _min_prec(self.prec, other.prec)
        n = max(len(self.coeffs), len(other.coeffs))
        add = self.ring.add
        out = [add(self.known(i), other.known(i)) for i in range(n)]
        return TruncSeries(self.ring, out, prec)

    __radd__ = __add__

    def __neg__(self):
        neg = self.ring.neg
        return TruncSeries(self.ring, [neg(c) for c in self.coeffs], self.prec)

    def __sub__(self, other):
        return self + (-self._check(other))

    def __rsub__(self, other):
        return self._check(other) - self

    def __mul__(self, other):
        other = self._check(other)
        return series_mul(self, other)

    __rmul__ = __mul__

    def scale(self, c):
        """Multiply every coefficient by a ring element."""
        c = self.ring.coerce(c)
        mul = self.ring.mul
        return TruncSeries(self.ring, [mul(v, c) for v in self.coeffs], self.prec)

    def mul_int(self, n):
        mi = self.ring.mul_int
        return TruncSeries(self.ring, [mi(c, n) for c in self.coeffs], self.prec)

    def shift(self, k):
        """Multiply by z^k, k >= 0."""
        if k < 0:
            raise ValueError("shift exponent must be nonnegative")
        prec = None if self.prec is None else self.prec + k
        return TruncSeries(self.ring, [self.ring.zero] * k + self.coeffs, prec)

    def __pow__(self, n):
        return power(self, n, TruncSeries.one(self.ring))

    def inverse(self):
        return series_inverse(self)

    def reversion(self):
        return series_reversion(self)

    def exact_div(self, den):
        """Quotient q with q*den == self, checking divisibility at every step."""
        den = self._check(den)
        if den.is_zero() or not den.coeffs or self.ring.is_zero(den.coeffs[0]):
            raise ExactnessError("series division requires a nonzero constant term")
        prec = _min_prec(self.prec, den.prec)
        if prec is None:
            prec = max(len(self.coeffs), 1)
        ring = self.ring
        d0 = den.coeffs[0]
        num = self.coeffs + [ring.zero] * prec
        out = div_coeffs(num, den.coeffs, prec, lambda acc: ring.exact_div(acc, d0))
        return TruncSeries(ring, out, prec)

    def compose(self, g):
        """self(g(z)); g must have zero constant term.

        Baby-step giant-step: with block size b, only O(b + n/b) full series
        products are needed; the per-block sums are coefficient scalings.
        """
        g = self._check(g)
        if g.coeffs and not self.ring.is_zero(g.known(0)):
            raise ValueError("composition requires the inner series to vanish at 0")
        prec = _min_prec(self.prec, g.prec)
        if prec is None:
            prec = max(len(self.coeffs) + len(g.coeffs), 1)
        coeffs = self.coeffs[: prec if prec else None]
        if not coeffs:
            return TruncSeries(self.ring, [], prec)
        g = g.truncate(prec)
        block = max(1, int(len(coeffs) ** 0.5))
        gpow = [TruncSeries.one(self.ring, prec)]
        for _ in range(block - 1):
            gpow.append(series_mul(gpow[-1], g).truncate(prec))
        giant = series_mul(gpow[-1], g).truncate(prec)  # g^block
        nblocks = -(-len(coeffs) // block)
        acc = TruncSeries(self.ring, [], prec)
        for j in range(nblocks - 1, -1, -1):
            part = TruncSeries(self.ring, [], prec)
            for r in range(min(block, len(coeffs) - j * block)):
                c = coeffs[j * block + r]
                if not self.ring.is_zero(c):
                    part = part + gpow[r].scale(c)
            acc = series_mul(acc, giant).truncate(prec) + part
        return acc.truncate(prec)

    def differentiate(self):
        mi = self.ring.mul_int
        out = [mi(c, i) for i, c in enumerate(self.coeffs)][1:]
        prec = None if self.prec is None else max(self.prec - 1, 0)
        return TruncSeries(self.ring, out, prec)

    def integrate(self):
        """Termwise antiderivative with constant 0; divisions must be exact."""
        ring = self.ring
        out = [ring.zero]
        for i, c in enumerate(self.coeffs):
            out.append(ring.exact_div(c, ring.coerce(i + 1)))
        prec = None if self.prec is None else self.prec + 1
        return TruncSeries(ring, out, prec)

    def map_coeffs(self, func, ring=None):
        ring = ring or self.ring
        return TruncSeries(ring, [func(c) for c in self.coeffs], self.prec)

    # -- comparison / display

    def same_to(self, other, prec=None):
        """Coefficientwise agreement through min(shared precision, prec)."""
        other = self._check(other)
        bound = _min_prec(_min_prec(self.prec, other.prec), prec)
        if bound is None:
            bound = max(len(self.coeffs), len(other.coeffs))
        eq = self.ring
        for i in range(bound):
            if not eq.is_zero(eq.sub(self.known(i), other.known(i))):
                return False
        return True

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            try:
                other = self._check(other)
            except DomainMismatchError:
                return NotImplemented
        return self.ring == other.ring and self.prec == other.prec and self.coeffs == other.coeffs

    def __str__(self):
        pieces = []
        for i, c in enumerate(self.coeffs):
            if self.ring.is_zero(c):
                continue
            cs = str(c)
            if any(op in cs[1:] for op in "+-"):
                cs = "(%s)" % cs
            if i == 0:
                pieces.append(cs)
            elif i == 1:
                pieces.append("%s*z" % cs)
            else:
                pieces.append("%s*z^%d" % (cs, i))
        body = " + ".join(pieces) if pieces else "0"
        if self.prec is not None:
            body += " + O(z^%d)" % self.prec
        return body

    def __repr__(self):
        return "TruncSeries(%s)" % self


def series_mul(f, g):
    """Truncated product; the result precision is the minimum justified one."""
    if f.ring != g.ring:
        raise DomainMismatchError("mixed series domains: %s vs %s" % (f.ring.name, g.ring.name))
    # each factor's precision shifts by the other's valuation; None (an exact
    # polynomial, or the infinite valuation of an exact zero) absorbs the sum
    vf, vg = f.valuation(), g.valuation()
    prec = _min_prec(
        None if f.prec is None or vg is None else f.prec + vg,
        None if g.prec is None or vf is None else g.prec + vf,
    )
    n = max(len(f.coeffs) + len(g.coeffs) - 1, 0)
    if prec is not None:
        n = min(n, prec)
    return TruncSeries(f.ring, mul_coeffs(f.coeffs, g.coeffs, n, f.ring.zero), prec)


def series_inverse(f):
    """Multiplicative inverse; the lowest-order coefficient must be a unit."""
    ring = f.ring
    if not f.coeffs or ring.is_zero(f.coeffs[0]):
        raise ExactnessError("series inverse requires a unit constant term")
    c0 = ring.invert(f.coeffs[0])
    prec = f.prec if f.prec is not None else max(len(f.coeffs), 1)
    num = [ring.one] + [ring.zero] * (prec - 1)
    out = div_coeffs(num, f.coeffs, prec, lambda acc: ring.mul(acc, c0))
    return TruncSeries(ring, out, prec)


def series_reversion(f):
    """Compositional inverse g with f(g(z)) = z = g(f(z)).

    Requires zero constant term and a unit linear coefficient.  Newton
    iteration with doubling precision.
    """
    ring = f.ring
    if f.coeffs and not ring.is_zero(f.known(0)):
        raise ValueError("reversion requires a zero constant term")
    if len(f.coeffs) < 2 or not ring.is_unit(f.known(1)):
        raise ValueError("reversion requires a unit linear coefficient")
    prec = f.prec if f.prec is not None else max(len(f.coeffs), 2)
    f = f.truncate(prec)
    inv1 = ring.invert(f.coeffs[1])
    g = TruncSeries(ring, [ring.zero, inv1], 2)
    z = TruncSeries.identity(ring, prec)
    k = 2
    while k < prec:
        k = min(2 * k, prec)
        g = TruncSeries(ring, g.coeffs, k)
        fg = f.truncate(k).compose(g)
        resid = fg - z.truncate(k)
        # f'(g) = (f(g))' / g', avoiding a second composition
        deriv = fg.differentiate().exact_div(g.differentiate().truncate(k - 1))
        g = g - series_mul(resid, series_inverse(deriv)).truncate(k)
    return g.truncate(prec)
