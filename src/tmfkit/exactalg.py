"""Exact arithmetic kernel: coefficient domains, sparse multivariate polynomials,
and truncated power series with inversion, composition, and reversion.

Every value is exact (machine ints, Fractions, or polynomials over those);
nothing in the package ever rounds.
"""

import re
from fractions import Fraction
from math import lcm
from operator import itemgetter, mul as _times


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


def _biased(c, width, k):
    """(raw, bias): the first k slots of ``width`` bytes of c plus a bias of
    half a slot in each, as bytes, and the bias.  The bias makes every slot
    nonnegative, so the slots unpack independently with no borrow between
    them."""
    bias = int.from_bytes((bytes(width - 1) + b"\x80") * k, "little")
    return ((c + bias) & ((1 << (8 * width * k)) - 1)).to_bytes(width * k, "little"), bias


def _unpack(c, width, k):
    """The first k slots of ``width`` bytes of c, as signed ints."""
    raw, _ = _biased(c, width, k)
    half = 1 << (8 * width - 1)
    return [int.from_bytes(raw[i:i + width], "little") - half for i in range(0, width * k, width)]


_NONZERO_BYTES = re.compile(b"[^\x00]+")


def _nonzero_slots(c, width, k):
    """(i, value) for the nonzero slots among the first k of c, as by
    ``_unpack``; a slot is nonzero where its biased bytes differ from the
    bias, and the regex finds those bytes without a Python step per slot."""
    raw, bias = _biased(c, width, k)
    half, last = 1 << (8 * width - 1), -1
    for m in _NONZERO_BYTES.finditer((int.from_bytes(raw, "little") ^ bias).to_bytes(width * k, "little")):
        for i in range(max(m.start() // width, last + 1), (m.end() - 1) // width + 1):
            yield i, int.from_bytes(raw[i * width:(i + 1) * width], "little") - half
        last = (m.end() - 1) // width


def mul_packed(a, b, n):
    """The first n coefficients of a*b for int lists, by Kronecker substitution.

    Each list becomes one integer with a fixed-width slot per coefficient, a
    single big-int product (Karatsuba in CPython) multiplies them, and slot k
    of the result is coefficient k.
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
    pa = _pack(a, width)
    return _unpack(pa * (pa if square else _pack(b, width)), width, k) + [0] * (n - k)


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


def _graded_ring(zero):
    """True for the zero of a graded ZZ[vars] or QQ[vars], whose series the
    graded paths below may take."""
    return type(zero) is MPoly and bool(zero.ring.weights) and type(zero.ring.base) in (IntegerRing, RationalRing)


def _dense_enough(lists, row):
    """The cost rule: the operands' slots, ``row`` per coefficient, number
    at most GRADED_SLOTS_PER_TERM times their terms."""
    slots = row * sum(map(len, lists))
    return slots <= GRADED_SLOTS_PER_TERM * sum(len(c.terms) for coeffs in lists for c in coeffs)


class _Layout:
    """Integer slots for the terms of homogeneous polynomials over a graded
    ZZ[vars] or QQ[vars] of weight at most ``top``: a row of ``row`` slots
    per coefficient.  The lowest-weight variable x_d gets no digit, because
    its exponent follows from the weight; every other exponent e_j is a digit
    of width top // w_j + 1, so no digit of a term of weight <= top carries
    into the next."""

    def __init__(self, ring, top):
        weights = ring.weights
        self.ring, self.weights = ring, weights
        self.rational = type(ring.base) is RationalRing
        self.d = weights.index(min(weights))
        self.top = top
        self.strides, self.row = [0] * ring.nvars, 1
        for j, w in enumerate(weights):
            if j != self.d:
                self.strides[j] = self.row
                self.row *= top // w + 1
        self.decode = None

    def flatten(self, coeffs, lo, hi, k):
        """(flat, den): coeffs[lo:hi] as one int list, term c*x^e of z^i at
        slot (i - lo)*row + sum(e*strides), scaled by den, the lcm of the
        denominators; None if a term of z^i has a weight other than i + k."""
        weights, strides, row = self.weights, self.strides, self.row
        hi = min(hi, len(coeffs))
        flat = [0] * ((hi - lo) * row)
        for i in range(lo, hi):
            at = (i - lo) * row
            for e, c in coeffs[i].terms.items():
                if sum(map(_times, e, weights)) != i + k:
                    return None
                flat[at + sum(map(_times, e, strides))] = c
        den = 1
        if self.rational:
            den = lcm(*{c.denominator for c in flat if c})
            flat = [c.numerator * (den // c.denominator) for c in flat]
        return flat, den

    def polys(self, slots, nrows, weight, den):
        """The nrows polynomials whose coefficients, times den, sit in
        consecutive rows of slots, given as (slot, value) for the nonzero
        ones, row t of weight ``weight + t``; x_d's exponent comes back from
        the weight."""
        ring, d, weights, row = self.ring, self.d, self.weights, self.row
        if self.decode is None:  # the other exponents of each slot of a row, and their weight
            self.decode = []
            for r in range(row):
                e = [r // s % (self.top // w + 1) if s else 0 for s, w in zip(self.strides, weights)]
                self.decode.append((e, sum(map(_times, e, weights))))
        wd = weights[d]
        rows = [{} for _ in range(nrows)]
        for at, c in slots:
            t, r = divmod(at, row)
            e, w = self.decode[r]
            e[d], rest = divmod(weight + t - w, wd)
            if rest or e[d] < 0:
                raise InternalError("graded layout lost the %s exponent (bug)" % ring.variables[d])
            rows[t][tuple(e)] = Fraction(c, den) if self.rational else c
        return [MPoly(ring, terms, _clean=True) if terms else ring.zero for terms in rows]


def mul_graded(a, b, n, zero):
    """The first n coefficients of a*b for lists of polynomials over a graded
    ZZ[vars] or QQ[vars], by one integer product; None unless both lists
    are homogeneous and fill the layout densely enough (the cost rule above).

    A list is homogeneous if, for one k, every term of its z^i coefficient
    has weight i + k; the w-series, chord-sum, log/exp and composition
    series of a Weierstrass curve all are (|a_i| = i, |z| = -1).  Then each
    list becomes one int list with a slot per z^i and monomial
    (``_Layout``), and the integer ``mul_coeffs`` (packed or schoolbook by
    its own rule) multiplies the two.  An output term of z^i, i < n, has
    weight at most top = n - 1 + ka + kb, which the layout holds, and the
    terms of z^i >= n that carry out of their row land past every kept
    slot.  QQ lists are scaled to integers by the lcm of their denominators
    first.
    """
    if not _graded_ring(zero):
        return None
    if n <= 0:
        return []
    weights = zero.ring.weights
    ga = _grade(a, n, weights)
    gb = ga if b is a else _grade(b, n, weights)
    if ga is None or gb is None:
        return [zero] * n
    (va, ka), (vb, kb) = ga, gb
    top = n - 1 + ka + kb
    if n <= va + vb or top < 0:
        return [zero] * n
    layout = _Layout(zero.ring, top)
    # terms of a at z^i, i >= n - vb, reach no kept output (and likewise b)
    square = b is a
    a = a[va:n - vb]
    b = a if square else b[vb:n - va]
    if not _dense_enough((a, b), layout.row):
        return None
    fa = layout.flatten(a, 0, len(a), ka + va)
    fb = fa if square else layout.flatten(b, 0, len(b), kb + vb)
    if fa is None or fb is None:
        return None
    (fa, da), (fb, db) = fa, fb
    prod = enumerate(mul_coeffs(fa, fb, (n - va - vb) * layout.row, 0))
    out = layout.polys(filter(itemgetter(1), prod), n - va - vb, va + vb + ka + kb, da * db)
    return [zero] * (va + vb) + out


def compose_blocks(coeffs, gpow, prec, zero):
    """The block sums sum_r coeffs[j*b + r] * gpow[r] below z^prec of a
    baby-step giant-step composition f(g) (b = len(gpow), gpow[r] the
    coefficients of g^r, j = 0, 1, ...), as coefficient lists; None unless
    the ring is a graded ZZ[vars] or QQ[vars], f is homogeneous, g has
    offset -1 (|g| = |z|), and the layout passes the cost rule.

    Every baby step is packed once into a big integer on one ``_Layout``;
    each coefficient is packed as a single row, so a block sum is b
    big-integer multiply-adds, decoded once, and only at its nonzero slots
    (most slots of the low rows are zero, since the layout is sized for the
    last block).  Block j's z^i coefficient has weight i + kf + j*b (kf the
    offset of f), at most top below.  QQ
    baby steps share the lcm of their denominators; each block's
    coefficients are cleared by their own.
    """
    if not _graded_ring(zero):
        return None
    ring, b = zero.ring, len(gpow)
    nblocks = -(-len(coeffs) // b)
    kf = _grade(coeffs, len(coeffs), ring.weights)[1]
    layout = _Layout(ring, max(prec - 1 + kf + (nblocks - 1) * b, prec - 1))
    row = layout.row
    if not _dense_enough(gpow + [coeffs], row):
        return None
    flat_f = [layout.flatten(coeffs, j * b, (j + 1) * b, kf) for j in range(nblocks)]
    flat_g = [layout.flatten(p, 0, prec, -r) for r, p in enumerate(gpow)]
    if None in flat_f or None in flat_g:
        return None
    den_g = lcm(*(den for _, den in flat_g))
    flat_g = [flat if den == den_g else [c * (den_g // den) for c in flat] for flat, den in flat_g]
    # a slot of a block sum adds at most one product per term of the block's coefficients
    most = max(sum(len(c.terms) for c in coeffs[j * b:(j + 1) * b]) for j in range(nblocks))
    bits = max(max(map(int.bit_length, flat)) for flat, _ in flat_f) + most.bit_length() + 1
    width = (bits + max(max(map(int.bit_length, flat), default=0) for flat in flat_g) + 7) >> 3
    packed_g = [_pack(flat, width) if flat else 0 for flat in flat_g]
    out = []
    for j, (flat, den) in enumerate(flat_f):
        total = 0
        for r in range(len(flat) // row):
            piece = flat[r * row:(r + 1) * row]
            if any(piece):
                total += _pack(piece, width) * packed_g[r]
        out.append(layout.polys(_nonzero_slots(total, width, prec * row), prec, kf + j * b, den * den_g))
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


class ExpressionError(ValueError):
    """Malformed expression text; ``column`` counts from 1."""

    def __init__(self, message, column):
        super().__init__(message)
        self.column = column


_EXPR_TOKEN = re.compile(r"\s*(?:(?P<int>[0-9]+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>\S))")


def parse_expression(text, symbols, const):
    """The value of a polynomial written as text, such as ``format_terms``
    prints, computed with the operators of the caller's values.

    ``symbols`` maps each name to its value and ``const`` turns an integer
    into one.  Juxtaposition multiplies::

        expr   := ['+' | '-'] term (('+' | '-') term)*
        term   := factor (['*'] factor)*
        factor := '-' factor | atom ['^' INT]
        atom   := INT | NAME | '(' expr ')'
    """
    tokens = [(m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup) + 1)
              for m in _EXPR_TOKEN.finditer(text)]
    tokens.append((None, "end of input", len(text) + 1))
    pos = 0

    def fail(expected):
        kind, val, col = tokens[pos]
        raise ExpressionError("expected %s, found %s" % (expected, val if kind is None else repr(val)), col)

    def take(*ops):
        nonlocal pos
        kind, val, _ = tokens[pos]
        if kind == "op" and val in ops:
            pos += 1
            return val
        return None

    def expr():
        sign = take("+", "-")
        value = term()
        if sign == "-":
            value = -value
        while True:
            op = take("+", "-")
            if op is None:
                return value
            value = value + term() if op == "+" else value - term()

    def term():
        value = factor()
        # a number, a name or "(" right after a factor multiplies it
        while take("*") or tokens[pos][0] in ("int", "name") or tokens[pos][1] == "(":
            value = value * factor()
        return value

    def factor():
        nonlocal pos
        if take("-"):
            return -factor()
        value = atom()
        if take("^"):
            kind, val, _ = tokens[pos]
            if kind != "int":
                fail("an integer exponent")
            pos += 1
            value = value ** int(val)
        return value

    def atom():
        nonlocal pos
        kind, val, col = tokens[pos]
        if kind == "int":
            pos += 1
            return const(int(val))
        if kind == "name":
            if val not in symbols:
                raise ExpressionError(
                    "unknown symbol %r (expected one of %s)" % (val, ", ".join(symbols)), col)
            pos += 1
            return symbols[val]
        if not take("("):
            fail("a number, a name or '('")
        value = expr()
        if not take(")"):
            fail("')'")
        return value

    value = expr()
    if tokens[pos][0] is not None:
        fail("an operator or the end of input")
    return value


# ---------------------------------------------------------------------------
# scalar coefficient domains


class NativeDomain:
    """Domain methods on Python's own operators, for values that are always
    in canonical form.  ZZ and QQ use all of them; PrimeField and
    PolynomialRing override the ones they reduce or wrap."""

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

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return type(other) is type(self)

    def __hash__(self):
        return hash(self.name)


class IntegerRing(NativeDomain):
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


class RationalRing(NativeDomain):
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


class PrimeField(NativeDomain):
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

    def __eq__(self, other):
        return type(other) is type(self) and other.p == self.p

    def __hash__(self):
        return hash((self.name,))


ZZ = IntegerRing()
QQ = RationalRing()


# ---------------------------------------------------------------------------
# sparse multivariate polynomials


class PolynomialRing(NativeDomain):
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
        """x itself if it lies in this ring, else the constant x of the base
        (a scalar, or an element of a polynomial base ring); the base's
        ``coerce`` rejects anything else with DomainMismatchError."""
        if isinstance(x, MPoly) and (x.ring is self or x.ring == self):
            return x
        return self.const(x)

    # the rest of the domain interface (canon, add, sub, mul and neg are
    # NativeDomain's), so a PolynomialRing can serve as a series coefficient ring
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

    def coefficient(self, exp):
        return self.terms.get(tuple(exp), self.ring.base.zero)

    # -- arithmetic

    def _check(self, other):
        """other as an element of this ring, as ``PolynomialRing.coerce``
        takes it: a scalar or an element of the base ring becomes a constant."""
        if isinstance(other, MPoly) and (other.ring is self.ring or other.ring == self.ring):
            return other
        return self.ring.coerce(other)

    def __add__(self, other):
        other = self._check(other)
        if not self.terms and other.ring is self.ring:
            return other
        base = self.ring.base
        out = dict(self.terms)
        for exp, c in other.terms.items():
            if exp in out:
                c = base.add(out[exp], c)
                if base.is_zero(c):
                    del out[exp]
                    continue
            out[exp] = c
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
                if exp in out:
                    p = badd(out[exp], p)
                if bzero(p):
                    out.pop(exp, None)
                else:
                    out[exp] = p
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

        Baby-step giant-step (Paterson-Stockmeyer): with block size b, only
        O(b + n/b) series products are needed, each cut below the result's
        precision.  The block sums run as big-integer multiply-adds
        (``compose_blocks``) over a graded ZZ[vars] or QQ[vars], and as
        coefficient scalings everywhere else.
        """
        g = self._check(g)
        ring = self.ring
        if g.coeffs and not ring.is_zero(g.known(0)):
            raise ValueError("composition requires the inner series to vanish at 0")
        prec = _min_prec(self.prec, g.prec)
        if prec is None:
            prec = max(len(self.coeffs) + len(g.coeffs), 1)
        coeffs = self.truncate(prec).coeffs
        if not coeffs:
            return TruncSeries(ring, [], prec)
        block = max(1, int(len(coeffs) ** 0.5))
        gpow = [TruncSeries.one(ring, prec)]
        for _ in range(block - 1):
            gpow.append(trimmed_product(gpow[-1], g, prec))
        giant = trimmed_product(gpow[-1], g, prec)  # g^block
        sums = compose_blocks(coeffs, [p.coeffs for p in gpow], prec, ring.zero)
        acc = TruncSeries(ring, [], prec)
        for j in range(-(-len(coeffs) // block) - 1, -1, -1):
            if sums is None:
                part = TruncSeries(ring, [], prec)
                for r, c in enumerate(coeffs[j * block:(j + 1) * block]):
                    if not ring.is_zero(c):
                        part = part + gpow[r].scale(c)
            else:
                part = TruncSeries(ring, sums[j], prec)
            acc = trimmed_product(acc, giant, prec) + part
        return acc

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


def trimmed_product(f, g, prec):
    """f*g below z^prec, computing no coefficient at or past it: each factor
    is needed only below prec minus the other's valuation."""
    vf, vg = f.valuation(), g.valuation()
    if vf is None or vg is None or vf + vg >= prec:
        return TruncSeries.zero(f.ring, prec)
    return series_mul(f.truncate(prec - vg), g.truncate(prec - vf))


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
        # 1/f'(g) = g' / (f(g))', avoiding a second composition
        step = g.differentiate().truncate(k - 1).exact_div(fg.differentiate())
        g = g - trimmed_product(resid, step, k)
    return g.truncate(prec)
