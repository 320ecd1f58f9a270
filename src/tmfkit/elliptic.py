"""Weierstrass curves, their standard quantities, formal group laws, p-series
by two independent routes, and the Hasse-invariant extraction.

Coordinates for the formal group: z = -x/y, w = -1/y, in which the curve
equation becomes w = z^3 + a1 z w + a2 z^2 w + a3 w^2 + a4 z w^2 + a6 w^3 and
addition is computed by the chord through two nearby points followed by the
curve's negation.
"""

from dataclasses import dataclass
from fractions import Fraction

from .exactalg import (
    ZZ,
    QQ,
    DomainMismatchError,
    ExactnessError,
    IntegerRing,
    InternalError,
    MPoly,
    PolynomialRing,
    PrimeField,
    TruncSeries,
    power,
)


class RouteDisagreementError(InternalError):
    """The two independent p-series routes produced different series."""


def _jsonable(x):
    return x.to_dict() if isinstance(x, MPoly) else x


# ---------------------------------------------------------------------------
# curves and their standard quantities


@dataclass(frozen=True)
class WeierstrassCurve:
    """y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6 over a shared ring."""

    ring: object
    a1: object
    a2: object
    a3: object
    a4: object
    a6: object

    def coefficients(self):
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    def __str__(self):
        def side(head, pairs):
            out = head
            for coeff, mono in pairs:
                if self.ring.is_zero(coeff):
                    continue
                text = str(coeff)
                if text == "1":
                    out += " + %s" % mono
                elif any(op in text[1:] for op in "+-") or text.startswith("-"):
                    out += " + (%s)*%s" % (text, mono)
                else:
                    out += " + %s*%s" % (text, mono)
            return out

        lhs = side("y^2", [(self.a1, "xy"), (self.a3, "y")])
        rhs = side("x^3", [(self.a2, "x^2"), (self.a4, "x")])
        if not self.ring.is_zero(self.a6):
            text = str(self.a6)
            rhs += " + (%s)" % text if any(op in text[1:] for op in "+-") or text.startswith("-") \
                else " + %s" % text
        return "%s = %s" % (lhs, rhs)


def make_curve(ring, a1, a2, a3, a4, a6):
    vals = [ring.coerce(a) for a in (a1, a2, a3, a4, a6)]
    return WeierstrassCurve(ring, *vals)


# The curve rings grade a_i by |a_i| = i, so every series of the formal group
# law is homogeneous and exactalg.mul_coeffs can pack its products.


def generic_curve():
    """Fully symbolic curve over Z[a1, a2, a3, a4, a6]."""
    ring = PolynomialRing(("a1", "a2", "a3", "a4", "a6"), weights=(1, 2, 3, 4, 6))
    a1, a2, a3, a4, a6 = ring.gens()
    return make_curve(ring, a1, a2, a3, a4, a6)


def curve_a2_a4():
    """y^2 = x^3 + a2 x^2 + a4 x over Z[a2, a4] (the odd-prime normal form)."""
    ring = PolynomialRing(("a2", "a4"), weights=(2, 4))
    a2, a4 = ring.gens()
    return make_curve(ring, 0, a2, 0, a4, 0)


def curve_a1_a3():
    """y^2 + a1 xy + a3 y = x^3 over Z[a1, a3] (the 2-adic normal form)."""
    ring = PolynomialRing(("a1", "a3"), weights=(1, 3))
    a1, a3 = ring.gens()
    return make_curve(ring, a1, 0, a3, 0, 0)


def integer_curve(a1, a2, a3, a4, a6):
    return make_curve(ZZ, a1, a2, a3, a4, a6)


@dataclass(frozen=True)
class CurveInvariants:
    """b2, b4, b6, b8, c4, c6 and the discriminant of a Weierstrass curve.

    Construction verifies c4^3 - c6^2 = 1728*delta and 4*b8 = b2*b6 - b4^2.
    """

    b2: object
    b4: object
    b6: object
    b8: object
    c4: object
    c6: object
    delta: object

    def __post_init__(self):
        if self.c4 ** 3 - self.c6 ** 2 != 1728 * self.delta:
            raise InternalError("curve quantities violate c4^3 - c6^2 = 1728*delta")
        if 4 * self.b8 != self.b2 * self.b6 - self.b4 ** 2:
            raise InternalError("curve quantities violate 4*b8 = b2*b6 - b4^2")

    def to_dict(self):
        return {k: _jsonable(getattr(self, k)) for k in ("b2", "b4", "b6", "b8", "c4", "c6", "delta")}


def invariants(curve):
    """The seven standard quantities of a Weierstrass curve."""
    a1, a2, a3, a4, a6 = curve.coefficients()
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    c4 = b2 * b2 - 24 * b4
    c6 = -(b2 ** 3) + 36 * b2 * b4 - 216 * b6
    delta = -(b2 * b2 * b8) - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    return CurveInvariants(b2, b4, b6, b8, c4, c6, delta)


@dataclass(frozen=True)
class DeltaDiscrepancy:
    """The full discriminant of y^2 = x^3 + a2 x^2 + a4 x next to the shortcut
    expression a2^2 b4^2 - 16 b4^3; the two disagree and both are reported."""

    general: object
    shortcut: object
    difference: object
    agree: bool

    def to_dict(self):
        return {
            "general": _jsonable(self.general),
            "shortcut": _jsonable(self.shortcut),
            "difference": _jsonable(self.difference),
            "agree": self.agree,
        }


def a2a4_delta_discrepancy():
    curve = curve_a2_a4()
    inv = invariants(curve)
    b4 = inv.b4
    shortcut = curve.a2 * curve.a2 * b4 * b4 - 16 * b4 ** 3
    return DeltaDiscrepancy(inv.delta, shortcut, inv.delta - shortcut, inv.delta == shortcut)


# ---------------------------------------------------------------------------
# truncated multivariate series (carrier for the materialized group law)


class MultiSeries:
    """Series in z1..zk over a scalar or polynomial domain, truncated at a
    total-degree bound: ``prec`` is the first unknown total degree."""

    __slots__ = ("ring", "nvars", "terms", "prec")

    def __init__(self, ring, nvars, terms, prec, _clean=False):
        self.ring = ring
        self.nvars = nvars
        self.prec = prec
        if _clean:
            self.terms = terms
            return
        clean = {}
        for exp, c in terms.items():
            exp = tuple(exp)
            if len(exp) != nvars:
                raise ValueError("exponent tuple %r for %d variables" % (exp, nvars))
            if sum(exp) >= prec:
                continue
            c = ring.canon(ring.coerce(c))
            if not ring.is_zero(c):
                clean[exp] = c
        self.terms = clean

    @classmethod
    def zero(cls, ring, nvars, prec):
        return cls(ring, nvars, {}, prec, _clean=True)

    @classmethod
    def one(cls, ring, nvars, prec):
        return cls(ring, nvars, {(0,) * nvars: ring.one}, prec, _clean=True)

    @classmethod
    def variable(cls, ring, nvars, index, prec):
        exp = [0] * nvars
        exp[index] = 1
        return cls(ring, nvars, {tuple(exp): ring.one}, prec, _clean=True)

    def coefficient(self, exp):
        return self.terms.get(tuple(exp), self.ring.zero)

    def is_zero(self):
        return not self.terms

    def _check(self, other):
        if not isinstance(other, MultiSeries):
            raise TypeError("expected MultiSeries, got %r" % (other,))
        if other.ring != self.ring or other.nvars != self.nvars:
            raise DomainMismatchError("incompatible multivariate series")
        return other

    def __add__(self, other):
        other = self._check(other)
        ring = self.ring
        prec = min(self.prec, other.prec)
        out = {e: c for e, c in self.terms.items() if sum(e) < prec}
        for e, c in other.terms.items():
            if sum(e) >= prec:
                continue
            s = ring.add(out.get(e, ring.zero), c)
            if ring.is_zero(s):
                out.pop(e, None)
            else:
                out[e] = s
        return MultiSeries(ring, self.nvars, out, prec, _clean=True)

    def __neg__(self):
        neg = self.ring.neg
        return MultiSeries(
            self.ring, self.nvars, {e: neg(c) for e, c in self.terms.items()}, self.prec, _clean=True
        )

    def __sub__(self, other):
        return self + (-self._check(other))

    def __mul__(self, other):
        other = self._check(other)
        ring = self.ring
        prec = min(self.prec, other.prec)
        add, mul, is_zero, zero = ring.add, ring.mul, ring.is_zero, ring.zero
        out = {}
        for e1, c1 in self.terms.items():
            d1 = sum(e1)
            if d1 >= prec:
                continue
            for e2, c2 in other.terms.items():
                if d1 + sum(e2) >= prec:
                    continue
                exp = tuple(a + b for a, b in zip(e1, e2))
                s = add(out.get(exp, zero), mul(c1, c2))
                if is_zero(s):
                    out.pop(exp, None)
                else:
                    out[exp] = s
        return MultiSeries(ring, self.nvars, out, prec, _clean=True)

    def scale(self, c):
        ring = self.ring
        c = ring.coerce(c)
        if ring.is_zero(c):
            return MultiSeries.zero(ring, self.nvars, self.prec)
        out = {}
        for e, v in self.terms.items():
            s = ring.mul(v, c)
            if not ring.is_zero(s):
                out[e] = s
        return MultiSeries(ring, self.nvars, out, self.prec, _clean=True)

    def mul_int(self, n):
        ring = self.ring
        out = {}
        for e, v in self.terms.items():
            s = ring.canon(ring.mul_int(v, n))
            if not ring.is_zero(s):
                out[e] = s
        return MultiSeries(ring, self.nvars, out, self.prec, _clean=True)

    def __pow__(self, n):
        return power(self, n, MultiSeries.one(self.ring, self.nvars, self.prec))

    def inverse(self):
        """Inverse of a series with unit constant term, by Newton iteration."""
        ring = self.ring
        c0 = self.terms.get((0,) * self.nvars)
        if c0 is None or not ring.is_unit(c0):
            raise ExactnessError("multivariate inverse requires a unit constant term")
        inv0 = ring.invert(c0)
        x = MultiSeries(self.ring, self.nvars, {(0,) * self.nvars: inv0}, 1, _clean=True)
        two = MultiSeries(self.ring, self.nvars, {(0,) * self.nvars: ring.mul_int(ring.one, 2)},
                          self.prec, _clean=True)
        k = 1
        while k < self.prec:
            k = min(2 * k, self.prec)
            x = MultiSeries(ring, self.nvars, x.terms, k, _clean=True)
            x = x * (two - self * x)
        return x

    def embed(self, nvars, positions):
        """Reinterpret in a larger variable set; positions maps old slots to new."""
        out = {}
        for e, c in self.terms.items():
            exp = [0] * nvars
            for old, new in enumerate(positions):
                exp[new] = e[old]
            out[tuple(exp)] = c
        return MultiSeries(self.ring, nvars, out, self.prec, _clean=True)

    def truncate(self, prec):
        prec = min(prec, self.prec)
        out = {e: c for e, c in self.terms.items() if sum(e) < prec}
        return MultiSeries(self.ring, self.nvars, out, prec, _clean=True)

    def __eq__(self, other):
        if not isinstance(other, MultiSeries):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.nvars == other.nvars
            and self.prec == other.prec
            and self.terms == other.terms
        )

    def __str__(self):
        names = ["z%d" % (i + 1) for i in range(self.nvars)]
        pieces = []
        for e, c in sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0])):
            mono = "*".join(
                n if p == 1 else "%s^%d" % (n, p) for n, p in zip(names, e) if p
            )
            cs = str(c)
            if any(op in cs[1:] for op in "+-"):
                cs = "(%s)" % cs
            pieces.append("%s*%s" % (cs, mono) if mono else cs)
        body = " + ".join(pieces) if pieces else "0"
        return body + " + O(deg %d)" % self.prec


# ---------------------------------------------------------------------------
# the formal group law


def weierstrass_w(curve, prec):
    """w(z) = z^3(1 + ...) solving the curve relation, by fixed-point iteration.

    Each pass through the relation gains at least one correct degree.
    """
    if prec < 4:
        raise ValueError("w-series needs precision >= 4")
    ring = curve.ring
    a1, a2, a3, a4, a6 = curve.coefficients()
    z3 = TruncSeries(ring, [ring.zero] * 3 + [ring.one], prec)
    w = z3
    for _ in range(prec):
        w2 = (w * w).truncate(prec)
        new = z3
        if not ring.is_zero(a1):
            new = new + w.shift(1).truncate(prec).scale(a1)
        if not ring.is_zero(a2):
            new = new + w.shift(2).truncate(prec).scale(a2)
        if not ring.is_zero(a3):
            new = new + w2.scale(a3)
        if not ring.is_zero(a4):
            new = new + w2.shift(1).truncate(prec).scale(a4)
        if not ring.is_zero(a6):
            new = new + (w2 * w).truncate(prec).scale(a6)
        if new == w:
            return w
        w = new
    raise InternalError("w-series iteration failed to stabilize (bug)")


def _w_unit(w):
    """w/z^3 as a unit power series."""
    prec = None if w.prec is None else w.prec - 3
    coeffs = w.coeffs[3:] if len(w.coeffs) > 3 else [w.ring.one]
    return TruncSeries(w.ring, coeffs, prec)


def negation_series(curve, prec):
    """The series i(z) with i(z(P)) = z(-P); starts -z - a1 z^2 - ...."""
    ring = curve.ring
    w = weierstrass_w(curve, prec + 3)
    v = _w_unit(w).inverse()
    zv = v.shift(1)
    # x/(y + a1 x + a3) after clearing z^-3 from numerator and denominator
    den = -v + zv.truncate(v.prec).scale(curve.a1) + TruncSeries(
        ring, [ring.zero] * 3 + [curve.a3], v.prec
    )
    return (zv * den.inverse()).truncate(prec + 1)


def invariant_differential(curve, prec):
    """omega(z)/dz = x'(z)/(2y + a1 x + a3), a unit series with integer-polynomial
    coefficients; the internal division is checked exact."""
    ring = curve.ring
    w = weierstrass_w(curve, prec + 3)
    v = _w_unit(w).inverse()
    zvp = v.differentiate().shift(1)
    num = v.mul_int(-2) + zvp
    den = v.mul_int(-2) + v.shift(1).truncate(v.prec).scale(curve.a1) + TruncSeries(
        ring, [ring.zero] * 3 + [curve.a3], v.prec
    )
    return num.exact_div(den).truncate(prec)


def _eval_poly(coeffs, arg, one):
    """sum coeffs[i] * arg^i by Horner; coeffs are ring elements, low first."""
    acc = one.scale(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        acc = acc * arg + one.scale(c)
    return acc


class FormalGroupLaw:
    """The formal group law of a Weierstrass curve, truncated at a total degree.

    ``add_series`` runs the chord-and-negate construction directly on
    univariate series arguments; the bivariate coefficient table ``series`` is
    materialized on first access.  Unit and commutativity are checked on
    materialization; ``verify_associative`` expands both association orders.
    """

    def __init__(self, curve, degree):
        if degree < 2:
            raise ValueError("formal group law degree must be >= 2")
        self.curve = curve
        self.degree = degree
        self.w = weierstrass_w(curve, degree + 3)
        self._neg_coeffs = None
        if not (curve.ring.is_zero(curve.a1) and curve.ring.is_zero(curve.a3)):
            self._neg_coeffs = negation_series(curve, degree + 1).coeffs
        self._series = None
        self._log_exp = {}

    # -- the addition law on series arguments

    def _chord_sum(self, s, t, one):
        ring = self.curve.ring
        a1, a2, a3, a4, a6 = self.curve.coefficients()
        zero = one.scale(ring.zero)
        A = self.w.coeffs  # A[n] = coefficient of z^n in w
        # lambda = sum_{n>=3} A_n h_{n-1},  h_m = s h_{m-1} + t^m
        h = one
        tpow = t
        lam = zero
        for m in range(1, self.degree + 1):
            h = s * h + tpow
            if m >= 2 and m + 1 < len(A) and not ring.is_zero(A[m + 1]):
                lam = lam + h.scale(A[m + 1])
            if m < self.degree:
                tpow = tpow * t
        nu = _eval_poly(A, s, one) - lam * s
        lam2 = None
        if not (ring.is_zero(a3) and ring.is_zero(a4) and ring.is_zero(a6)):
            lam2 = lam * lam
        num = zero
        if not ring.is_zero(a1):
            num = num + lam.scale(a1)
        if not ring.is_zero(a3):
            num = num + lam2.scale(a3)
        if not ring.is_zero(a2):
            num = num + nu.scale(a2)
        if not ring.is_zero(a4):
            num = num + (lam * nu).scale(ring.mul_int(a4, 2))
        if not ring.is_zero(a6):
            num = num + (lam2 * nu).scale(ring.mul_int(a6, 3))
        den = one
        if not ring.is_zero(a2):
            den = den + lam.scale(a2)
        if not ring.is_zero(a4):
            den = den + lam2.scale(a4)
        if not ring.is_zero(a6):
            den = den + (lam2 * lam).scale(a6)
        if den == one:
            z3 = -(s + t + num)
        else:
            z3 = -(s + t + num * den.inverse())
        if self._neg_coeffs is None:
            return -z3  # negation is z -> -z when a1 = a3 = 0
        return _eval_poly(self._neg_coeffs, z3, one)

    def add_series(self, s, t):
        """F(s(z), t(z)) for univariate series with positive valuation."""
        for arg in (s, t):
            if arg.coeffs and not self.curve.ring.is_zero(arg.known(0)):
                raise ValueError("formal sum arguments must have positive valuation")
        prec = self.degree + 1
        one = TruncSeries.one(self.curve.ring, prec)
        return self._chord_sum(s.truncate(prec), t.truncate(prec), one)

    # -- the materialized coefficient table

    @property
    def series(self):
        if self._series is None:
            ring = self.curve.ring
            prec = self.degree + 1
            s = MultiSeries.variable(ring, 2, 0, prec)
            t = MultiSeries.variable(ring, 2, 1, prec)
            one = MultiSeries.one(ring, 2, prec)
            F = self._chord_sum(s, t, one)
            self._verify_unit_and_commutativity(F)
            self._series = F
        return self._series

    def coefficient(self, i, j):
        return self.series.coefficient((i, j))

    def _verify_unit_and_commutativity(self, F):
        ring = self.curve.ring
        row = {e[0]: c for e, c in F.terms.items() if e[1] == 0}
        if row != {1: ring.one}:
            raise InternalError("formal group law violates F(z1, 0) = z1 (bug)")
        for (i, j), c in F.terms.items():
            if F.terms.get((j, i)) != c:
                raise InternalError("formal group law violates commutativity (bug)")

    def compose_series(self, s, t):
        """Evaluate the materialized law at multivariate series arguments."""
        F = self.series
        ring = self.curve.ring
        nvars, prec = s.nvars, min(s.prec, t.prec)
        spow = {0: MultiSeries.one(ring, nvars, prec)}
        tpow = {0: MultiSeries.one(ring, nvars, prec)}

        def cached_power(cache, base, n):
            if n not in cache:
                cache[n] = cached_power(cache, base, n - 1) * base
            return cache[n]

        acc = MultiSeries.zero(ring, nvars, prec)
        for (i, j), c in sorted(F.terms.items()):
            acc = acc + (cached_power(spow, s, i) * cached_power(tpow, t, j)).scale(c)
        return acc

    def verify_associative(self, degree=None):
        """Expand F(F(z1,z2),z3) and F(z1,F(z2,z3)) and compare; True if equal."""
        degree = self.degree if degree is None else min(degree, self.degree)
        prec = degree + 1
        ring = self.curve.ring
        F = self.series.truncate(prec)
        left_inner = F.embed(3, (0, 1))
        right_inner = F.embed(3, (1, 2))
        z1 = MultiSeries.variable(ring, 3, 0, prec)
        z3 = MultiSeries.variable(ring, 3, 2, prec)
        left = self.compose_series(left_inner, z3)
        right = self.compose_series(z1, right_inner)
        return left == right


def formal_group_law(curve, degree):
    """The curve's formal group law truncated at total degree ``degree``."""
    return FormalGroupLaw(curve, degree)


# ---------------------------------------------------------------------------
# logarithm, exponential, p-series


def _rational_ring(ring):
    if isinstance(ring, IntegerRing):
        return QQ
    if isinstance(ring, PolynomialRing) and isinstance(ring.base, IntegerRing):
        return PolynomialRing(ring.variables, QQ, ring.weights)
    raise ValueError("logarithm route needs a torsion-free integral base, got %s" % ring.name)


def formal_log(curve, prec):
    """Termwise integral of the invariant differential, over the rationals."""
    qring = _rational_ring(curve.ring)
    omega = invariant_differential(curve, prec)
    if isinstance(qring, PolynomialRing):
        omega_q = omega.map_coeffs(lambda c: c.to_base(QQ), qring)
    else:
        omega_q = omega.map_coeffs(Fraction, qring)
    return omega_q.integrate()


def formal_exp(curve, prec):
    """Reversion of the formal logarithm."""
    return formal_log(curve, prec - 1).reversion()


def _to_integral(series, ring):
    def back(c):
        if isinstance(c, MPoly):
            return c.to_base(ZZ)
        return ZZ.coerce(c)

    try:
        return series.map_coeffs(back, ring)
    except DomainMismatchError as exc:
        raise ExactnessError("denominators failed to cancel: %s" % exc) from None


def p_series(fgl, p, degree=None):
    """[p](z) by two independent routes, which must agree.

    Route A iterates the addition law: [m](z) = F([m-1](z), z).  Route B forms
    the logarithm by integrating the invariant differential over the rationals,
    scales by p, and applies the reversed logarithm; all denominators must
    cancel back to integer-polynomial coefficients.
    """
    if p < 1:
        raise ValueError("p-series index must be >= 1")
    degree = fgl.degree if degree is None else degree
    if degree > fgl.degree:
        raise ValueError("group law truncated at degree %d < requested %d" % (fgl.degree, degree))
    ring = fgl.curve.ring
    prec = degree + 1
    z = TruncSeries.identity(ring, prec)
    acc = z
    for _ in range(p - 1):
        acc = fgl.add_series(acc, z)
    route_a = acc.truncate(prec)
    # independent route through log/exp (cached on the group law object)
    cached = fgl._log_exp.get(prec)
    if cached is None:
        ell = formal_log(fgl.curve, prec - 1)
        cached = fgl._log_exp[prec] = (ell, ell.reversion())
    ell, exp = cached
    route_b_q = exp.compose(ell.mul_int(p))
    route_b = _to_integral(route_b_q, ring).truncate(prec)
    if not route_a.same_to(route_b):
        raise RouteDisagreementError(
            "p-series routes disagree for p = %d (internal consistency failure)" % p
        )
    return route_a


# ---------------------------------------------------------------------------
# Hasse invariant


def _mod_p(value, p):
    if isinstance(value, MPoly):
        return value.reduce_mod(p)
    return value % p


def hasse_v1(curve, p):
    """Coefficient of x^(p-1) in cubic(x)^((p-1)/2) mod p, for y^2 = cubic(x).

    Requires p odd and a1 = a3 = 0.
    """
    if p == 2 or p < 3:
        raise ValueError("the Hasse-invariant route needs an odd prime, got %r" % (p,))
    if any(p % d == 0 for d in range(2, int(p ** 0.5) + 1)):
        raise ValueError("%r is not prime" % (p,))
    ring = curve.ring
    if not (ring.is_zero(curve.a1) and ring.is_zero(curve.a3)):
        raise ValueError("curve is not of the form y^2 = cubic(x)")
    a2, a4, a6 = (_mod_p(c, p) for c in (curve.a2, curve.a4, curve.a6))
    gf = PrimeField(p)
    if isinstance(ring, PolynomialRing):
        gf = PolynomialRing(ring.variables, gf)
    cubic = TruncSeries(gf, [a6, a4, a2, gf.one])  # exact polynomial, x^0 .. x^3
    return (cubic ** ((p - 1) // 2)).known(p - 1)


@dataclass(frozen=True)
class V1Report:
    """Comparison of the Hasse invariant with the z^p coefficient of [p](z) mod p."""

    p: int
    hasse: object
    pseries_coeff: object
    unit: object  # scalar u with pseries_coeff = u * hasse mod p, or None

    @property
    def agree_up_to_unit(self):
        return self.unit is not None

    def to_dict(self):
        return {
            "p": self.p,
            "hasse": _jsonable(self.hasse),
            "pseries_coefficient_mod_p": _jsonable(self.pseries_coeff),
            "unit": self.unit,
        }


def v1_check(curve, p, degree=None, series=None):
    """Compute both v1 routes for an odd prime and report the matching unit.

    ``series`` is an already computed [p](z) of the curve's formal group law,
    known to degree >= p; without it the p-series is computed to ``degree``
    (default p + 2).
    """
    if series is None:
        degree = degree if degree is not None else p + 2
        series = p_series(FormalGroupLaw(curve, degree), p, degree)
    coeff = _mod_p(series.coeff(p), p)
    hasse = hasse_v1(curve, p)
    unit = None
    for u in range(1, p):
        candidate = hasse.mul_int(u) if isinstance(hasse, MPoly) else (hasse * u) % p
        if candidate == coeff:
            unit = u
            break
    return V1Report(p, hasse, coeff, unit)
