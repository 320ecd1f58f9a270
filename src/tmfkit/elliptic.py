"""Weierstrass curves, their standard quantities, formal group laws, p-series
by two independent routes, and the Hasse-invariant extraction.

Coordinates for the formal group: z = -x/y, w = -1/y, in which the curve
equation becomes w = z^3 + a1 z w + a2 z^2 w + a3 w^2 + a4 z w^2 + a6 w^3 and
addition is computed by the chord through two nearby points followed by the
curve's negation.
"""

from dataclasses import dataclass

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
    trimmed_product,
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


def negation_series(curve, prec, w=None):
    """The series i(z) with i(z(P)) = z(-P); starts -z - a1 z^2 - ....
    ``w`` is the curve's w-series to at least z^(prec+3), if already built."""
    ring = curve.ring
    w = weierstrass_w(curve, prec + 3) if w is None else w.truncate(prec + 3)
    v = _w_unit(w).inverse()
    zv = v.shift(1)
    # x/(y + a1 x + a3) after clearing z^-3 from numerator and denominator
    den = -v + zv.truncate(v.prec).scale(curve.a1) + TruncSeries(
        ring, [ring.zero] * 3 + [curve.a3], v.prec
    )
    return (zv * den.inverse()).truncate(prec + 1)


def invariant_differential(curve, prec, w=None):
    """omega(z)/dz = x'(z)/(2y + a1 x + a3), a unit series with integer-polynomial
    coefficients; the internal division is checked exact.  ``w`` is the
    curve's w-series to at least z^(prec+3), if already built."""
    ring = curve.ring
    w = weierstrass_w(curve, prec + 3) if w is None else w.truncate(prec + 3)
    v = _w_unit(w).inverse()
    zvp = v.differentiate().shift(1)
    num = v.mul_int(-2) + zvp
    den = v.mul_int(-2) + v.shift(1).truncate(v.prec).scale(curve.a1) + TruncSeries(
        ring, [ring.zero] * 3 + [curve.a3], v.prec
    )
    return num.exact_div(den).truncate(prec)


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
        # the one w-series of this law, to the precision the negation series
        # needs; the chord sum and route B's invariant differential read less
        self.w = weierstrass_w(curve, degree + 4)
        self._neg = None
        if not (curve.ring.is_zero(curve.a1) and curve.ring.is_zero(curve.a3)):
            self._neg = negation_series(curve, degree + 1, self.w)
        self._series = None
        self._log_exp = {}

    # -- the addition law on series arguments

    def _chord_sum(self, s, t, one):
        ring = self.curve.ring
        prec = one.prec

        def mul(f, g):
            return trimmed_product(f, g, prec)

        def on_args(series):  # a series over the curve ring, on the arguments' ring
            return series if series.ring is one.ring else TruncSeries(one.ring, series.coeffs, series.prec)

        a1, a2, a3, a4, a6 = self.curve.coefficients()
        zero = one.scale(ring.zero)
        A = self.w.coeffs  # A[n] = coefficient of z^n in w
        # lambda = sum_{n>=3} A_n h_{n-1},  h_m = s h_{m-1} + t^m
        h = one
        tpow = t
        lam = zero
        for m in range(1, self.degree + 1):
            h = mul(s, h) + tpow
            if m >= 2 and m + 1 < len(A) and not ring.is_zero(A[m + 1]):
                lam = lam + h.scale(A[m + 1])
            if m < self.degree:
                tpow = mul(tpow, t)
        nu = on_args(self.w).compose(s) - mul(lam, s)
        lam2 = None
        if not (ring.is_zero(a3) and ring.is_zero(a4) and ring.is_zero(a6)):
            lam2 = mul(lam, lam)
        num = zero
        if not ring.is_zero(a1):
            num = num + lam.scale(a1)
        if not ring.is_zero(a3):
            num = num + lam2.scale(a3)
        if not ring.is_zero(a2):
            num = num + nu.scale(a2)
        if not ring.is_zero(a4):
            num = num + mul(lam, nu).scale(ring.mul_int(a4, 2))
        if not ring.is_zero(a6):
            num = num + mul(lam2, nu).scale(ring.mul_int(a6, 3))
        den = one
        if not ring.is_zero(a2):
            den = den + lam.scale(a2)
        if not ring.is_zero(a4):
            den = den + lam2.scale(a4)
        if not ring.is_zero(a6):
            den = den + mul(lam2, lam).scale(a6)
        if den == one:
            z3 = -(s + t + num)
        else:
            z3 = -(s + t + mul(num, den.inverse()))
        if self._neg is None:
            return -z3  # negation is z -> -z when a1 = a3 = 0
        return on_args(self._neg).compose(z3)

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
        """F as a polynomial in z1, z2 over the curve ring, through total
        degree ``degree``: the chord sum runs on z1*T and z2*T over
        R[z1, z2], so the T^d coefficient is F's total-degree-d part."""
        if self._series is None:
            ring = PolynomialRing(("z1", "z2"), self.curve.ring)
            prec = self.degree + 1
            z1, z2 = (TruncSeries(ring, [ring.zero, z], prec) for z in ring.gens())
            parts = self._chord_sum(z1, z2, TruncSeries.one(ring, prec)).coeffs
            F = MPoly(ring, {e: c for part in parts for e, c in part.terms.items()}, _clean=True)
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

    def verify_associative(self, degree=None):
        """Expand F(F(z1,z2),z3) and F(z1,F(z2,z3)) and compare; True if equal.

        Both orders are series in T over R[z1, z2, z3] (z_i -> z_i*T, as in
        ``series``) built from the table, with every product cut below
        T^(degree+1).
        """
        degree = self.degree if degree is None else min(degree, self.degree)
        prec = degree + 1
        ring = PolynomialRing(("z1", "z2", "z3"), self.curve.ring)
        table = [(e, c) for e, c in self.series.terms.items() if sum(e) < prec]

        def monomial(exps, c):
            e = [0, 0, 0]
            for k, n in exps:
                e[k] = n
            return MPoly(ring, {tuple(e): c}, _clean=True)

        def expand(pairs, inner, k):
            # sum of c * inner^i * (z_k*T)^j over the ((i, j), c) in pairs;
            # the factor T^j leaves inner^i needed only below T^(prec-j)
            powers = [TruncSeries.one(ring, prec)]
            acc = TruncSeries.zero(ring, prec)
            for (i, j), c in pairs:
                while len(powers) <= i:
                    powers.append(trimmed_product(powers[-1], inner, prec))
                acc = acc + powers[i].truncate(prec - j).scale(monomial(((k, j),), c)).shift(j)
            return acc

        def law(a, b):  # F(z_a*T, z_b*T)
            rows = [ring.zero] * prec
            for (i, j), c in table:
                rows[i + j] = rows[i + j] + monomial(((a, i), (b, j)), c)
            return TruncSeries(ring, rows, prec)

        left = expand(table, law(0, 1), 2)
        right = expand([((j, i), c) for (i, j), c in table], law(1, 2), 0)
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


def _on_ring(series, ring):
    """The series with every coefficient rebuilt on ``ring`` itself: a scalar
    domain, or the same variables over another scalar domain."""
    if isinstance(ring, PolynomialRing):
        return series.map_coeffs(lambda c: ring.from_terms(c.terms), ring)
    return series.map_coeffs(ring.coerce, ring)


def formal_log(curve, prec, w=None):
    """Termwise integral of the invariant differential, over the rationals.
    ``w`` is the curve's w-series to at least z^(prec+3), if already built."""
    omega = invariant_differential(curve, prec, w)
    return _on_ring(omega, _rational_ring(curve.ring)).integrate()


def _to_integral(series, ring):
    try:
        return _on_ring(series, ring)
    except DomainMismatchError as exc:
        raise ExactnessError("denominators failed to cancel: %s" % exc) from None


def p_series(fgl, p, degree=None):
    """[p](z) by two independent routes, which must agree.

    Route A iterates the addition law: [m](z) = F([m-1](z), z).  Route B forms
    the logarithm by integrating the invariant differential over the rationals,
    scales by p, and applies the reversed logarithm; all denominators must
    cancel back to integer-polynomial coefficients.  Both routes start from
    the group law's one w-series.
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
        ell = formal_log(fgl.curve, prec - 1, fgl.w)
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
