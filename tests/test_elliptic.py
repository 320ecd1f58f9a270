import random

import pytest

from tmfkit.exactalg import ZZ, PolynomialRing, PrecisionError, TruncSeries
from tmfkit.elliptic import (
    RouteDisagreementError,
    WeierstrassCurve,
    a2a4_delta_discrepancy,
    curve_a1_a3,
    curve_a2_a4,
    formal_group_law,
    generic_curve,
    hasse_v1,
    integer_curve,
    invariant_differential,
    invariants,
    make_curve,
    negation_series as elliptic_negation,
    p_series,
    v1_check,
)


def test_generic_identities():
    inv = invariants(generic_curve())
    assert inv.c4 ** 3 - inv.c6 ** 2 == 1728 * inv.delta
    assert 4 * inv.b8 == inv.b2 * inv.b6 - inv.b4 ** 2


def test_a1_a3_curve_discriminant():
    curve = curve_a1_a3()
    a1, a3 = curve.a1, curve.a3
    inv = invariants(curve)
    assert inv.delta == a1 ** 3 * a3 ** 3 - 27 * a3 ** 4
    assert inv.b4 == a1 * a3 and inv.b6 == a3 * a3
    assert inv.delta == inv.b4 ** 3 - 27 * inv.b6 ** 2


def test_a2_a4_curve_discriminant():
    curve = curve_a2_a4()
    a2, a4 = curve.a2, curve.a4
    inv = invariants(curve)
    assert inv.delta == 16 * a4 ** 2 * (a2 ** 2 - 4 * a4)


def test_a2a4_shortcut_discrepancy_is_reported():
    rep = a2a4_delta_discrepancy()
    assert not rep.agree
    curve = curve_a2_a4()
    a2, a4 = curve.a2, curve.a4
    assert rep.shortcut == 4 * a2 ** 2 * a4 ** 2 - 128 * a4 ** 3
    assert rep.difference == 12 * a2 ** 2 * a4 ** 2 + 64 * a4 ** 3


def test_invariant_differential_prefix():
    curve = generic_curve()
    a1, a2 = curve.a1, curve.a2
    omega = invariant_differential(curve, 5)
    assert omega.known(0) == curve.ring.one
    assert omega.known(1) == a1
    assert omega.known(2) == a1 * a1 + a2


def test_fgl_low_degree_terms():
    curve = generic_curve()
    fgl = formal_group_law(curve, 5)
    F = fgl.series
    assert F.coefficient((1, 0)) == curve.ring.one
    assert F.coefficient((0, 1)) == curve.ring.one
    assert F.coefficient((1, 1)) == -curve.a1
    assert F.coefficient((2, 0)).is_zero() and F.coefficient((0, 2)).is_zero()


def test_fgl_degree_four_coefficient_table():
    # classical expansion: F = z1 + z2 - a1 z1 z2 - a2(z1^2 z2 + z1 z2^2)
    #   - 2 a3 z1^3 z2 + (a1 a2 - 3 a3) z1^2 z2^2 - 2 a3 z1 z2^3 + ...
    curve = generic_curve()
    a1, a2, a3 = curve.a1, curve.a2, curve.a3
    F = formal_group_law(curve, 5).series
    assert F.coefficient((1, 2)) == -a2 and F.coefficient((2, 1)) == -a2
    assert F.coefficient((1, 3)) == -2 * a3
    assert F.coefficient((2, 2)) == a1 * a2 - 3 * a3
    assert F.coefficient((3, 1)) == -2 * a3


def test_fgl_inverse_axiom_and_negation_involution():
    curve = generic_curve()
    fgl = formal_group_law(curve, 6)
    neg = elliptic_negation(curve, 6).truncate(7)
    z = TruncSeries.identity(curve.ring, 7)
    assert fgl.add_series(z, neg).is_zero()  # F(z, i(z)) = 0
    assert neg.compose(neg).same_to(z)       # i is an involution
    assert neg.known(1) == curve.ring.coerce(-1)
    assert neg.known(2) == -curve.a1


def test_fgl_unit_axiom_on_series_arguments():
    curve = generic_curve()
    fgl = formal_group_law(curve, 8)
    z = TruncSeries.identity(curve.ring, 9)
    zero = TruncSeries.zero(curve.ring, 9)
    assert fgl.add_series(z, zero).same_to(z)
    assert fgl.add_series(zero, z).same_to(z)


def test_fgl_symbolic_associativity_degree_8():
    fgl = formal_group_law(generic_curve(), 8)
    assert fgl.verify_associative()


def test_fgl_integer_specializations_degree_15():
    rng = random.Random(41)
    for _ in range(20):
        coeffs = [rng.randint(-4, 4) for _ in range(5)]
        fgl = formal_group_law(integer_curve(*coeffs), 15)
        # materialization checks F(z,0) = z and symmetry; expand both orders
        assert fgl.verify_associative(), coeffs


def test_fgl_materialized_matches_series_arguments():
    curve = curve_a1_a3()
    fgl = formal_group_law(curve, 10)
    ring = curve.ring
    s = TruncSeries(ring, [0, 1, 1], 11)  # z + z^2
    z = TruncSeries.identity(ring, 11)
    direct = fgl.add_series(s, z)
    # evaluate the coefficient table at the same arguments
    total = TruncSeries.zero(ring, 11)
    spow = {0: TruncSeries.one(ring, 11)}
    zpow = {0: TruncSeries.one(ring, 11)}
    for (i, j), c in sorted(fgl.series.terms.items()):
        for cache, base, n in ((spow, s, i), (zpow, z, j)):
            for m in range(1, n + 1):
                if m not in cache:
                    cache[m] = cache[m - 1] * base
        total = total + (spow[i] * zpow[j]).scale(c)
    assert direct.same_to(total, 10)


def test_two_series_prefix():
    fgl = formal_group_law(generic_curve(), 4)
    two = p_series(fgl, 2, 4)
    assert two.known(0) == fgl.curve.ring.zero
    assert two.known(1) == fgl.curve.ring.coerce(2)
    assert two.known(2) == -fgl.curve.a1


def test_one_series_is_identity():
    fgl = formal_group_law(curve_a2_a4(), 6)
    assert p_series(fgl, 1, 6).same_to(TruncSeries.identity(fgl.curve.ring, 7))


def test_p_series_routes_degree_30_both_curves():
    for curve in (curve_a2_a4(), curve_a1_a3()):
        fgl = formal_group_law(curve, 30)
        for p in (2, 3):
            series = p_series(fgl, p, 30)  # raises RouteDisagreementError on mismatch
            assert series.known(1) == curve.ring.coerce(p)


def test_three_series_v1_coefficient():
    curve = curve_a2_a4()
    fgl = formal_group_law(curve, 8)
    three = p_series(fgl, 3, 8)
    assert three.known(3) == -8 * curve.a2  # reduces to a2 mod 3
    report = v1_check(curve, 3)
    assert str(report.hasse) == "a2"
    assert report.unit == 1
    assert report.pseries_coeff == report.hasse


@pytest.mark.parametrize("p", [3, 5, 7])
def test_v1_check_reuses_a_computed_p_series(p):
    curve = curve_a2_a4()
    series = p_series(formal_group_law(curve, p + 4), p, p + 4)
    assert v1_check(curve, p, series=series) == v1_check(curve, p)
    # a p-series that stops below z^p cannot serve
    with pytest.raises(PrecisionError):
        v1_check(curve, p, series=series.truncate(p))


def test_hasse_examples():
    assert str(hasse_v1(curve_a2_a4(), 3)) == "a2"
    ring = PolynomialRing(("a4",))
    pure = make_curve(ring, 0, 0, 0, ring.gen("a4"), 0)  # y^2 = x^3 + a4 x
    assert hasse_v1(pure, 3).is_zero()  # supersingular locus
    assert hasse_v1(pure, 5) == (2 * ring.gen("a4")).reduce_mod(5)


def test_hasse_preconditions():
    with pytest.raises(ValueError):
        hasse_v1(curve_a2_a4(), 2)
    with pytest.raises(ValueError):
        hasse_v1(curve_a1_a3(), 3)
    with pytest.raises(ValueError):
        hasse_v1(curve_a2_a4(), 9)


def test_v1_check_integer_curve():
    report = v1_check(integer_curve(0, 5, 0, 7, 0), 3)
    assert report.hasse == 5 % 3
    assert report.unit is not None


def test_fgl_rejects_tiny_degree():
    with pytest.raises(ValueError):
        formal_group_law(generic_curve(), 1)


def test_p_series_degree_bound():
    fgl = formal_group_law(curve_a2_a4(), 6)
    with pytest.raises(ValueError):
        p_series(fgl, 3, 10)


def test_route_disagreement_is_detectable():
    # sabotage the w-series; the two routes must then part ways
    curve = curve_a2_a4()
    fgl = formal_group_law(curve, 8)
    bad = list(fgl.w.coeffs)
    bad[5] = bad[5] + curve.ring.one
    fgl.w = TruncSeries(curve.ring, bad, fgl.w.prec)
    with pytest.raises(RouteDisagreementError):
        p_series(fgl, 3, 8)


def test_curve_constructor_coerces():
    curve = integer_curve(1, 2, 3, 4, 6)
    assert invariants(curve).b2 == 1 + 8
    assert isinstance(curve, WeierstrassCurve) and curve.ring == ZZ
