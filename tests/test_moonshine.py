import sys

import pytest

from tmfkit import moonshine, qseries
from tmfkit.exactalg import PrecisionError
from tmfkit.modforms import C4, DELTA
from tmfkit.moonshine import (
    JPolynomial,
    GenfunReport,
    faber_constants,
    faber_jn,
    genfun_check,
    hecke_weight0,
    j1_qexp,
    jn_at_omega,
    witten_form,
    witten_generalized,
)


def test_hecke_index_one_is_identity():
    f = j1_qexp(12)
    assert hecke_weight0(f, 1) == f


def test_hecke_index_two_on_j1():
    t2 = hecke_weight0(j1_qexp(40), 2)
    assert t2.val == -2
    assert t2.coeff(-2) == 1
    assert t2.coeff(-1) == 0
    assert t2.coeff(0) == 0
    assert t2.coeff(1) == 42987520


def test_hecke_monic_leading_terms():
    j1 = j1_qexp(60)
    for n in range(1, 11):
        tn = hecke_weight0(j1, n)
        assert tn.coeff(-n) == 1
        for e in range(-n + 1, 1):
            assert tn.coeff(e) == 0


def test_hecke_insufficient_precision():
    stub = qseries.QExpansion(-1, [1], 0)
    with pytest.raises(PrecisionError):
        hecke_weight0(stub, 2)


def test_hecke_positive_valuation_input():
    f = qseries.QExpansion(2, [1], 9)  # the single term q^2
    t2 = hecke_weight0(f, 2)
    assert t2.coeff(1) == 2  # the (a, d) = (1, 2) branch
    assert t2.coeff(4) == 1  # the (a, d) = (2, 1) branch
    assert all(t2.coeff(e) == 0 for e in (2, 3))


def test_faber_base_cases():
    poly, exp = faber_jn(0, 5)
    assert poly == JPolynomial([1])
    assert exp == qseries.QExpansion.one(5)
    poly1, exp1 = faber_jn(1, 5)
    assert poly1 == JPolynomial([-744, 1])
    assert exp1.agrees_with(j1_qexp(5))


def test_faber_printed_polynomials():
    poly2, _ = faber_jn(2, 3)
    assert poly2 == JPolynomial([159768, -1488, 1])
    assert str(poly2) == "j^2 - 1488*j + 159768"
    poly3, _ = faber_jn(3, 3)
    assert poly3 == JPolynomial([-36866976, 1069956, -2232, 1])
    assert str(poly3) == "j^3 - 2232*j^2 + 1069956*j - 36866976"


def test_faber_polynomial_evaluates_to_expansion():
    j = qseries.j_qexp(14)
    for n in (2, 3, 5):
        poly, exp = faber_jn(n, 8)
        assert poly.evaluate_qexp(j).agrees_with(exp, 8)


def test_faber_shape_through_twenty():
    for n in range(1, 21):
        poly, exp = faber_jn(n, 2)
        assert poly.is_monic() and poly.degree == n
        assert exp.coeff(-n) == 1
        for e in range(-n + 1, 1):
            assert exp.coeff(e) == 0


def test_hecke_and_faber_routes_agree():
    j1 = j1_qexp(302)
    for n in range(1, 11):
        _, exp = faber_jn(n, 30)
        assert hecke_weight0(j1, n).agrees_with(exp, 30)


def test_jn_at_omega_values():
    assert jn_at_omega(1) == -744
    assert jn_at_omega(2) == 159768
    assert jn_at_omega(3) == -36866976


def test_jn_at_omega_divisible_by_24():
    for n in range(1, 21):
        assert jn_at_omega(n) % 24 == 0


def test_genfun_check():
    report = genfun_check(20)
    assert report.series_match
    assert report.sign == 1
    assert report.ok and not report.mismatches


def test_genfun_constant_term():
    c4 = qseries.eisenstein(4, 6)
    c6 = qseries.eisenstein(6, 6)
    assert c6.exact_div(c4).coeff(0) == 1


def reference_genfun(N):
    """genfun_check through the per-n route: jn_at_omega (a fresh faber_jn
    elimination) for every n, and j to precision N + 2."""
    pad = N + 2
    lhs = qseries.eisenstein(6, pad).exact_div(qseries.eisenstein(4, pad))
    j = qseries.j_qexp(pad)
    rhs = (-j.theta()).exact_div(j)
    sign = 1 if lhs.coeff(1) == jn_at_omega(1) else -1
    report = GenfunReport(N, lhs.agrees_with(rhs, N + 1), sign)
    for n in range(1, N + 1):
        want, got = sign * jn_at_omega(n), lhs.coeff(n)
        if got == want:
            report.matches.append(n)
        else:
            report.mismatches.append({"n": n, "coefficient": got, "expected": want})
    return report


def test_faber_constants_sweep_matches_per_n_elimination():
    cache = qseries._EXPANSION_CACHE
    want = []
    for n in range(1, 41):
        cache.clear()
        want.append(jn_at_omega(n))  # a greedy elimination on a cold cache
    cache.clear()
    assert faber_constants(40) == want
    # warm caches left by larger eliminations: powers longer than the sweep
    # needs (j^2 .. j^50), and powers the sweep extends upward (from j^20)
    for n, N in ((50, 30), (20, 60)):
        cache.clear()
        faber_jn(n, N)
        assert faber_constants(40) == want


def count_products(monkeypatch):
    """The list that records each series product (``mul_coeffs`` call) of qseries."""
    calls = []
    mul = qseries.mul_coeffs
    monkeypatch.setattr(qseries, "mul_coeffs", lambda *args: calls.append(1) or mul(*args))
    return calls


@pytest.mark.parametrize("n, N", [(1, 10), (6, 50), (30, 100)])
def test_faber_jn_makes_one_product_per_power(monkeypatch, n, N):
    calls = count_products(monkeypatch)
    qseries.j_qexp(N + n + 1)
    j_products = len(calls)  # what a cold j_qexp makes
    qseries._EXPANSION_CACHE.clear()
    del calls[:]
    first = faber_jn(n, N)
    assert len(calls) <= j_products + n
    del calls[:]
    assert faber_jn(n, N) == first
    assert not calls


def test_faber_constants_makes_one_product_per_power(monkeypatch):
    """At the genfun-check cap, and under a recursion limit that a power-by-
    power recursion (at least one frame per power) would exceed."""
    N = 250
    qseries.j_qexp(N + 1)  # as genfun_check asks for j
    calls = count_products(monkeypatch)
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        first = faber_constants(N)
    finally:
        sys.setrecursionlimit(limit)
    assert len(calls) <= N
    del calls[:]
    assert faber_constants(N) == first
    assert not calls


@pytest.mark.parametrize("N", [1, 2, 15, 40])
def test_genfun_check_sweep_matches_per_n_reference(N):
    report = genfun_check(N)
    assert report.ok
    assert report.to_dict() == reference_genfun(N).to_dict()


def test_witten_forms():
    assert witten_form(1) == C4 ** 3 - 744 * DELTA
    assert witten_form(2) == C4 ** 6 - 1488 * C4 ** 3 * DELTA + 159768 * DELTA ** 2
    assert witten_form(3).weight == 36


def test_witten_certificates_member_through_ten():
    for n in range(1, 11):
        cert = witten_generalized(n)
        assert cert.is_member, "Delta^%d * j_%d should certify" % (n, n)


def test_witten_divisibility_structure():
    # only the pure Delta^n monomial carries a nontrivial requirement
    cert = witten_generalized(2)
    pure = [v for v in cert.verdicts if v.i == 0]
    assert len(pure) == 1 and pure[0].required == 12 and pure[0].coefficient == 159768


def test_delta_power_times_jn_expansion():
    w = moonshine.delta_power_times_jn(1, 10)
    assert w.coeff(0) == 1 and w.coeff(1) == -24


def test_jpolynomial_serialization():
    poly, _ = faber_jn(4, 2)
    assert JPolynomial.from_dict(poly.to_dict()) == poly
