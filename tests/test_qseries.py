import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmfkit import qseries
from tmfkit.exactalg import ExactnessError, PrecisionError
from tmfkit.qseries import QExpansion


def brute_sigma(k, n):
    return sum(d ** k for d in range(1, n + 1) if n % d == 0)


def test_sigma_examples():
    assert qseries.sigma(3, 1) == 1
    assert qseries.sigma(3, 2) == 1 + 8
    assert qseries.sigma(5, 2) == 1 + 32


def test_sigma_against_enumeration():
    rng = random.Random(2)
    for _ in range(50):
        k = rng.randint(1, 6)
        n = rng.randint(1, 400)
        assert qseries.sigma(k, n) == brute_sigma(k, n)


def test_sigma_rejects_bad_arguments():
    with pytest.raises(ValueError):
        qseries.sigma(3, 0)
    with pytest.raises(ValueError):
        qseries.sigma(0, 5)


def test_eisenstein_values():
    e4 = qseries.eisenstein(4, 4)
    assert e4.coeffs == [1, 240 * 1, 240 * 9, 240 * 28]
    e6 = qseries.eisenstein(6, 3)
    assert e6.coeffs == [1, -504, -504 * 33]


def test_eisenstein_divisibility_by_24():
    for weight in (4, 6):
        f = qseries.eisenstein(weight, 200)
        assert all(f.coeff(n) % 24 == 0 for n in range(1, 200))


def test_eisenstein_rejects_other_weights():
    with pytest.raises(ValueError):
        qseries.eisenstein(8, 5)


def test_discriminant_prefix():
    d = qseries.discriminant_qexp(4)
    assert d.val == 1 and d.coeffs == [1, -24, 252]
    assert d.coeff(1) == 1  # normalized cusp form


def test_discriminant_dual_route():
    a = qseries.discriminant_qexp(50)
    b = qseries.discriminant_eta_product(50)
    assert a == b


def test_exact_scalar_division_guard():
    f = QExpansion(0, [3, 6], 4)
    assert f.exact_scalar_div(3).coeffs == [1, 2]
    with pytest.raises(ExactnessError):
        f.exact_scalar_div(2)


def test_j_invariant():
    j = qseries.j_qexp(4)
    assert j.val == -1
    assert j.coeff(-1) == 1
    assert j.coeff(0) == 744
    assert j.coeff(1) == 196884
    assert j.coeff(2) == 21493760
    assert j.coeff(3) == 864299970
    assert (j - 744).coeff(0) == 0


def test_j_times_delta_is_c4_cubed():
    N = 30
    j = qseries.j_qexp(N)
    delta = qseries.discriminant_qexp(N + 1)
    c4 = qseries.eisenstein(4, N)
    assert (j * delta).agrees_with(c4 ** 3, N)


def test_c_relation_is_exactly_zero():
    N = 40
    c4 = qseries.eisenstein(4, N)
    c6 = qseries.eisenstein(6, N)
    delta = qseries.discriminant_qexp(N)
    assert (c4 ** 3 - c6 ** 2 - delta * 1728).is_zero()


def test_qexpansion_precision_tracking():
    f = QExpansion(1, [1, -24], 8)   # valuation 1
    g = QExpansion(0, [1, 7], 5)
    assert (f * g).prec == 6         # min(8 + 0, 5 + 1)
    assert (f + g).prec == 5
    with pytest.raises(PrecisionError):
        (f * g).coeff(6)


def test_qexpansion_laurent_division():
    N = 20
    c4 = qseries.eisenstein(4, N)
    q = (c4 ** 3).exact_div(qseries.discriminant_qexp(N))
    assert q.val == -1 and q.coeff(0) == 744


def test_qexpansion_division_exactness_guard():
    num = QExpansion(0, [1], 6)
    den = QExpansion(0, [2, 1], 6)
    with pytest.raises(ExactnessError):
        num.exact_div(den)


def test_qexpansion_theta():
    j = qseries.j_qexp(4)
    t = j.theta()
    assert t.coeff(-1) == -1 and t.coeff(0) == 0 and t.coeff(1) == 196884


def test_qexpansion_serialization_round_trip():
    f = qseries.j_qexp(6)
    assert QExpansion.from_dict(f.to_dict()) == f


def test_qexpansion_coefficients_must_be_exact():
    f = QExpansion(0, [Fraction(4, 2), Fraction(1, 3), 5])
    assert f.coeffs == [2, Fraction(1, 3), 5] and type(f.coeffs[0]) is int
    for bad in (True, 1.0, "1"):
        with pytest.raises(TypeError):
            QExpansion(0, [1, bad])


def test_cold_j_qexp_forms_c4_cubed_once(monkeypatch):
    calls = []
    mul = qseries.mul_coeffs
    monkeypatch.setattr(qseries, "mul_coeffs", lambda *args: calls.append(1) or mul(*args))
    j = qseries.j_qexp(300)
    assert len(calls) == 3  # c4^2, c4^2 * c4 and c6^2
    assert qseries.j_qexp(200) == j.truncate(200)
    assert len(calls) == 3  # served from the cache


def test_j_power_matches_square_and_multiply():
    for k, N in ((1, 9), (2, 30), (3, 1), (7, 25), (16, 40)):
        got = qseries.j_power(k, N)
        assert got.val == -k and got.prec == N
        assert got == (qseries.j_qexp(N + k - 1) ** k).truncate(N)


def test_j_power_rejects_bad_arguments():
    for k, N in ((0, 5), (-1, 5), (3, 0)):
        with pytest.raises(ValueError):
            qseries.j_power(k, N)


def test_j_power_starts_from_the_highest_power_that_reaches_far_enough(monkeypatch):
    qseries.j_qexp(80)
    calls = []
    mul = qseries.mul_coeffs
    monkeypatch.setattr(qseries, "mul_coeffs", lambda *args: calls.append(1) or mul(*args))
    qseries.j_power(10, 40)  # j^2 .. j^10 to 40 + 10 - k
    assert len(calls) == 9
    qseries.j_power(14, 36)  # needs j^10 to 40, which it has: four products
    assert len(calls) == 13
    qseries.j_power(14, 37)  # needs j^m to 51 - m, which none has: rebuilds from j
    assert len(calls) == 26
    assert [qseries._EXPANSION_CACHE["j^%d" % k].prec for k in (2, 10, 13, 14)] == [49, 41, 38, 37]


# the requests by name ("j^k" is j_power, the others ignore k), and the key
# each reads in the cache; eta is the uncached route
CACHE_CALLS = {
    "c4": lambda N, k: qseries.eisenstein(4, N),
    "c6": lambda N, k: qseries.eisenstein(6, N),
    "delta": lambda N, k: qseries.discriminant_qexp(N),
    "j": lambda N, k: qseries.j_qexp(N),
    "j^k": lambda N, k: qseries.j_power(k, N),
    "eta": lambda N, k: qseries.discriminant_eta_product(N),
}
CACHE_KEYS = {"c4", "c6", "delta", "j"} | {"j^%d" % k for k in range(2, 41)}


def cache_key(name, k):
    if name != "j^k":
        return name
    return "j" if k == 1 else "j^%d" % k


def test_expansion_cache_serves_what_a_cold_call_computes(monkeypatch):
    cache = qseries._EXPANSION_CACHE
    euler_calls = []
    euler = qseries.euler_product
    monkeypatch.setattr(qseries, "euler_product", lambda N: euler_calls.append(N) or euler(N))

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(sorted(CACHE_CALLS)), st.integers(1, 120),
                              st.integers(1, 40)),
                    min_size=1, max_size=12))
    def check(steps):
        cache.clear()
        for name, N, k in steps:
            call = CACHE_CALLS[name]
            key = cache_key(name, k)
            entry = cache.get(key)
            before = len(euler_calls)
            got = call(N, k)
            if name == "eta":
                assert len(euler_calls) == before + (N > 1)  # computed every time
            else:
                assert cache[key].prec >= N
                if entry is not None and entry.prec >= N:
                    assert cache[key] is entry  # no rebuild below the entry's precision
            assert set(cache) <= CACHE_KEYS
            warm = dict(cache)
            cache.clear()
            cold = call(N, k)
            cache.clear()
            cache.update(warm)
            assert got == cold
            got.coeffs.insert(0, 7)  # a caller's edit stays its own
            assert call(N, k) == cold

    check()
