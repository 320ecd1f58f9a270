import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tmfkit import exactalg
from tmfkit.exactalg import (
    ZZ,
    QQ,
    DomainMismatchError,
    ExactnessError,
    PolynomialRing,
    PrecisionError,
    PrimeField,
    TruncSeries,
    div_coeffs,
    mul_coeffs,
    mul_packed,
    mul_schoolbook,
    power,
    series_inverse,
    series_mul,
    series_reversion,
)


def rand_poly(rng, ring, nterms=4, maxexp=3, maxc=9):
    terms = {}
    for _ in range(nterms):
        exp = tuple(rng.randint(0, maxexp) for _ in range(ring.nvars))
        terms[exp] = rng.randint(-maxc, maxc)
    return ring.from_terms(terms)


def test_mpoly_ring_axioms():
    rng = random.Random(11)
    for ring in (PolynomialRing(("x", "y")), PolynomialRing(("x", "y", "z"), PrimeField(5))):
        for _ in range(25):
            a, b, c = (rand_poly(rng, ring) for _ in range(3))
            assert (a + b) * c == a * c + b * c
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a + b == b + a
            assert a - a == ring.zero


def test_mpoly_reduction_commutes_with_operations():
    rng = random.Random(5)
    ring = PolynomialRing(("u", "v"))
    for p in (2, 3, 5):
        for _ in range(20):
            a, b = rand_poly(rng, ring), rand_poly(rng, ring)
            assert (a + b).reduce_mod(p) == a.reduce_mod(p) + b.reduce_mod(p)
            assert (a * b).reduce_mod(p) == a.reduce_mod(p) * b.reduce_mod(p)
            assert (-a).reduce_mod(p) == -(a.reduce_mod(p))


def test_mpoly_no_zero_terms_and_exponent_length():
    ring = PolynomialRing(("x",))
    p = ring.from_terms({(1,): 2, (0,): 0})
    assert (0,) not in p.terms
    with pytest.raises(ValueError):
        ring.from_terms({(1, 2): 1})


def test_mpoly_domain_mismatch():
    a = PolynomialRing(("x",)).gen("x")
    b = PolynomialRing(("y",)).gen("y")
    with pytest.raises(DomainMismatchError):
        a + b


def test_mpoly_substitute_and_str():
    ring = PolynomialRing(("a1", "a3"))
    a1, a3 = ring.gens()
    p = a1 ** 3 * a3 ** 3 - 27 * a3 ** 4
    assert str(p) == "a1^3*a3^3 - 27*a3^4"
    assert p.substitute_scalars({"a1": 2, "a3": 1}) == 8 - 27


def test_series_mul_examples():
    one_plus = TruncSeries(ZZ, [1, 1], 20)
    one_minus = TruncSeries(ZZ, [1, -1], 20)
    prod = series_mul(one_plus, one_minus)
    assert prod.coeffs == [1, 0, -1]

    f = TruncSeries(ZZ, [3, 1, 4, 1, 5], 12)
    assert series_mul(f, TruncSeries.one(ZZ, 12)).same_to(f)

    geometric = TruncSeries(ZZ, [1] * 20, 20)
    assert series_mul(geometric, one_minus).same_to(TruncSeries.one(ZZ, 20))


def test_series_mul_precision_law():
    f = TruncSeries(ZZ, [0, 0, 1, 1], 5)   # valuation 2, precision 5
    g = TruncSeries(ZZ, [1, 1], 7)         # valuation 0, precision 7
    assert series_mul(f, g).prec == 5      # min(5 + 0, 7 + 2)
    assert (f + g).prec == 5
    # an exact zero has infinite valuation, so its products are exact zeros
    h = TruncSeries(ZZ, [1, 2, 3], 5)
    assert h * 0 == TruncSeries.zero(ZZ)
    assert series_mul(TruncSeries.zero(ZZ), h) == TruncSeries.zero(ZZ)
    # a zero known through z^3 only: min(5 + 4, 4 + 0)
    assert series_mul(h, TruncSeries.zero(ZZ, 4)) == TruncSeries.zero(ZZ, 4)


def test_series_inverse():
    geom = series_inverse(TruncSeries(ZZ, [1, -1], 10))
    assert geom.coeffs == [1] * 10
    assert series_inverse(TruncSeries.one(ZZ, 6)).same_to(TruncSeries.one(ZZ, 6))
    with pytest.raises(ExactnessError):
        series_inverse(TruncSeries(ZZ, [2, 1], 5))
    with pytest.raises(ExactnessError):
        series_inverse(TruncSeries(ZZ, [0, 1], 5))


def test_series_inverse_round_trip_on_eisenstein():
    from tmfkit import qseries

    c4 = qseries.eisenstein(4, 30)
    f = TruncSeries(ZZ, c4.coeffs, 30)
    assert series_mul(series_inverse(f), f).same_to(TruncSeries.one(ZZ, 30))


def test_series_reversion_examples():
    z = TruncSeries.identity(ZZ, 8)
    assert series_reversion(z).same_to(z)

    f = TruncSeries(ZZ, [0, 1, 1], 8)  # z + z^2
    rev = series_reversion(f)
    assert rev.coeffs == [0, 1, -1, 2, -5, 14, -42, 132]
    assert f.compose(rev).same_to(z)
    assert rev.compose(f).same_to(z)


def test_series_reversion_random_round_trip():
    rng = random.Random(17)
    z = TruncSeries.identity(ZZ, 15)
    for _ in range(10):
        coeffs = [0, rng.choice([1, -1])] + [rng.randint(-6, 6) for _ in range(13)]
        f = TruncSeries(ZZ, coeffs, 15)
        g = series_reversion(f)
        assert f.compose(g).same_to(z)
        assert g.compose(f).same_to(z)


def test_series_reversion_preconditions():
    with pytest.raises(ValueError):
        series_reversion(TruncSeries(ZZ, [1, 1], 5))
    with pytest.raises(ValueError):
        series_reversion(TruncSeries(ZZ, [0, 2], 5))


def test_series_coeff_beyond_precision_raises():
    f = TruncSeries(ZZ, [1, 2], 4)
    assert f.coeff(3) == 0
    with pytest.raises(PrecisionError):
        f.coeff(4)


def test_series_ring_axioms_random():
    rng = random.Random(23)
    ring = PolynomialRing(("t",))
    for _ in range(15):
        fs = []
        for _ in range(3):
            coeffs = [rand_poly(rng, ring, nterms=2, maxexp=2, maxc=4) for _ in range(6)]
            fs.append(TruncSeries(ring, coeffs, 6))
        a, b, c = fs
        assert series_mul(series_mul(a, b), c).same_to(series_mul(a, series_mul(b, c)))
        assert series_mul(a + b, c).same_to(series_mul(a, c) + series_mul(b, c))


def test_series_over_prime_field():
    gf = PrimeField(3)
    f = TruncSeries(gf, [1, 2, 2], 6)
    g = series_inverse(f)
    assert series_mul(f, g).same_to(TruncSeries.one(gf, 6))


def test_series_domain_mismatch():
    with pytest.raises(DomainMismatchError):
        series_mul(TruncSeries.one(ZZ, 4), TruncSeries.one(QQ, 4))


def test_exact_division_checks():
    with pytest.raises(ExactnessError):
        ZZ.exact_div(7, 2)
    assert ZZ.exact_div(-12, 4) == -3
    ring = PolynomialRing(("x",))
    x = ring.gen("x")
    assert ring.exact_div(6 * x, ring.const(3)) == 2 * x
    with pytest.raises(ExactnessError):
        ring.exact_div(x, ring.const(2))


# ---------------------------------------------------------------------------
# the shared kernels against plain references, over ZZ, QQ, GF(5) and Z[x, y]

ZXY = PolynomialRing(("x", "y"))
KERNEL_DOMAINS = {
    "ZZ": (ZZ, st.integers(-50, 50)),
    "QQ": (QQ, st.builds(Fraction, st.integers(-20, 20), st.integers(1, 6))),
    "GF(5)": (PrimeField(5), st.integers(0, 4)),
    "Z[x,y]": (
        ZXY,
        st.dictionaries(
            st.tuples(st.integers(0, 2), st.integers(0, 2)), st.integers(-4, 4), max_size=3
        ).map(ZXY.from_terms),
    ),
}
kernel_settings = settings(derandomize=True, max_examples=40, deadline=None)


def ref_mul(ring, a, b, n):
    """Plain double sum through the domain's own operations."""
    out = [ring.zero] * n
    for i in range(len(a)):
        for j in range(len(b)):
            if i + j < n:
                out[i + j] = ring.add(out[i + j], ring.mul(a[i], b[j]))
    return out


def ref_div(ring, num, den, n):
    """q_m = (num_m - sum_{k<m} q_k den_{m-k}) / den_0, summing every k."""
    num = num + [ring.zero] * n
    den = den + [ring.zero] * n
    out = []
    for m in range(n):
        acc = num[m]
        for k in range(m):
            acc = ring.sub(acc, ring.mul(out[k], den[m - k]))
        out.append(ring.exact_div(acc, den[0]))
    return out


def canon(ring, coeffs):
    return [ring.canon(c) for c in coeffs]


@pytest.mark.parametrize("name", sorted(KERNEL_DOMAINS))
def test_mul_coeffs_matches_double_sum(name):
    ring, elem = KERNEL_DOMAINS[name]

    @kernel_settings
    @given(st.lists(elem, max_size=8), st.lists(elem, max_size=8), st.integers(0, 12))
    def check(a, b, n):
        assert canon(ring, mul_coeffs(a, b, n, ring.zero)) == ref_mul(ring, a, b, n)

    check()


@pytest.mark.parametrize("name", sorted(KERNEL_DOMAINS))
def test_div_coeffs_matches_reference_and_undoes_mul(name):
    ring, elem = KERNEL_DOMAINS[name]
    # Z[x, y] divides only by constants, so its leading divisor is a scalar
    lead = st.integers(-4, 4).map(ring.coerce) if name == "Z[x,y]" else elem

    @kernel_settings
    @given(st.lists(elem, max_size=8), lead, st.lists(elem, max_size=7), st.integers(0, 10))
    def check(a, d0, tail, n):
        assume(not ring.is_zero(d0))
        den = [d0] + tail
        num = canon(ring, mul_coeffs(a, den, n, ring.zero))
        div = lambda acc: ring.exact_div(acc, d0)
        got = div_coeffs(num, den, n, div)
        assert got == ref_div(ring, num, den, n)
        assert canon(ring, got) == canon(ring, (a + [ring.zero] * n)[:n])

    check()


@pytest.mark.parametrize("name", sorted(KERNEL_DOMAINS))
def test_power_matches_repeated_multiplication(name):
    ring, elem = KERNEL_DOMAINS[name]

    @kernel_settings
    @given(st.lists(elem, max_size=6), st.integers(0, 7), st.integers(0, 4))
    def check(coeffs, prec, n):
        f = TruncSeries(ring, coeffs, prec)
        want = TruncSeries.one(ring)
        for _ in range(n):
            want = want * f
        assert power(f, n, TruncSeries.one(ring)) == want == f ** n
        for c in coeffs[:1]:  # and on bare coefficients
            want_c = ring.one
            for _ in range(n):
                want_c = ring.mul(want_c, c)
            assert ring.canon(power(c, n, ring.one)) == want_c

    check()


@kernel_settings
@given(st.lists(st.integers(-50, 50), min_size=1, max_size=6), st.integers(2, 9))
def test_div_coeffs_inexact_integer_division_raises(num, d0):
    assume(num[0] % d0)
    with pytest.raises(ExactnessError):
        div_coeffs(num, [d0, 1], len(num), lambda acc: ZZ.exact_div(acc, d0))


def test_power_rejects_negative_and_non_integer_exponents():
    for n in (-1, 2.0):
        with pytest.raises(ValueError):
            power(3, n, 1)


# ---------------------------------------------------------------------------
# the packed (Kronecker-substitution) integer product against the double sum


@st.composite
def int_operands(draw):
    """Two signed int lists (lengths 0..300, coefficients up to 700 bits, runs
    of zeros, one sign or mixed signs; half the time one list twice, as in a
    square) and a truncation n below, at or above the full product length."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    lists = []
    for _ in range(2):
        length = draw(st.integers(0, 300))
        bits = draw(st.integers(0, 700))
        sign = draw(st.sampled_from((1, -1, None)))  # None: mixed signs
        coeffs = []
        while len(coeffs) < length:
            if rng.random() < 0.05:
                coeffs.extend([0] * rng.randint(1, 40))
            else:
                coeffs.append(rng.getrandbits(bits) * (sign or rng.choice((1, -1))))
        lists.append(coeffs[:length])
    a, b = lists
    if draw(st.booleans()):
        b = a
    full = len(a) + len(b) - 1
    where = draw(st.sampled_from(("below", "at", "above")))
    n = {"below": rng.randint(-1, max(full - 1, 0)), "at": full, "above": full + rng.randint(1, 5)}[where]
    return a, b, n


@pytest.fixture
def packed_calls(monkeypatch):
    """The argument tuples of every call of the packed product."""
    calls = []
    packed = exactalg.mul_packed
    monkeypatch.setattr(exactalg, "mul_packed", lambda *args: calls.append(args) or packed(*args))
    return calls


def test_mul_coeffs_packed_path_matches_double_sum(packed_calls):
    paths = set()

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(int_operands())
    def check(operands):
        a, b, n = operands
        want = ref_mul(ZZ, a, b, max(n, 0))
        before = len(packed_calls)
        assert mul_coeffs(a, b, n, 0) == want
        long_enough = min(len(a), len(b), n) >= exactalg.PACK_MIN_LEN
        paths.add((long_enough, len(packed_calls) > before))
        assert mul_packed(a, b, n) == want  # the packed path whatever the rule says

    check()
    # both sides of the cost rule were drawn, on length and on slot width
    assert paths == {(False, False), (True, False), (True, True)}


@pytest.mark.parametrize("la, lb", [(1, 1), (1, 40), (32, 32), (33, 64), (255, 256)])
@pytest.mark.parametrize("bits", [1, 7, 8, 63, 64, 300])
@pytest.mark.parametrize("signs", [(1, 1), (1, -1), (-1, -1)])
def test_mul_packed_extreme_coefficients(la, lb, bits, signs):
    # every coefficient at the largest magnitude, so each product coefficient
    # reaches the slot bound: m * max|a| * max|b|
    x, y = signs[0] * (2 ** bits - 1), signs[1] * (2 ** bits - 1)
    full = la + lb - 1
    want = [x * y * (min(k, la - 1) - max(0, k - lb + 1) + 1) for k in range(full)]
    assert mul_packed([x] * la, [y] * lb, full + 2) == want + [0, 0]
    assert mul_packed([x] * la, [y] * lb, full // 2) == want[: full // 2]


def test_mul_packed_edge_cases():
    assert mul_packed([1, 2], [3], 0) == [] == mul_packed([1, 2], [3], -2)
    assert mul_packed([], [1, 2, 3], 4) == [0, 0, 0, 0] == mul_packed([], [], 4)
    assert mul_packed([0, 0], [0], 3) == [0, 0, 0]
    a = [3, -1, 4]
    assert mul_packed(a, a, 6) == [9, -6, 25, -8, 16, 0]


@pytest.mark.parametrize("name", sorted(KERNEL_DOMAINS))
def test_mul_coeffs_other_domains_unchanged(name, packed_calls):
    # long enough to pass the length rule, so only the domain keeps them off
    # the packed path (GF(5) representatives are ints and may take it)
    ring, elem = KERNEL_DOMAINS[name]

    @settings(derandomize=True, max_examples=10, deadline=None)
    @given(st.lists(elem, min_size=40, max_size=60), st.lists(elem, min_size=40, max_size=60))
    def check(a, b):
        n = len(a) + len(b)
        got = mul_coeffs(a, b, n, ring.zero)
        want = mul_schoolbook(a, b, n, ring.zero)
        assert got == want and list(map(type, got)) == list(map(type, want))

    check()
    if name in ("QQ", "Z[x,y]"):
        assert not packed_calls


def test_mul_coeffs_fractions_with_int_zero_stay_on_schoolbook(monkeypatch):
    # QExpansion multiplies with zero = 0 even when a coefficient is a Fraction
    monkeypatch.setattr(exactalg, "mul_packed", None)
    a = list(range(1, 50)) + [Fraction(1, 3)]
    got = mul_coeffs(a, a, 100, 0)
    assert got == mul_schoolbook(a, a, 100, 0)
    assert got[98] == Fraction(1, 9)


# ---------------------------------------------------------------------------
# the graded product (series over a weighted ZZ[x, y] or QQ[x, y]) against
# the schoolbook product


@pytest.fixture
def graded_calls(monkeypatch):
    """(ring, took the graded path) for every call of the graded product."""
    calls = []
    graded = exactalg.mul_graded

    def spy(a, b, n, zero):
        out = graded(a, b, n, zero)
        calls.append((zero.ring, out is not None))
        return out

    monkeypatch.setattr(exactalg, "mul_graded", spy)
    return calls


@st.composite
def homogeneous_operands(draw, ring):
    """Two polynomial coefficient lists, each with its z^i coefficient
    homogeneous of weight i + k for its own k (zero where i + k has no
    monomial), whole zero coefficients among them; half the time one list
    twice, as in a square; and n <= 0, below, at or above the full length."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    wx, wy = ring.weights
    rational = ring.base == QQ

    def coeff():
        c = rng.randint(-20, 20)
        return Fraction(c, rng.randint(1, 12)) if rational else c

    lists = []
    for _ in range(2):
        k = draw(st.integers(-3, 3))
        coeffs = []
        for i in range(draw(st.integers(0, 40))):
            weight = i + k
            monos = [(ex, (weight - wx * ex) // wy) for ex in range(weight // wx + 1)
                     if (weight - wx * ex) % wy == 0] if weight >= 0 else []
            if rng.random() < 0.2:
                monos = []
            coeffs.append(ring.from_terms({e: coeff() for e in monos}))
        lists.append(coeffs)
    a, b = lists
    if draw(st.booleans()):
        b = a
    full = len(a) + len(b) - 1
    where = draw(st.sampled_from(("nonpositive", "below", "at", "above")))
    n = {"nonpositive": rng.randint(-2, 0), "below": rng.randint(1, max(full - 1, 1)),
         "at": full, "above": full + rng.randint(1, 5)}[where]
    return a, b, n


def coefficient_types(coeffs):
    return [type(c) for p in coeffs for c in p.terms.values()]


@pytest.mark.parametrize("base", [ZZ, QQ])
@pytest.mark.parametrize("weights", [(1, 3), (2, 3)])
def test_graded_product_matches_schoolbook(base, weights, graded_calls, packed_calls, monkeypatch):
    ring = PolynomialRing(("x", "y"), base, weights)

    def same(got, want):
        assert got == want
        assert list(map(type, got)) == list(map(type, want))
        assert coefficient_types(got) == coefficient_types(want)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(homogeneous_operands(ring))
    def check(operands):
        a, b, n = operands
        want = mul_schoolbook(a, b, n, ring.zero)
        same(mul_coeffs(a, b, n, ring.zero), want)
        with monkeypatch.context() as m:  # the graded path whatever the cost rule says
            m.setattr(exactalg, "GRADED_SLOTS_PER_TERM", math.inf)
            same(exactalg.mul_graded(a, b, n, ring.zero), want)

    check()
    assert graded_calls and all(taken for _, taken in graded_calls[1::2])
    assert any(taken for _, taken in graded_calls[::2])  # and under the rule
    assert packed_calls  # some flattened products were long enough to pack


def test_graded_product_non_homogeneous_operand_gives_schoolbook(graded_calls):
    for base in (ZZ, QQ):
        ring = PolynomialRing(("x", "y"), base, (1, 3))
        x, y = ring.gens()
        good = [ring.zero, ring.one, x, x * x + y, x ** 3 - 2 * x * y]  # z^i of weight i - 1
        for bad in ([ring.one, x + y], [ring.zero, x, y], [x, x * x, y * 5 + x]):
            for a, b in ((good, bad), (bad, good), (bad, bad)):
                n = len(a) + len(b) - 1
                got = mul_coeffs(a, b, n, ring.zero)
                assert got == mul_schoolbook(a, b, n, ring.zero)
                assert coefficient_types(got) == coefficient_types(mul_schoolbook(a, b, n, ring.zero))
        assert graded_calls[-1] == (ring, False)


def test_graded_product_declines_a_sparse_layout(graded_calls):
    # over five variables the box of exponents outgrows the terms; the cost
    # rule keeps such products on the schoolbook path
    from tmfkit.elliptic import formal_log, generic_curve

    log = formal_log(generic_curve(), 16)
    n = len(log.coeffs)
    del graded_calls[:]
    got = mul_coeffs(log.coeffs, log.coeffs, n, log.ring.zero)
    assert graded_calls == [(log.ring, False)]
    assert got == mul_schoolbook(log.coeffs, log.coeffs, n, log.ring.zero)


def test_graded_product_carries_weights_through_base_changes():
    ring = PolynomialRing(("x", "y"), ZZ, (2, 3))
    p = ring.gen("x")
    assert p.to_base(QQ).ring.weights == p.reduce_mod(5).ring.weights == (2, 3)
    # weights are not part of a ring's identity
    assert PolynomialRing(("x", "y")) == ring and hash(PolynomialRing(("x", "y"))) == hash(ring)
    with pytest.raises(ValueError):
        PolynomialRing(("x", "y"), ZZ, (1, 0))
    # GF(p) coefficients keep the schoolbook product
    gf = p.reduce_mod(5).ring
    a = [gf.zero, gf.one, gf.gen("x")]
    assert exactalg.mul_graded(a, a, 5, gf.zero) is None


def test_p_series_takes_the_graded_path_in_both_routes(graded_calls, monkeypatch):
    from tmfkit.elliptic import curve_a1_a3, curve_a2_a4, formal_group_law, p_series

    schoolbook = exactalg.mul_schoolbook
    polynomial_schoolbook = []

    def spy(a, b, n, zero):
        if type(zero) is not int:
            polynomial_schoolbook.append(zero)
        return schoolbook(a, b, n, zero)

    monkeypatch.setattr(exactalg, "mul_schoolbook", spy)
    for curve, p in ((curve_a1_a3(), 2), (curve_a2_a4(), 3)):
        del graded_calls[:]
        p_series(formal_group_law(curve, 12), p, 12)
        # route A runs over ZZ[a_i], route B (log/exp) over QQ[a_i]
        bases = {type(ring.base) for ring, _ in graded_calls}
        assert bases == {type(ZZ), type(QQ)}
        assert all(taken for _, taken in graded_calls)
    assert not polynomial_schoolbook
