"""Independent answer checks for the benchmark, run outside the timer.

The reference q-expansions here do not reuse tmfkit's series kernel: divisor
sums come from a sieve, Delta from the eta product and j from the partition
generating function, and every product is one big-integer multiplication by
Kronecker substitution.  Each ``check_*`` function returns None for a correct
answer or a one-line description of what is wrong.
"""

from math import gcd

from tmfkit import modforms, moonshine
from tmfkit.modforms import MFPolynomial
from tmfkit.qseries import QExpansion


# ---------------------------------------------------------------------------
# Kronecker-substitution series arithmetic on plain integer lists


def _pack(coeffs, nbytes):
    pos = b"".join((c if c > 0 else 0).to_bytes(nbytes, "little") for c in coeffs)
    neg = b"".join((-c if c < 0 else 0).to_bytes(nbytes, "little") for c in coeffs)
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def kmul(a, b, n):
    """The first n coefficients of a*b, with one big-integer product."""
    a, b = a[:n], b[:n]
    if not a or not b or n <= 0:
        return [0] * max(n, 0)
    bits = (
        max(abs(c) for c in a).bit_length()
        + max(abs(c) for c in b).bit_length()
        + min(len(a), len(b)).bit_length()
        + 2
    )
    nbytes = (bits + 7) // 8
    width = 8 * nbytes
    half = 1 << (width - 1)
    # bias every digit by 2^(width-1) so the base-2^width digits carry no borrow
    bias = int.from_bytes(half.to_bytes(nbytes, "little") * n, "little")
    mask = (1 << (width * n)) - 1
    digits = ((_pack(a, nbytes) * _pack(b, nbytes) + bias) & mask).to_bytes(nbytes * n, "little")
    return [
        int.from_bytes(digits[i * nbytes:(i + 1) * nbytes], "little") - half for i in range(n)
    ]


def kpow(a, e, n):
    result = [1] + [0] * (n - 1)
    square = a[:n]
    while e:
        if e & 1:
            result = kmul(result, square, n)
        e >>= 1
        if e:
            square = kmul(square, square, n)
    return result


def _sigma_table(k, n):
    table = [0] * n
    for d in range(1, n):
        dk = d ** k
        for m in range(d, n, d):
            table[m] += dk
    return table


def _pentagonal(n):
    """Coefficients of prod_{m>=1} (1 - q^m) below q^n."""
    out = [0] * n
    out[0] = 1
    m = 1
    while m * (3 * m - 1) // 2 < n:
        s = -1 if m % 2 else 1
        for e in (m * (3 * m - 1) // 2, m * (3 * m + 1) // 2):
            if e < n:
                out[e] = s
        m += 1
    return out


def _partitions(n):
    """Coefficients of 1/prod(1 - q^m), by Euler's pentagonal recurrence."""
    p = [1] + [0] * (n - 1)
    for i in range(1, n):
        total = 0
        m = 1
        while m * (3 * m - 1) // 2 <= i:
            s = 1 if m % 2 else -1
            total += s * p[i - m * (3 * m - 1) // 2]
            if m * (3 * m + 1) // 2 <= i:
                total += s * p[i - m * (3 * m + 1) // 2]
            m += 1
        p[i] = total
    return p


class Reference:
    """Reference expansions, grown on demand and shared by all checks of a run."""

    def __init__(self):
        self._prec = 0
        self.problems = []

    def _grow(self, n):
        if n <= self._prec:
            return
        n = max(64, 1 << (n - 1).bit_length())  # powers of two: few rebuilds
        s3, s5 = _sigma_table(3, n), _sigma_table(5, n)
        self.c4 = [1] + [240 * s3[m] for m in range(1, n)]
        self.c6 = [1] + [-504 * s5[m] for m in range(1, n)]
        eta24 = kpow(_pentagonal(n), 24, n)  # Delta / q
        inv24 = kpow(_partitions(n), 24, n)  # q / Delta
        self.delta = [0] + eta24[: n - 1]
        self.c4cube = kpow(self.c4, 3, n)
        self.jq = kmul(self.c4cube, inv24, n)  # q*j
        # the two Delta routes and the inverse must agree before anything is checked
        c6sq = kpow(self.c6, 2, n)
        if [x - y for x, y in zip(self.c4cube, c6sq)] != [1728 * d for d in self.delta]:
            self.problems.append("reference: c4^3 - c6^2 != 1728*eta-product Delta")
        if kmul(eta24, inv24, n) != [1] + [0] * (n - 1):
            self.problems.append("reference: eta product times partition series != 1")
        self._prec = n

    def series(self, name, n):
        """Coefficient list of c4, c6, delta, c4cube or q*j below q^n."""
        self._grow(n)
        return getattr(self, name)[:n]

    def j(self, prec):
        """j as a QExpansion with valuation -1 and precision ``prec``."""
        return QExpansion(-1, self.series("jq", prec + 1), prec)

    def form(self, terms, prec):
        """Expansion of sum c * c4^i c6^j Delta^k below q^prec."""
        total = [0] * prec
        for (i, j, k), c in terms.items():
            mono = kmul(kpow(self.series("c4", prec), i, prec), kpow(self.series("c6", prec), j, prec), prec)
            mono = kmul(mono, kpow(self.series("delta", prec), k, prec), prec)
            total = [t + c * m for t, m in zip(total, mono)]
        return total


def _coeffs(f, lo, hi):
    """Coefficients of a QExpansion for exponents lo <= e < hi."""
    return [f.coeff(e) for e in range(lo, hi)]


def _is_principal_q_minus_n(f, n):
    """f = q^-n + O(q): leading 1 at q^-n and zero through q^0."""
    return f.val == -n and f.coeff(-n) == 1 and all(f.coeff(e) == 0 for e in range(-n + 1, min(1, f.prec)))


# ---------------------------------------------------------------------------
# modular workload


def check_eisenstein(ref, params, f):
    weight, N = params
    want = ref.series("c4" if weight == 4 else "c6", N)
    if f.prec != N or _coeffs(f, 0, N) != want:
        return "eisenstein(%d, %d) differs from the divisor-sieve route" % (weight, N)
    return None


def check_discriminant(ref, params, f):
    route, N = params
    if f.prec != N or _coeffs(f, 0, N) != ref.series("delta", N):
        return "%s-route Delta(%d) differs from the reference Delta" % (route, N)
    return None


def check_j(ref, params, j):
    (N,) = params
    if j.val != -1 or j.prec != N:
        return "j_qexp(%d) has valuation %d and precision %d" % (N, j.val, j.prec)
    # the reference q*j is c4^3 times q/Delta, so equality is c4^3 = j*Delta
    if _coeffs(j, -1, N) != ref.series("jq", N + 1):
        return "c4^3 != j*Delta for j_qexp(%d)" % N
    return None


def check_faber(ref, params, answer):
    n, N = params
    poly, f = answer
    if f.prec != N or not _is_principal_q_minus_n(f, n) or not poly.is_monic() or poly.degree != n:
        return "faber_jn(%d, %d) is not a monic degree-n polynomial with expansion q^-n + O(q)" % (n, N)
    j = ref.j(N + n)
    if not poly.evaluate_qexp(j).agrees_with(f, N):
        return "faber_jn(%d, %d) differs from its polynomial evaluated at the reference j" % (n, N)
    window = min(N, 12)
    j1 = ref.j(n * window) - 744
    if not moonshine.hecke_weight0(j1, n).agrees_with(f, window):
        return "faber_jn(%d, %d) differs from the Hecke route" % (n, N)
    return None


def check_hecke(ref, params, f):
    n, N = params
    if f.prec != -(-N // n) or not _is_principal_q_minus_n(f, n):
        return "T_%d(j - 744) at precision %d is not q^-%d + O(q)" % (n, N, n)
    poly, _ = moonshine.faber_jn(n, 1)
    if not poly.evaluate_qexp(ref.j(f.prec + n)).agrees_with(f):
        return "T_%d(j - 744) differs from j_%d evaluated at the reference j" % (n, n)
    return None


def check_genfun(ref, params, report):
    (N,) = params
    if not report.ok or report.n_max != N or report.matches != list(range(1, N + 1)):
        return "genfun_check(%d) failed" % N
    return None


def check_mf_roundtrip(ref, params, answer):
    terms, weight, prec, member = params
    expansion, decomposed, cert = answer
    form = MFPolynomial(dict(terms), weight)
    if expansion.prec != prec or _coeffs(expansion, 0, prec) != ref.form(form.terms, prec):
        return "mf_to_qexp differs from the reference expansion (weight %d)" % weight
    if decomposed != modforms.mf_normal_form(form):
        return "qexp_to_mf(mf_to_qexp(f)) != mf_normal_form(f) (weight %d)" % weight
    if cert.is_member != member:
        return "tmf_image_test verdict %s, generated as %s" % (cert.is_member, member)
    return None


# ---------------------------------------------------------------------------
# formal-group workload


def _low_terms_ok(series, m):
    """[m](z) = m z - a1 m(m-1)/2 z^2 + O(z^3), read off F(x, y) = x + y - a1 xy + ..."""
    ring = series.ring
    a1 = ring.gen("a1") if "a1" in getattr(ring, "variables", ()) else ring.zero
    want = [ring.zero, ring.coerce(m), ring.mul_int(a1, -m * (m - 1) // 2)]
    return [series.known(i) for i in range(3)] == want


def check_p_series(ref, params, series):
    p, degree = params
    if series.prec != degree + 1 or not _low_terms_ok(series, p):
        return "[%d](z) at degree %d is not %d z - a1 C(%d,2) z^2 + O(z^3)" % (p, degree, p, p)
    return None


def check_n_series(ref, params, answer):
    curve_p, degree = params
    for m, series in zip((2, 3), answer):
        problem = check_p_series(ref, (m, degree), series)
        if problem is not None:
            return problem
    return None


def check_v1(ref, params, report):
    (p,) = params
    if report.p != p or not report.agree_up_to_unit:
        return "v1_check(%d) does not agree up to a unit" % p
    return None


def _cubic_discriminant(a, b, c, d):
    return b * b * c * c - 4 * a * c ** 3 - 4 * b ** 3 * d - 27 * a * a * d * d + 18 * a * b * c * d


def check_invariants(ref, params, inv):
    if inv.c4 ** 3 - inv.c6 ** 2 != 1728 * inv.delta:
        return "c4^3 - c6^2 != 1728*delta for %r" % (params,)
    # 16*delta is the discriminant of 4x^3 + b2 x^2 + 2 b4 x + b6
    if _cubic_discriminant(4, inv.b2, 2 * inv.b4, inv.b6) != 16 * inv.delta:
        return "delta differs from the cubic-discriminant route for %r" % (params,)
    return None


def check_associative(ref, params, ok):
    return None if ok is True else "formal group law not associative for %r" % (params,)


# ---------------------------------------------------------------------------
# anss and the cli workload


def check_survivors(report, which, kmax):
    period = 8 if which == "p2" else 3
    want = [period // gcd(period, k) for k in range(1, kmax + 1)]
    if report["multipliers"] != want:
        return "anss-survivors %s %d multipliers differ from %d/gcd(%d,k)" % (which, kmax, period, period)
    return None


CHECKS = {
    "eisenstein": check_eisenstein,
    "discriminant": check_discriminant,
    "j_qexp": check_j,
    "faber_jn": check_faber,
    "hecke": check_hecke,
    "genfun_check": check_genfun,
    "mf_roundtrip": check_mf_roundtrip,
    "p_series": check_p_series,
    "n_series": check_n_series,
    "v1_check": check_v1,
    "invariants": check_invariants,
    "verify_associative": check_associative,
}
