"""The graded ring of integral modular forms Z[c4, c6, Delta]/(c6^2 = c4^3 - 1728*Delta).

Normal forms keep the c6-exponent at most 1.  Monomial weights are
4i + 6j + 12k for c4^i c6^j Delta^k, and homogeneous values carry their weight.
"""

from dataclasses import dataclass
from math import gcd

from . import qseries
from .exactalg import format_terms, power
# _EXPANSION_CACHE is qseries' own dict, re-exported for readers of modforms
from .qseries import _EXPANSION_CACHE, QExpansion  # noqa: F401


class HomogeneityError(ValueError):
    """An operation that requires a homogeneous modular-form polynomial got scratch."""


class DecompositionError(ValueError):
    """A q-expansion does not decompose over the weight basis (or lacks precision)."""


def monomial_weight(i, j, k):
    return 4 * i + 6 * j + 12 * k


class MFPolynomial:
    """Integer polynomial in c4, c6, Delta, as a map (i, j, k) -> coefficient.

    ``weight`` is the common weight of all terms; inhomogeneous scratch values
    carry weight None and are rejected by the public operations that need a
    weight.  The zero polynomial of any weight is representable.
    """

    __slots__ = ("terms", "weight")

    def __init__(self, terms, weight=None):
        clean = {}
        for key, c in terms.items():
            i, j, k = key
            if i < 0 or j < 0 or k < 0:
                raise ValueError("negative exponent in monomial %r" % (key,))
            if not isinstance(c, int) or isinstance(c, bool):
                raise TypeError("modular-form coefficients must be ints, got %r" % (c,))
            if c:
                clean[(i, j, k)] = c
        weights = {monomial_weight(*key) for key in clean}
        if len(weights) > 1:
            inferred = None
        elif len(weights) == 1:
            inferred = weights.pop()
        else:
            inferred = weight
        if weight is not None and inferred is not None and weight != inferred:
            raise ValueError("declared weight %d does not match terms of weight %d" % (weight, inferred))
        self.terms = clean
        self.weight = inferred if inferred is not None else weight

    # -- constructors

    @classmethod
    def monomial(cls, i, j, k, c=1):
        return cls({(i, j, k): c})

    @classmethod
    def zero(cls, weight=None):
        return cls({}, weight)

    @classmethod
    def one(cls):
        return cls({(0, 0, 0): 1})

    # -- queries

    def is_zero(self):
        return not self.terms

    def is_homogeneous(self):
        return self.weight is not None or not self.terms

    def is_normal(self):
        return all(j <= 1 for (_, j, _k) in self.terms)

    def require_homogeneous(self, what="operation"):
        if not self.is_homogeneous() or self.weight is None:
            raise HomogeneityError("%s requires a weight-tagged homogeneous value" % what)

    # -- arithmetic

    def __add__(self, other):
        if isinstance(other, int):
            other = MFPolynomial({(0, 0, 0): other})
        out = dict(self.terms)
        for key, c in other.terms.items():
            s = out.get(key, 0) + c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        w = self.weight if self.weight == other.weight else None
        if not self.terms:
            w = other.weight
        elif not other.terms:
            w = self.weight
        return MFPolynomial(out, w)

    __radd__ = __add__

    def __neg__(self):
        return MFPolynomial({k: -c for k, c in self.terms.items()}, self.weight)

    def __sub__(self, other):
        if isinstance(other, int):
            other = MFPolynomial({(0, 0, 0): other})
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return MFPolynomial({k: c * other for k, c in self.terms.items()}, self.weight)
        out = {}
        for (i1, j1, k1), c1 in self.terms.items():
            for (i2, j2, k2), c2 in other.terms.items():
                key = (i1 + i2, j1 + j2, k1 + k2)
                s = out.get(key, 0) + c1 * c2
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        w = None
        if self.weight is not None and other.weight is not None:
            w = self.weight + other.weight
        return MFPolynomial(out, w)

    __rmul__ = __mul__

    def __pow__(self, n):
        return power(self, n, MFPolynomial.one())

    # -- comparison / display

    def __eq__(self, other):
        if not isinstance(other, MFPolynomial):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def sorted_terms(self):
        # display order: decreasing c4-power, then c6, then Delta
        return sorted(self.terms.items(), key=lambda t: (-t[0][0], -t[0][1], -t[0][2]))

    def __str__(self):
        return format_terms(("c4", "c6", "Delta"), self.sorted_terms())

    def __repr__(self):
        return "MFPolynomial(%s)" % self

    def to_dict(self):
        return {
            "weight": self.weight,
            "terms": [[i, j, k, c] for (i, j, k), c in sorted(self.terms.items())],
        }

    @classmethod
    def from_dict(cls, d):
        return cls({(i, j, k): c for i, j, k, c in d["terms"]}, d.get("weight"))


C4 = MFPolynomial.monomial(1, 0, 0)
C6 = MFPolynomial.monomial(0, 1, 0)
DELTA = MFPolynomial.monomial(0, 0, 1)


def mf_normal_form(p):
    """Eliminate c6^2 via c6^2 = c4^3 - 1728*Delta until every c6-exponent is 0 or 1."""
    terms = dict(p.terms)
    out = {}
    while terms:
        (i, j, k), c = terms.popitem()
        if j <= 1:
            s = out.get((i, j, k), 0) + c
            if s:
                out[(i, j, k)] = s
            else:
                out.pop((i, j, k), None)
            continue
        # c4^i c6^j Delta^k -> c4^(i+3) c6^(j-2) Delta^k - 1728 c4^i c6^(j-2) Delta^(k+1)
        for key, d in (((i + 3, j - 2, k), c), ((i, j - 2, k + 1), -1728 * c)):
            s = terms.get(key, 0) + d
            if s:
                terms[key] = s
            else:
                terms.pop(key, None)
    return MFPolynomial(out, p.weight)


def _base_expansion(name, prec):
    """c4, c6 or Delta to precision prec, served from ``qseries._EXPANSION_CACHE``."""
    if name == "delta":
        return qseries.discriminant_qexp(prec)
    return qseries.eisenstein({"c4": 4, "c6": 6}[name], prec)


def monomial_qexp(i, j, k, prec):
    f = QExpansion.one(prec)
    if i:
        f = f * (_base_expansion("c4", prec) ** i).truncate(prec)
    if j:
        f = f * (_base_expansion("c6", prec) ** j).truncate(prec)
    if k:
        f = f * (_base_expansion("delta", prec + k) ** k).truncate(prec)
    return f.truncate(prec)


def mf_to_qexp(p, prec):
    """Evaluation homomorphism into q-expansions, at precision ``prec``."""
    p.require_homogeneous("q-expansion evaluation")
    total = QExpansion.zero(prec)
    for (i, j, k), c in p.terms.items():
        total = total + monomial_qexp(i, j, k, prec) * c
    return total


def weight_basis(weight):
    """Monomials (i, j, k) with 4i+6j+12k = weight and j in {0, 1}, by increasing k.

    For each admissible Delta-power k there is exactly one (i, j) pair; some k
    (those with residual weight 2) contribute nothing.
    """
    if weight < 0 or weight % 2:
        return []
    basis = []
    for k in range(weight // 12 + 1):
        m = weight - 12 * k
        if m % 4 == 0:
            basis.append((m // 4, 0, k))
        elif m >= 6:
            basis.append(((m - 6) // 4, 1, k))
    return basis


def qexp_to_mf(f, weight):
    """Decompose an integral q-expansion over the weight basis.

    Triangular elimination on the q-valuation: the basis element with
    Delta-power k is the unique one whose expansion starts at q^k (with leading
    coefficient 1), so eliminating k = 0, 1, ... in order is unitriangular and
    keeps everything integral.
    """
    if not isinstance(weight, int) or weight < 0 or weight % 2:
        raise DecompositionError("weight must be a nonnegative even integer, got %r" % (weight,))
    if not f.is_integral():
        raise DecompositionError("q-expansion has a non-integral coefficient")
    if f.val < 0:
        raise DecompositionError("q-expansion has negative valuation; not a modular form")
    kmax = weight // 12
    if f.prec <= kmax:
        raise DecompositionError(
            "precision %d too small for weight %d (need > %d)" % (f.prec, weight, kmax)
        )
    prec = f.prec
    basis = {k: (i, j) for (i, j, k) in weight_basis(weight)}
    remainder = f
    coeffs = {}
    for k in range(kmax + 1):
        c = remainder.coeff(k)
        if k in basis:
            if c:
                i, j = basis[k]
                coeffs[(i, j, k)] = c
                remainder = remainder - monomial_qexp(i, j, k, prec) * c
        elif c:
            raise DecompositionError(
                "coefficient %d at q^%d has no weight-%d basis element" % (c, k, weight)
            )
    if not remainder.is_zero():
        raise DecompositionError(
            "nonzero remainder at q^%d; not a modular form of weight %d"
            % (remainder.val, weight)
        )
    return MFPolynomial(coeffs, weight)


# ---------------------------------------------------------------------------
# the tmf-image divisibility certificate


def required_divisor(i, j, k):
    """Required divisor for the monomial c4^i c6^j Delta^k to lift.

    1 when i > 0 and j = 0; 2 when j = 1; 24/gcd(24, k) when i = j = 0.
    """
    if j == 1:
        return 2
    if j != 0:
        raise ValueError("certificates apply to normal-form monomials (c6-exponent 0 or 1)")
    if i > 0:
        return 1
    return 24 // gcd(24, k)


@dataclass(frozen=True)
class MonomialVerdict:
    i: int
    j: int
    k: int
    coefficient: int
    required: int
    ok: bool

    def to_dict(self):
        return {
            "monomial": [self.i, self.j, self.k],
            "coefficient": self.coefficient,
            "required_divisor": self.required,
            "ok": self.ok,
        }


@dataclass(frozen=True)
class TmfCertificate:
    """Per-monomial divisibility verdicts for membership in the image of tmf homotopy."""

    form: MFPolynomial
    verdicts: tuple

    @property
    def is_member(self):
        return all(v.ok for v in self.verdicts)

    @property
    def failing(self):
        return [v for v in self.verdicts if not v.ok]

    def to_dict(self):
        return {
            "form": self.form.to_dict(),
            "weight": self.form.weight,
            "verdicts": [v.to_dict() for v in self.verdicts],
            "member": self.is_member,
        }

    def __str__(self):
        lines = []
        for v in self.verdicts:
            mono = str(MFPolynomial.monomial(v.i, v.j, v.k))
            lines.append(
                "%-4s %-22s coefficient %-12d requires %-3d %s"
                % ("ok" if v.ok else "FAIL", mono, v.coefficient, v.required,
                   "divides" if v.ok else "does not divide")
            )
        lines.append("verdict: %s" % ("member" if self.is_member else "non-member"))
        return "\n".join(lines)


def tmf_image_test(p):
    """Divisibility certificate for the image of tmf homotopy in modular forms.

    The input is normalized first (the test is stated on normal forms); it must
    be homogeneous.
    """
    p.require_homogeneous("tmf image test")
    p = mf_normal_form(p)
    verdicts = []
    for (i, j, k), c in sorted(p.terms.items(), key=lambda t: t[0][2]):
        req = required_divisor(i, j, k)
        verdicts.append(MonomialVerdict(i, j, k, c, req, c % req == 0))
    return TmfCertificate(p, tuple(verdicts))


def bo_constant_term(p):
    """Constant term of the q-expansion together with the weight.

    Only monomials with Delta-power 0 contribute to the constant term (c4 and
    c6 both have constant term 1), so no expansion is needed.
    """
    p.require_homogeneous("constant-term map")
    a0 = sum(c for (i, j, k), c in p.terms.items() if k == 0)
    return a0, p.weight
