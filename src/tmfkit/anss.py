"""Degree-bounded calculator for finitely presented bigraded commutative rings
with differential seeds: parsing, monomial rewriting to normal form, additive
orders, and the minimal surviving multiple of each power of Delta.

Presentation file format (line-oriented, ``#`` comments, blank lines ignored):

    prime 3
    gen alpha stem=3 filt=1 order=3
    gen Delta stem=24 filt=0 order=inf invertible
    rel alpha^2 -> 0
    rel 3 alpha -> 0
    rel c6^2 -> c4^3 - 1728 Delta
    d 5 Delta -> alpha beta^2
    d 7 4*Delta -> kbar eta^3 transfer=quarter

Every ``gen`` line comes before the first ``rel`` or ``d`` line, and no name
is declared twice.  Both sides of ``->`` are integer polynomials in the
generators, read by ``exactalg.parse_expression`` (the grammar ``tmf-member``
reads): ``+``, ``-``, ``*`` or juxtaposition, ``^`` with an integer exponent,
and parentheses.  A left side must come to a positive integer times a
monomial.  Rule orientation must strictly decrease the lexicographic monomial
order induced by the order generators are listed in; this is validated at
parse time, as is bidegree homogeneity of every rule and seed.  Errors name
the line, and a syntax error the column counted from the start of the line.
"""

import os
import re
from dataclasses import dataclass
from math import gcd, lcm

from .exactalg import ExpressionError, InternalError, PolynomialRing, format_terms, parse_expression


class PresentationError(ValueError):
    """Malformed presentation text; carries line and column when known."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            loc = "line %d" % line + ("" if column is None else ", column %d" % column)
            message = "%s: %s" % (loc, message)
        super().__init__(message)
        self.line = line
        self.column = column


@dataclass(frozen=True)
class Generator:
    name: str
    stem: int
    filt: int
    order: object  # positive int, or None for infinite
    invertible: bool = False


@dataclass(frozen=True)
class RewriteRule:
    coeff: int  # positive; rules with coeff > 1 are torsion rules
    lhs: tuple  # exponent vector
    rhs: dict  # monomial -> integer coefficient
    text: str

    @property
    def is_torsion(self):
        return self.coeff > 1


@dataclass(frozen=True)
class DifferentialSeed:
    page: int
    source_coeff: int
    source: tuple  # exponent vector (a power of Delta in the shipped files)
    target: dict  # monomial -> coefficient
    transfer: str = None


_HEAD = re.compile(r"\s*(\S+)\s*")
_PAGE = re.compile(r"(\d+)\s+")
_TRANSFER = re.compile(r"\btransfer=(\w+)\s*$")


def _expression_scope(generators):
    """The polynomial ring in the generators' names, and its generators by name."""
    ring = PolynomialRing([g.name for g in generators])
    return ring, dict(zip(ring.variables, ring.gens()))


def _read(scope, text, line=None, offset=0):
    """The term dict of ``text`` over ``scope``.  A syntax error becomes a
    PresentationError at ``line``, its column counted from ``offset``, where
    the text starts in that line."""
    ring, symbols = scope
    try:
        # a copy: a bare name evaluates to the shared generator itself
        return dict(parse_expression(text, symbols, ring.const).terms)
    except ExpressionError as exc:
        raise PresentationError(str(exc), line, offset + exc.column) from None


class E2Presentation:
    """A parsed presentation: generators with bidegrees and additive orders,
    oriented rewrite rules, and differential seeds."""

    def __init__(self, prime, generators, rules, seeds):
        self.prime = prime
        self.generators = generators
        self.gen_index = {g.name: i for i, g in enumerate(generators)}
        self._scope = _expression_scope(generators)
        self.invertible = tuple(g.invertible for g in generators)
        self.rules = [r for r in rules if not r.is_torsion]
        self.torsion_rules = [r for r in rules if r.is_torsion]
        self.seeds = sorted(seeds, key=lambda s: s.page)
        self._validate()

    def divides(self, lhs, mono):
        """lhs | mono as monomials; invertible generators impose no bound."""
        return all(
            inv or e >= l for inv, e, l in zip(self.invertible, mono, lhs)
        )

    # -- parsing

    @classmethod
    def parse(cls, text):
        prime = None
        generators = []
        rules = []
        seeds = []
        scope = None  # fixed at the first rule, once every generator is declared
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].rstrip()
            m = _HEAD.match(line)
            if not m:
                continue
            head, start = m.group(1), m.end()
            rest = line[start:]
            if head == "prime":
                try:
                    prime = int(rest)
                except ValueError:
                    raise PresentationError("prime must be an integer", lineno) from None
                if prime not in (2, 3):
                    raise PresentationError("unsupported prime %d" % prime, lineno)
            elif head == "gen":
                if scope is not None:
                    raise PresentationError(
                        "gen after the first rel or d line; declare every generator first", lineno)
                gen = cls._parse_gen(rest, lineno)
                if any(g.name == gen.name for g in generators):
                    raise PresentationError("duplicate generator %r" % gen.name, lineno)
                generators.append(gen)
            elif head == "rel":
                scope = scope or _expression_scope(generators)
                coeff, lhs, rhs = cls._parse_rule(scope, line, start, len(line), lineno)
                rules.append(RewriteRule(coeff, lhs, rhs, line.strip()))
            elif head == "d":
                scope = scope or _expression_scope(generators)
                m = _PAGE.match(line, start)
                if not m:
                    raise PresentationError("differential needs a page number", lineno)
                transfer = None
                end = len(line)
                tm = _TRANSFER.search(line, m.end())
                if tm:
                    transfer = tm.group(1)
                    if transfer != "quarter":
                        raise PresentationError("unknown transfer rule %r" % transfer, lineno)
                    end = tm.start()
                coeff, source, target = cls._parse_rule(scope, line, m.end(), end, lineno)
                seeds.append(DifferentialSeed(int(m.group(1)), coeff, source, target, transfer))
            else:
                raise PresentationError("unknown directive %r" % head, lineno)
        if prime is None:
            raise PresentationError("missing 'prime' directive")
        if not generators:
            raise PresentationError("no generators declared")
        return cls(prime, generators, rules, seeds)

    @staticmethod
    def _parse_rule(scope, line, start, end, lineno):
        """The left side of ``line[start:end]`` as (coefficient, monomial),
        and the right side's term dict."""
        arrow = line.find("->", start, end)
        if arrow < 0:
            raise PresentationError("missing '->'", lineno)
        terms = _read(scope, line[start:arrow], lineno, start)
        if len(terms) != 1:
            raise PresentationError("left side must be a single monomial", lineno)
        (mono, coeff), = terms.items()
        if coeff < 1:
            raise PresentationError("left-side coefficient must be positive", lineno)
        if not any(mono):
            raise PresentationError("left side must involve a generator", lineno)
        return coeff, mono, _read(scope, line[arrow + 2:end], lineno, arrow + 2)

    @staticmethod
    def _parse_gen(rest, lineno):
        parts = rest.split()
        if not parts:
            raise PresentationError("generator needs a name", lineno)
        name = parts[0]
        if not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", name):
            raise PresentationError("bad generator name %r" % name, lineno)
        stem = filt = order = None
        invertible = False
        for item in parts[1:]:
            if item == "invertible":
                invertible = True
                continue
            if "=" not in item:
                raise PresentationError("bad generator attribute %r" % item, lineno)
            key, value = item.split("=", 1)
            if key not in ("stem", "filt", "order"):
                raise PresentationError("unknown generator attribute %r" % key, lineno)
            if key == "order" and value == "inf":
                order = None
                continue
            try:
                number = int(value)
            except ValueError:
                raise PresentationError(
                    "generator attribute %s=%r is not an integer" % (key, value), lineno
                ) from None
            if key == "stem":
                stem = number
            elif key == "filt":
                filt = number
            elif number < 2:
                raise PresentationError("finite order must be >= 2", lineno)
            else:
                order = number
        if stem is None or filt is None:
            raise PresentationError("generator %s needs stem= and filt=" % name, lineno)
        return Generator(name, stem, filt, order, invertible)

    @classmethod
    def builtin(cls, name):
        """One of the shipped presentations: 'tmf-p2' or 'tmf-p3'."""
        fname = {"tmf-p2": "tmf_p2.txt", "p2": "tmf_p2.txt",
                 "tmf-p3": "tmf_p3.txt", "p3": "tmf_p3.txt"}.get(name)
        if fname is None:
            raise ValueError("unknown built-in presentation %r" % name)
        return cls.from_file(os.path.join(os.path.dirname(__file__), "presentations", fname))

    @classmethod
    def from_file(cls, path):
        with open(path, encoding="utf-8") as fh:
            return cls.parse(fh.read())

    # -- validation

    def bidegree(self, mono):
        stem = sum(e * g.stem for e, g in zip(mono, self.generators))
        filt = sum(e * g.filt for e, g in zip(mono, self.generators))
        return stem, filt

    def _validate(self):
        for g in self.generators:
            if g.stem <= 0:
                raise PresentationError("generator %s must have positive stem" % g.name)
        for rule in self.rules + self.torsion_rules:
            lhs_deg = self.bidegree(rule.lhs)
            for mono in rule.rhs:
                if self.bidegree(mono) != lhs_deg:
                    raise PresentationError(
                        "rule %r is not bidegree-homogeneous: %r vs %r"
                        % (rule.text, lhs_deg, self.bidegree(mono))
                    )
                # exponent tuples compare lexicographically in generator-listing order
                if not rule.is_torsion and mono >= rule.lhs:
                    raise PresentationError(
                        "rule %r does not decrease the monomial order" % rule.text
                    )
                for e, g in zip(mono, self.generators):
                    if e < 0 and not g.invertible:
                        raise PresentationError("negative power of %s" % g.name)
        for seed in self.seeds:
            src_stem, src_filt = self.bidegree(seed.source)
            for mono in seed.target:
                stem, filt = self.bidegree(mono)
                if stem != src_stem - 1 or filt != src_filt + seed.page:
                    raise PresentationError(
                        "differential seed violates the page-%d bidegree shift" % seed.page
                    )

    # -- expression helpers

    def expression(self, text):
        """Parse an integer polynomial in the generators (test/CLI convenience)."""
        return _read(self._scope, text)

    def monomial(self, **powers):
        expo = [0] * len(self.generators)
        for name, e in powers.items():
            expo[self.gen_index[name]] = e
        return tuple(expo)

    def monomial_order_bound(self, mono):
        """Additive-order bound of a normal monomial: the minimum of the orders
        of the generators dividing it and of every applicable torsion rule."""
        bound = None
        for e, g in zip(mono, self.generators):
            if e and g.order is not None:
                bound = g.order if bound is None else min(bound, g.order)
        for rule in self.torsion_rules:
            if self.divides(rule.lhs, mono):
                bound = rule.coeff if bound is None else min(bound, rule.coeff)
        return bound

    def format_class(self, cls_or_terms):
        terms = cls_or_terms.term_dict() if isinstance(cls_or_terms, E2Class) else cls_or_terms
        names = [g.name for g in self.generators]
        return format_terms(names, ((m, terms[m]) for m in sorted(terms, reverse=True)), " ")


@dataclass(frozen=True)
class E2Class:
    """A normal-form element: sum of (coefficient, monomial), plus its bidegree."""

    terms: tuple  # sorted tuple of (mono, coeff)
    bidegree: object  # (stem, filt) or None for zero

    def is_zero(self):
        return not self.terms

    def term_dict(self):
        return dict(self.terms)


def _homogeneous_bidegree(pres, terms):
    degrees = {pres.bidegree(mono) for mono in terms}
    if len(degrees) > 1:
        raise ValueError("inhomogeneous expression: bidegrees %r" % sorted(degrees))
    return degrees.pop() if degrees else None


def normal_form(pres, expr, rng=None):
    """Exhaustive rewriting to the unique fixed point, then coefficient
    reduction modulo each monomial's additive order.

    ``expr`` is a dict monomial -> coefficient, an E2Class, or expression text.
    ``rng``, when given, randomizes the order in which applicable rules fire
    (used by the confluence sampling tests); the result must not depend on it.
    """
    if isinstance(expr, str):
        expr = pres.expression(expr)
    elif isinstance(expr, E2Class):
        expr = expr.term_dict()
    _homogeneous_bidegree(pres, expr)

    work = dict(expr)
    done = {}
    guard = 0
    while work:
        guard += 1
        if guard > 100000:
            raise InternalError("rewriting failed to terminate (bug)")
        if rng is None:
            mono = next(iter(work))
        else:
            mono = rng.choice(sorted(work))
        coeff = work.pop(mono)
        candidates = [r for r in pres.rules if pres.divides(r.lhs, mono)]
        if not candidates:
            prev = done.get(mono, 0) + coeff
            if prev:
                done[mono] = prev
            else:
                done.pop(mono, None)
            continue
        rule = candidates[0] if rng is None else rng.choice(candidates)
        rest = tuple(e - l for e, l in zip(mono, rule.lhs))
        for rmono, rcoeff in rule.rhs.items():
            new = tuple(a + b for a, b in zip(rest, rmono))
            val = work.get(new, done.pop(new, 0)) + coeff * rcoeff
            if val:
                work[new] = val
            else:
                work.pop(new, None)
    out = {}
    for mono, coeff in done.items():
        bound = pres.monomial_order_bound(mono)
        if bound is not None:
            coeff %= bound
        if coeff:
            out[mono] = coeff
    terms = tuple(sorted(out.items()))
    return E2Class(terms, _homogeneous_bidegree(pres, out))


def class_order(pres, cls):
    """Least m >= 1 with m*cls = 0, or None for infinite order.

    Valid on normal forms: scaling does not change monomials, so only the
    per-monomial coefficient reduction is involved.
    """
    if cls.is_zero():
        return 1
    total = 1
    for mono, coeff in cls.terms:
        bound = pres.monomial_order_bound(mono)
        if bound is None:
            return None
        total = lcm(total, bound // gcd(bound, coeff))
    return total


def differential_on_delta_power(pres, seed, c, k):
    """The page-``seed.page`` differential on c*Delta^k, per the seed's rule.

    A plain seed on Delta extends by the Leibniz rule to c*k*Delta^(k-1) times
    the target.  A ``quarter`` transfer seed d(s0*Delta) = T acts on c*Delta^k
    as (c*k/s0)*Delta^(k-1)*T and needs s0 | c*k.
    """
    delta_idx = pres.gen_index["Delta"]
    if seed.transfer == "quarter":
        if (c * k) % seed.source_coeff:
            raise ValueError(
                "transfer rule inapplicable: %d does not divide %d" % (seed.source_coeff, c * k)
            )
        mult = (c * k) // seed.source_coeff
    else:
        mult = c * k
    shifted = {}
    for mono, tc in seed.target.items():
        lifted = list(mono)
        lifted[delta_idx] += k - 1
        shifted[tuple(lifted)] = tc * mult
    return normal_form(pres, shifted)


@dataclass(frozen=True)
class SurvivorStep:
    page: int
    entering_multiple: int
    target: str  # rendered differential value on the entering class
    vanishes: bool
    required_multiple: int


@dataclass(frozen=True)
class SurvivorEntry:
    k: int
    multiplier: int
    last_page: object  # page of the last nonzero differential considered, or None
    steps: tuple

    def to_dict(self):
        return {
            "k": self.k,
            "multiplier": self.multiplier,
            "last_page": self.last_page,
            "steps": [
                {
                    "page": s.page,
                    "entering_multiple": s.entering_multiple,
                    "differential": s.target,
                    "vanishes": s.vanishes,
                    "required_multiple": s.required_multiple,
                }
                for s in self.steps
            ],
        }


@dataclass(frozen=True)
class SurvivorReport:
    prime: int
    kmax: int
    entries: tuple

    def multipliers(self):
        return [e.multiplier for e in self.entries]

    def to_dict(self):
        return {
            "prime": self.prime,
            "kmax": self.kmax,
            "multipliers": self.multipliers(),
            "entries": [e.to_dict() for e in self.entries],
        }


def survivor_table(pres, kmax):
    """Minimal multiple of each Delta^k, 1 <= k <= kmax, surviving the seeds.

    For each seed page in order, the entering class c*Delta^k is differentiated
    per the seed's rule; the minimal enlargement of c killing the value is
    recorded, and the final c is reported.
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    if not pres.seeds:
        raise ValueError("presentation carries no differential seeds")
    if "Delta" not in pres.gen_index:
        raise ValueError("presentation has no Delta generator")
    entries = []
    for k in range(1, kmax + 1):
        c = 1
        steps = []
        last_page = None
        for seed in pres.seeds:
            value = differential_on_delta_power(pres, seed, c, k)
            if value.is_zero():
                steps.append(SurvivorStep(seed.page, c, "0", True, c))
                continue
            last_page = seed.page
            # the differential scales linearly in the multiplier, so the least
            # enlargement of c killing the value is its additive order
            ord_t = class_order(pres, value)
            if ord_t is None:
                raise ArithmeticError("differential target has infinite order; no multiple survives")
            new_c = c * ord_t
            steps.append(SurvivorStep(seed.page, c, pres.format_class(value), False, new_c))
            c = new_c
        entries.append(SurvivorEntry(k, c, last_page, tuple(steps)))
    return SurvivorReport(pres.prime, kmax, tuple(entries))
