"""Seeded request streams for the three workloads.

A workload is a deck of slots; each slot names a request kind and a size.
Deck i of a run is shuffled and its inputs drawn by a generator seeded from
(workload, seed, i), so one seed always yields the same request list and
every deck has the same mix of kinds and sizes.  tmfkit is not used
here: the generated inputs are plain tuples and strings.
"""

import random
from math import gcd


def _form(rng, weight, nterms):
    """A random normal-form integral form of the given weight with up to
    nterms monomials: (terms, member verdict).

    The verdict is fixed here by the divisibility rule (1 for c4^i, i > 0;
    2 for a c6 factor; 24/gcd(24, k) for a pure Delta^k), so it is known
    before tmfkit sees the form.
    """
    basis = []
    for k in range(weight // 12 + 1):
        m = weight - 12 * k
        if m % 4 == 0:
            basis.append((m // 4, 0, k))
        elif m >= 6:
            basis.append(((m - 6) // 4, 1, k))
    monos = rng.sample(basis, min(len(basis), nterms))
    member = rng.random() < 0.5
    picked = [m for m in monos if _divisor(m) > 1]
    if not picked:
        member = True
    spoiled = rng.choice(picked) if not member else None
    terms = []
    for mono in sorted(monos):
        d = _divisor(mono)
        c = d * rng.choice((-1, 1)) * rng.randint(1, 40)
        if mono == spoiled:
            c += rng.randint(1, d - 1)
        terms.append((mono, c))
    return tuple(terms), member


def _divisor(mono):
    i, j, k = mono
    if j == 1:
        return 2
    return 1 if i > 0 else 24 // gcd(24, k)


def form_text(terms):
    """Render a form in the CLI grammar, e.g. '-48*c4^3 + 24*Delta'."""
    out = []
    for (i, j, k), c in terms:
        factors = [str(abs(c))]
        for name, e in (("c4", i), ("c6", j), ("Delta", k)):
            if e == 1:
                factors.append(name)
            elif e:
                factors.append("%s^%d" % (name, e))
        body = "*".join(factors)
        if not out:
            out.append(("-" if c < 0 else "") + body)
        else:
            out.append(("- " if c < 0 else "+ ") + body)
    return " ".join(out)


def _near(rng, size):
    """A size drawn within 2% of ``size``."""
    return round(size * rng.uniform(0.98, 1.02))


# ---------------------------------------------------------------------------
# The decks.  A slot is (kind, draw) with draw(rng) -> params.  Sizes
# that set a request's cost form a fixed ladder per deck (precisions drawn
# within 2% of each rung, small integer degrees exact), so every deck carries
# the same work and whole decks give steady quantiles; the seed draws the
# order and everything else (weights, routes, forms, curves, formats).


def _eis(N):
    return "eisenstein", lambda r: (r.choice((4, 6)), _near(r, N))


def _disc(route, N):
    return "discriminant", lambda r: (route, _near(r, N))


def _jq(N):
    return "j_qexp", lambda r: (_near(r, N),)


def _faber(n, N):
    return "faber_jn", lambda r: (n, _near(r, N))


def _hecke(n, M):
    # T_n(j - 744) to output precision M needs j to precision n*M
    return "hecke", lambda r: (n, n * _near(r, M))


def _genfun(N):
    return "genfun_check", lambda r: (_near(r, N),)


def _mf(weight, prec, nterms):
    def draw(r):
        terms, member = _form(r, weight, nterms)
        return terms, weight, max(weight // 12 + 1, _near(r, prec)), member
    return "mf_roundtrip", draw


# Rungs in rising cost.  About a third of each deck sits on a plateau of
# near-equal cost around the median, and four slots on a plateau around the
# 90th percentile, so those quantiles do not jump between rungs.
MODULAR = (
    [_eis(N) for N in (300, 600, 1000)]
    + [_disc(route, N) for route, N in (("eisenstein", 100), ("eta", 100), ("eta", 300))]
    + [_jq(N) for N in (60, 150)]
    + [_faber(n, N) for n, N in ((3, 40), (6, 50), (10, 60))]
    + [_hecke(3, 30), _genfun(10), _mf(24, 60, 2)]
    # median plateau, about 0.03 s each on a 2-vCPU VM
    + 2 * [_disc("eisenstein", 300), _faber(18, 70), _genfun(20), _hecke(8, 30), _disc("eta", 500), _jq(250)]
    + [_faber(n, N) for n, N in ((22, 80), (26, 90), (30, 100))]
    + [_hecke(10, 40), _genfun(30), _genfun(40), _disc("eisenstein", 700), _jq(500)]
    + [_mf(48, 120, 3), _mf(72, 200, 4)]
    # 90th-percentile plateau, then the tail
    + 4 * [_jq(700)]
    + [_jq(900), _genfun(60)]
)


def _pser(p, degree):
    return "p_series", lambda r: (p, degree)


def _nser(curve_p, degree):
    return "n_series", lambda r: (curve_p, degree)


def _v1(p):
    return "v1_check", lambda r: (p,)


def _inv(generic):
    if generic:
        return "invariants", lambda r: ("generic",)
    return "invariants", lambda r: tuple(r.randint(-9, 9) for _ in range(5))


def _assoc(curve, degree):
    return "verify_associative", lambda r: (curve, degree)


FORMAL_GROUP = (
    [_inv(generic) for generic in (True, False, False)]
    + [_v1(3), _v1(5), _pser(2, 5), _pser(3, 6)]
    + [_assoc(curve, d) for curve, d in (("a2a4", 6), ("generic", 4), ("a1a3", 5))]
    # median plateau, about 0.03 s each on a 2-vCPU VM
    + 3 * [_pser(3, 12)] + 2 * [_nser(2, 6), _nser(3, 8), _assoc("a1a3", 6)] + [_v1(7)]
    + [_pser(2, 8), _pser(3, 15), _pser(2, 10), _pser(2, 12), _nser(2, 10), _pser(3, 18), _pser(2, 14)]
    # 90th-percentile plateau, then the tail
    + 2 * [_pser(3, 24), _pser(2, 16)]
    + [_pser(2, 20)]
)


def _cli_slots():
    """Each subcommand twice per deck, once per output format; a slot draws
    (argv, extra) where extra carries what the oracle must know in advance."""

    def qexp(r):
        return ["--precision", str(_near(r, 120)), "qexp", r.choice(("c4", "c6", "delta", "j"))], None

    def jn(r):
        return ["--precision", str(_near(r, 40)), "jn", str(r.randint(1, 8))], None

    def hecke(r):
        n = r.randint(2, 6)
        return ["--precision", str(n * _near(r, 20)), "hecke", str(n)], None

    def member(r):
        terms, verdict = _form(r, r.randrange(12, 49, 2), 3)
        # "--" keeps an expression with a leading minus from reading as an option
        return ["tmf-member", "--", form_text(terms)], (terms, verdict)

    def witten(r):
        return ["witten", str(r.randint(1, 6))], None

    def prize(r):
        return ["--precision", str(_near(r, 40)), "prize"], None

    def genfun(r):
        return ["genfun-check", str(_near(r, 15))], None

    def curve(r):
        names = ("a1", "a2", "a3", "a4", "a6")
        return ["curve-invariants"] + [n if r.random() < 0.3 else str(r.randint(-9, 9)) for n in names], None

    def fgl(p, degree):
        return lambda r: (["--precision", str(degree), "fgl-pseries", p], None)

    def survivors(which, kmax):
        return lambda r: (["anss-survivors", which, str(_near(r, kmax))], None)

    def slot(build, fmt):
        def draw(r):
            argv, extra = build(r)
            return ("--format", fmt) + tuple(argv), extra
        return "cli", draw

    builders = (qexp, jn, hecke, member, witten, prize, genfun, curve)
    return (
        [slot(b, fmt) for b in builders for fmt in ("text", "json")]
        + [slot(fgl(p, d), fmt) for fmt, p, d in (("text", "2", 8), ("json", "3", 10))]
        + [slot(survivors(which, k), fmt) for fmt, which, k in (("text", "p2", 200), ("json", "p3", 300))]
    )


CLI = _cli_slots()
DECKS = {"modular": MODULAR, "formal-group": FORMAL_GROUP, "cli": CLI}


def split_cli(argv):
    """(options, command, positional arguments) of a generated tmfkit argv."""
    opts = {}
    i = 0
    while argv[i].startswith("--"):
        opts[argv[i]] = argv[i + 1]
        i += 2
    return opts, argv[i], argv[i + 1:]


def requests(workload, seed):
    """Endless stream of (kind, params) requests for a workload and seed."""
    deck = DECKS[workload]
    i = 0
    while True:
        rng = random.Random("%s:%d:%d" % (workload, seed, i))
        order = list(range(len(deck)))
        rng.shuffle(order)
        for slot in order:
            kind, draw = deck[slot]
            yield kind, draw(rng)
        i += 1
