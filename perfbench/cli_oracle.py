"""Checks for ``python -m tmfkit`` answers.

A subprocess answer must match ``cli.main`` run in this process, byte for
byte and in exit code; the exit code must be the one fixed when the request
was generated; and the JSON form of the answer must re-parse through the
``from_dict`` constructors into the value tmfkit computes in process, which
the independent checks of oracle.py then judge.
"""

import contextlib
import io
import json

import oracle
from gen import split_cli
from tmfkit import anss, cli, elliptic, modforms, moonshine, qseries
from tmfkit.exactalg import ZZ, MPoly, PolynomialRing
from tmfkit.modforms import MFPolynomial
from tmfkit.moonshine import JPolynomial
from tmfkit.qseries import QExpansion

CURVE_NAMES = ("a1", "a2", "a3", "a4", "a6")


def in_process(argv):
    """tmfkit.cli.main(argv) in this process; (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


def _qexp(ref, opts, args, result):
    N = int(opts["--precision"])
    got = QExpansion.from_dict(result["result"])
    name = args[0]
    if name in ("c4", "c6"):
        weight = 4 if name == "c4" else 6
        want, problem = qseries.eisenstein(weight, N), oracle.check_eisenstein(ref, (weight, N), got)
    elif name == "delta":
        want, problem = qseries.discriminant_qexp(N), oracle.check_discriminant(ref, ("cli", N), got)
    else:
        want, problem = qseries.j_qexp(N), oracle.check_j(ref, (N,), got)
    return problem or (None if got == want else "qexp %s JSON differs from the in-process value" % name)


def _jn(ref, opts, args, result):
    n, N = int(args[0]), int(opts["--precision"])
    got = (JPolynomial.from_dict(result["result"]["polynomial"]),
           QExpansion.from_dict(result["result"]["expansion"]))
    if got != moonshine.faber_jn(n, N):
        return "jn %d JSON differs from the in-process value" % n
    return oracle.check_faber(ref, (n, N), got)


def _hecke(ref, opts, args, result):
    n, N = int(args[0]), int(opts["--precision"])
    got = QExpansion.from_dict(result["result"])
    if got != moonshine.hecke_weight0(moonshine.j1_qexp(N), n):
        return "hecke %d JSON differs from the in-process value" % n
    return oracle.check_hecke(ref, (n, N), got)


def _member(ref, opts, args, result, extra):
    terms, member = extra
    form = MFPolynomial.from_dict(result["certificate"]["form"])
    if form != modforms.mf_normal_form(MFPolynomial(dict(terms))):
        return "tmf-member form differs from the generated form"
    if result["result"]["member"] is not member:
        return "tmf-member verdict %s, generated as %s" % (result["result"]["member"], member)
    return None


def _witten(ref, opts, args, result):
    n = int(args[0])
    if MFPolynomial.from_dict(result["result"]["form"]) != moonshine.witten_form(n):
        return "witten %d form differs from the in-process value" % n
    return None if result["result"]["member"] is True else "witten %d is not a member" % n


def _prize(ref, opts, args, result):
    N = int(opts["--precision"])
    got = QExpansion.from_dict(result["result"]["expansion"])
    if got != modforms.mf_to_qexp(moonshine.prize_form(), N):
        return "prize expansion differs from the in-process value"
    if [got.coeff(e) for e in range(N)] != ref.form({(3, 0, 0): 1, (0, 0, 1): -744}, N):
        return "prize expansion differs from the reference c4^3 - 744*Delta"
    return None if result["result"]["matches_delta_j_744"] is True else "prize identity failed"


def _genfun(ref, opts, args, result):
    N = int(args[0])
    r = result["result"]
    ok = r["ok"] is True and r["n_max"] == N and r["matches"] == list(range(1, N + 1))
    return None if ok else "genfun-check %d failed" % N


def _curve(ref, opts, args, result):
    symbols = [a for a in args if a in CURVE_NAMES]
    if symbols:
        ring = PolynomialRing(tuple(sorted(set(symbols), key=CURVE_NAMES.index)))
        values = [ring.gen(a) if a in CURVE_NAMES else ring.const(int(a)) for a in args]
    else:
        ring, values = ZZ, [int(a) for a in args]
    inv = elliptic.invariants(elliptic.make_curve(ring, *values))
    for key, value in result["result"].items():
        got = MPoly.from_dict(value) if isinstance(value, dict) else value
        if got != getattr(inv, key):
            return "curve-invariants %s differs from the in-process value" % key
    return oracle.check_invariants(ref, tuple(args), inv)


def _fgl(ref, opts, args, result):
    p, degree = int(args[0]), int(opts["--precision"])
    r = result["result"]
    # tmfkit clamps --precision to 30; requests stay at or below it, so the
    # degree must equal the requested precision
    if r["degree"] != degree or result["inputs"]["degree"] != degree:
        return "fgl-pseries %d ran to degree %s, requested %d" % (p, r["degree"], degree)
    curve = elliptic.curve_a1_a3() if p == 2 else elliptic.curve_a2_a4()
    series = elliptic.p_series(elliptic.formal_group_law(curve, degree), p, degree)
    if [MPoly.from_dict(c) for c in r["coefficients"]] != [series.known(i) for i in range(degree + 1)]:
        return "fgl-pseries %d coefficients differ from the in-process value" % p
    if p == 3 and r["v1"]["unit"] is None:
        return "fgl-pseries 3: v1 routes do not agree up to a unit"
    return oracle.check_p_series(ref, (p, degree), series)


def _survivors(ref, opts, args, result):
    which, kmax = args[0], int(args[1])
    want = anss.survivor_table(anss.E2Presentation.builtin(which), kmax).to_dict()
    if result["result"] != json.loads(json.dumps(want)):
        return "anss-survivors %s %d differs from the in-process value" % (which, kmax)
    return oracle.check_survivors(result["result"], which, kmax)


CHECKS = {
    "qexp": _qexp, "jn": _jn, "hecke": _hecke, "witten": _witten, "prize": _prize,
    "genfun-check": _genfun, "curve-invariants": _curve, "fgl-pseries": _fgl,
    "anss-survivors": _survivors,
}


def check(ref, params, answer):
    argv, extra = params
    code, out = answer
    opts, command, args = split_cli(argv)
    if (code, out) != in_process(argv):
        return "%s: subprocess answer differs from cli.main in process" % " ".join(argv)
    expected = 3 if command == "tmf-member" and not extra[1] else 0
    if code != expected:
        return "%s: exit code %d, expected %d" % (" ".join(argv), code, expected)
    if opts["--format"] != "json":
        json_argv = ("--format", "json") + tuple(argv[2:])
        code, out = in_process(json_argv)
        if code != expected:
            return "%s: JSON twin exit code %d, expected %d" % (" ".join(argv), code, expected)
    result = json.loads(out)
    if command == "tmf-member":
        return _member(ref, opts, args, result, extra)
    return CHECKS[command](ref, opts, args, result)
