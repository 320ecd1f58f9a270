"""Command-line front end.

Each subcommand imports its own domain module when it runs, so a start-up
loads only the layer that command needs.

Exit codes: 0 success, 1 usage error (including a size above a documented
cap), 2 computation error (precision, non-integrality, bad presentation),
3 negative mathematical verdict (non-member, failed identity check), 4
internal error (two independent routes disagree or an internal invariant
broke: a bug in tmfkit, not in the input).
"""

import argparse
import sys

from .exactalg import ExpressionError, InternalError, parse_expression

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_COMPUTE = 2
EXIT_NEGATIVE = 3
EXIT_INTERNAL = 4

DEFAULT_PRECISION = 50
# largest fgl-pseries degree, which is also its default.  Seconds for the
# command's work in process (group law, p-series by both routes, and for
# p = 3 the v1 check), best of three, median of five alternating processes,
# CPython 3.11 on a 2-vCPU VM, before and after the packed compose; as a
# subprocess, degree 30 takes 0.88 -> 0.37 s (p = 2) and 0.32 -> 0.22 s
# (p = 3):
#
#    curve, p     degree 30        degree 40
#    a1a3,  2    0.85 -> 0.28     2.94 -> 0.98
#    a2a4,  3    0.22 -> 0.13     0.73 -> 0.31
#
# Degree 40 now costs about what degree 30 did; raising the cap would also
# change the default output, so it stays at 30.
FGL_MAX_DEGREE = 30
# largest genfun-check N: N = 250 takes about 4.5 s as a subprocess on a
# 2-vCPU VM (median of three, 4.2-4.7 s), nearly all of it the N - 1 products
# j^k * j on integers of up to 2,700 bits; the forward substitution for the
# constants is O(N^2) and takes about 0.05 s of it
GENFUN_MAX_N = 250


class UsageError(Exception):
    pass


class CliParser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def parse_form(text):
    """An integer form in c4, c6 and Delta, read by ``parse_expression``."""
    from .modforms import C4, C6, DELTA, HomogeneityError, MFPolynomial

    try:
        form = parse_expression(text, {"c4": C4, "c6": C6, "Delta": DELTA},
                                lambda n: MFPolynomial.monomial(0, 0, 0, n))
    except ExpressionError as exc:
        raise UsageError("form expression, column %d: %s" % (exc.column, exc)) from None
    if not form.is_homogeneous() or (form.weight is None and form.terms):
        raise HomogeneityError("form expression mixes weights: %s" % form)
    return form


# ---------------------------------------------------------------------------
# output helpers


def emit(args, command, inputs, result, certificate=None):
    if args.format == "json":
        import json

        payload = {"command": command, "inputs": inputs, "result": result}
        if certificate is not None:
            payload["certificate"] = certificate
        print(json.dumps(payload, sort_keys=True))
    return EXIT_OK


def text_lines(*lines):
    for line in lines:
        print(line)


# ---------------------------------------------------------------------------
# subcommands


def cmd_qexp(args):
    from . import qseries

    name = args.series
    N = args.precision
    series = {
        "c4": lambda: qseries.eisenstein(4, N),
        "c6": lambda: qseries.eisenstein(6, N),
        "delta": lambda: qseries.discriminant_qexp(N),
        "j": lambda: qseries.j_qexp(N),
    }[name]()
    if args.format == "text":
        text_lines(str(series))
        return EXIT_OK
    return emit(args, "qexp", {"series": name, "precision": N}, series.to_dict())


def cmd_jn(args):
    from . import moonshine

    poly, expansion = moonshine.faber_jn(args.n, args.precision)
    if args.format == "text":
        text_lines(str(poly), "q-expansion: %s" % expansion)
        return EXIT_OK
    return emit(
        args,
        "jn",
        {"n": args.n, "precision": args.precision},
        {"polynomial": poly.to_dict(), "expansion": expansion.to_dict()},
    )


def cmd_hecke(args):
    from . import moonshine

    j1 = moonshine.j1_qexp(args.precision)
    image = moonshine.hecke_weight0(j1, args.n)
    if args.format == "text":
        text_lines(str(image))
        return EXIT_OK
    return emit(args, "hecke", {"n": args.n, "precision": args.precision}, image.to_dict())


def cmd_tmf_member(args):
    from . import modforms

    form = parse_form(args.expression)
    cert = modforms.tmf_image_test(form)
    if args.format == "text":
        text_lines("form: %s  (weight %s)" % (cert.form, cert.form.weight), str(cert))
    else:
        emit(
            args,
            "tmf-member",
            {"expression": args.expression},
            {"member": cert.is_member},
            cert.to_dict(),
        )
    return EXIT_OK if cert.is_member else EXIT_NEGATIVE


def cmd_witten(args):
    from . import moonshine

    form = moonshine.witten_form(args.n)
    cert = moonshine.witten_generalized(args.n)
    if args.format == "text":
        text_lines("Delta^%d * j_%d = %s" % (args.n, args.n, form), str(cert))
    else:
        emit(
            args,
            "witten",
            {"n": args.n},
            {"form": form.to_dict(), "member": cert.is_member},
            cert.to_dict(),
        )
    return EXIT_OK if cert.is_member else EXIT_NEGATIVE


def cmd_prize(args):
    from . import modforms, moonshine, qseries

    N = args.precision
    form = moonshine.prize_form()
    lhs = modforms.mf_to_qexp(form, N)
    delta = qseries.discriminant_qexp(N + 2)
    j1 = moonshine.j1_qexp(N + 2)
    rhs = (delta * j1).truncate(N)
    expansions_equal = lhs.agrees_with(rhs, N)
    witness = 744 == 31 * 24
    cert = modforms.tmf_image_test(form)
    a0, weight = modforms.bo_constant_term(form)
    ok = expansions_equal and witness and cert.is_member and a0 == 1
    if args.format == "text":
        text_lines(
            "form: %s  (weight %d)" % (form, weight),
            "expansion: %s" % lhs,
            "matches Delta*(j - 744): %s" % expansions_equal,
            "witness: 744 = 31*24 = %d" % (31 * 24),
            "constant term (A-hat): %d at weight %d" % (a0, weight),
            str(cert),
        )
    else:
        emit(
            args,
            "prize",
            {"precision": N},
            {
                "form": form.to_dict(),
                "expansion": lhs.to_dict(),
                "matches_delta_j_744": expansions_equal,
                "witness_744_is_31_times_24": witness,
                "constant_term": a0,
                "weight": weight,
            },
            cert.to_dict(),
        )
    return EXIT_OK if ok else EXIT_NEGATIVE


def cmd_genfun_check(args):
    if args.N > GENFUN_MAX_N:
        raise UsageError("genfun-check N is capped at %d, got %d" % (GENFUN_MAX_N, args.N))
    from . import moonshine

    report = moonshine.genfun_check(args.N)
    if args.format == "text":
        text_lines(
            "series identity c6/c4 = -q(dj/dq)/j: %s" % report.series_match,
            "global sign: %+d" % report.sign,
            "coefficients matching j_n(omega) for n <= %d: %d of %d"
            % (report.n_max, len(report.matches), report.n_max),
        )
        for miss in report.mismatches:
            text_lines("mismatch at n = %(n)d: coefficient %(coefficient)d, expected %(expected)d" % miss)
    else:
        emit(args, "genfun-check", {"N": args.N}, report.to_dict())
    return EXIT_OK if report.ok else EXIT_NEGATIVE


def cmd_curve_invariants(args):
    from . import elliptic

    values = [args.a1, args.a2, args.a3, args.a4, args.a6]
    names = ("a1", "a2", "a3", "a4", "a6")
    symbols = []
    parsed = []
    for name, raw in zip(names, values):
        try:
            parsed.append(int(raw))
        except ValueError:
            if raw not in names:
                raise UsageError("curve coefficient must be an integer or one of %s" % (names,))
            parsed.append(raw)
            symbols.append(raw)
    if symbols:
        from .exactalg import PolynomialRing

        ring = PolynomialRing(tuple(sorted(set(symbols), key=names.index)))
        coeffs = [ring.gen(v) if isinstance(v, str) else ring.const(v) for v in parsed]
    else:
        from .exactalg import ZZ as ring_mod

        ring = ring_mod
        coeffs = parsed
    curve = elliptic.WeierstrassCurve(ring, *[ring.coerce(c) for c in coeffs])
    inv = elliptic.invariants(curve)
    if args.format == "text":
        text_lines("curve: %s" % curve)
        for k in ("b2", "b4", "b6", "b8", "c4", "c6", "delta"):
            text_lines("%-5s = %s" % (k, getattr(inv, k)))
        text_lines("identities c4^3 - c6^2 = 1728*delta and 4*b8 = b2*b6 - b4^2: verified")
    else:
        emit(args, "curve-invariants", dict(zip(names, values)), inv.to_dict())
    return EXIT_OK


def cmd_fgl_pseries(args):
    p = args.p
    if p not in (2, 3):
        raise UsageError("p must be 2 or 3")
    degree = args.precision
    if degree > FGL_MAX_DEGREE:
        raise UsageError(
            "fgl-pseries degree is capped at %d, got --precision %d" % (FGL_MAX_DEGREE, degree)
        )
    from . import elliptic

    curve = elliptic.curve_a2_a4() if p == 3 else elliptic.curve_a1_a3()
    fgl = elliptic.formal_group_law(curve, degree)
    series = elliptic.p_series(fgl, p, degree)
    coeffs = [series.known(i) for i in range(degree + 1)]
    report = None
    if p % 2:
        report = elliptic.v1_check(curve, p, series=series if degree >= p else None)
    if args.format == "text":
        text_lines("curve: %s" % curve, "[%d](z) to degree %d:" % (p, degree))
        for i, c in enumerate(coeffs):
            if not curve.ring.is_zero(c):
                text_lines("  z^%-3d %s" % (i, c))
        text_lines("independent log/exp route agrees: yes")
        if report is not None:
            text_lines(
                "Hasse invariant: %s; z^%d coefficient mod %d: %s (unit %s)"
                % (report.hasse, p, p, report.pseries_coeff, report.unit)
            )
            disc = elliptic.a2a4_delta_discrepancy()
            text_lines(
                "discriminant note: general formula gives %s; the shortcut "
                "a2^2*b4^2 - 16*b4^3 gives %s (difference %s)"
                % (disc.general, disc.shortcut, disc.difference)
            )
    else:
        result = {
            "p": p,
            "curve": str(curve),
            "degree": degree,
            "coefficients": [c.to_dict() for c in coeffs],
            "routes_agree": True,  # p_series raises if the two routes disagree
        }
        if report is not None:
            result["v1"] = report.to_dict()
            result["delta_shortcut_discrepancy"] = elliptic.a2a4_delta_discrepancy().to_dict()
        emit(args, "fgl-pseries", {"p": p, "degree": degree}, result)
    return EXIT_OK


def cmd_anss_survivors(args):
    from . import anss

    if args.presentation:
        pres = anss.E2Presentation.from_file(args.presentation)
    else:
        pres = anss.E2Presentation.builtin(args.which)
    report = anss.survivor_table(pres, args.kmax)
    if args.format == "text":
        text_lines("prime %d, minimal surviving multiple of Delta^k:" % report.prime)
        text_lines("%4s %6s %10s  %s" % ("k", "c(k)", "last page", "differentials"))
        for entry in report.entries:
            notes = "; ".join(
                "d%d(%d*Delta^%d) = %s%s"
                % (
                    s.page,
                    s.entering_multiple,
                    entry.k,
                    s.target,
                    "" if s.vanishes else " -> needs %d" % s.required_multiple,
                )
                for s in entry.steps
            )
            text_lines(
                "%4d %6d %10s  %s"
                % (entry.k, entry.multiplier, entry.last_page or "-", notes)
            )
    else:
        emit(args, "anss-survivors", {"presentation": args.which, "kmax": args.kmax}, report.to_dict())
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser():
    # options accepted both before and after the subcommand; SUPPRESS keeps a
    # subparser from clobbering a value parsed at the top level
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--precision", type=int, default=argparse.SUPPRESS, metavar="N",
                        help="series precision / truncation degree (default %d; fgl-pseries: "
                             "%d, also its cap)" % (DEFAULT_PRECISION, FGL_MAX_DEGREE))
    common.add_argument("--format", choices=("text", "json"), default=argparse.SUPPRESS)
    common.add_argument("--presentation", metavar="FILE", default=argparse.SUPPRESS,
                        help="override the built-in E2 presentation file")

    parser = CliParser(prog="tmfkit", parents=[common],
                       description="exact computations around modular forms and tmf")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("qexp", parents=[common], help="print a classical q-expansion")
    p.add_argument("series", choices=("c4", "c6", "delta", "j"))
    p.set_defaults(func=cmd_qexp)

    p = sub.add_parser("jn", parents=[common], help="Faber polynomial j_n and its expansion")
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_jn)

    p = sub.add_parser("hecke", parents=[common], help="weight-zero Hecke operator applied to j - 744")
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_hecke)

    p = sub.add_parser("tmf-member", parents=[common],
                       help="divisibility certificate for a form in c4, c6, Delta")
    p.add_argument("expression")
    p.set_defaults(func=cmd_tmf_member)

    p = sub.add_parser("witten", parents=[common], help="certificate for Delta^n * j_n")
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_witten)

    p = sub.add_parser("prize", parents=[common],
                       help="verify c4^3 - 744*Delta = Delta*(j-744) and its membership")
    p.set_defaults(func=cmd_prize)

    p = sub.add_parser("genfun-check", parents=[common],
                       help="cross-check c6/c4 = -q(dj/dq)/j against the j_n constant terms "
                            "(N at most %d)" % GENFUN_MAX_N)
    p.add_argument("N", type=int, help="largest n checked, at most %d" % GENFUN_MAX_N)
    p.set_defaults(func=cmd_genfun_check)

    p = sub.add_parser("curve-invariants", parents=[common],
                       help="b2 b4 b6 b8 c4 c6 delta of a Weierstrass curve")
    for name in ("a1", "a2", "a3", "a4", "a6"):
        p.add_argument(name)
    p.set_defaults(func=cmd_curve_invariants)

    p = sub.add_parser("fgl-pseries", parents=[common],
                       help="p-series of the formal group law of the p-typical special curve")
    p.add_argument("p", type=int)
    p.set_defaults(func=cmd_fgl_pseries, default_precision=FGL_MAX_DEGREE)

    p = sub.add_parser("anss-survivors", parents=[common],
                       help="minimal surviving multiples of Delta powers")
    p.add_argument("which", choices=("p2", "p3"))
    p.add_argument("kmax", type=int)
    p.set_defaults(func=cmd_anss_survivors)

    return parser


# options that take a value, before or after the subcommand
_VALUE_OPTIONS = ("--precision", "--format", "--presentation")


def _expression_last(argv):
    """``tmf-member -24*Delta ...`` as ``tmf-member ... -- -24*Delta``.

    argparse reads a word that starts with "-" and is not a number as an
    unknown option; an expression that starts with a minus sign goes after
    "--" instead, which is where the user could have put it.  Other commands,
    and argument lists that already hold "--", are returned unchanged.
    """
    def skip(i):  # index after the option (and its value) at i
        word = argv[i]
        takes_value = "=" not in word and len(word) > 2 and any(o.startswith(word) for o in _VALUE_OPTIONS)
        return i + 2 if takes_value else i + 1

    i = 0
    while i < len(argv) and argv[i].startswith("-") and argv[i] != "--":
        i = skip(i)
    if i >= len(argv) or argv[i] != "tmf-member" or "--" in argv:
        return argv
    i += 1
    while i < len(argv):
        word = argv[i]
        if len(word) > 1 and word[0] == "-" and word[1] in "0123456789(cD":
            return argv[:i] + argv[i + 1:] + ["--", word]
        i = skip(i) if word.startswith("-") else i + 1
    return argv


def main(argv=None):
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(_expression_last(argv))
        # a subcommand may declare its own default precision (fgl-pseries: its cap)
        default = getattr(args, "default_precision", DEFAULT_PRECISION)
        args.precision = getattr(args, "precision", default)
        args.format = getattr(args, "format", "text")
        args.presentation = getattr(args, "presentation", None)
        if not getattr(args, "command", None):
            parser.print_help()
            return EXIT_USAGE
        if args.precision < 1:
            raise UsageError("--precision must be >= 1")
        return args.func(args)
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except InternalError as exc:
        print("internal error: %s" % exc, file=sys.stderr)
        return EXIT_INTERNAL
    # every domain error (PrecisionError, ExactnessError, DecompositionError,
    # HomogeneityError, anss.PresentationError) subclasses one of these two
    except (ValueError, ArithmeticError) as exc:
        print("computation error: %s" % exc, file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
