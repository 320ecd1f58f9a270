import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmfkit import anss, cli, elliptic, modforms, moonshine, qseries
from tmfkit.exactalg import (
    ExactnessError, ExpressionError, InternalError, MPoly, PrecisionError, parse_expression,
)
from tmfkit.modforms import MFPolynomial
from tmfkit.moonshine import JPolynomial
from tmfkit.qseries import QExpansion


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_jn_text_output(capsys):
    code, out, _ = run(capsys, "jn", "2", "--precision", "5")
    assert code == 0
    assert out.splitlines()[0] == "j^2 - 1488*j + 159768"
    code, out, _ = run(capsys, "jn", "3", "--precision", "5")
    assert out.splitlines()[0] == "j^3 - 2232*j^2 + 1069956*j - 36866976"


def test_jn_json_round_trip(capsys):
    code, out, _ = run(capsys, "--format", "json", "jn", "2", "--precision", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "jn"
    poly = JPolynomial.from_dict(payload["result"]["polynomial"])
    exp = QExpansion.from_dict(payload["result"]["expansion"])
    want_poly, want_exp = moonshine.faber_jn(2, 6)
    assert poly == want_poly and exp == want_exp


def test_qexp_json_round_trip(capsys):
    code, out, _ = run(capsys, "--format", "json", "qexp", "delta", "--precision", "12")
    assert code == 0
    payload = json.loads(out)
    assert QExpansion.from_dict(payload["result"]) == qseries.discriminant_qexp(12)


def test_tmf_member_exit_codes(capsys):
    code, out, _ = run(capsys, "tmf-member", "Delta")
    assert code == 3 and "requires 24" in out and "non-member" in out
    code, out, _ = run(capsys, "tmf-member", "24*Delta")
    assert code == 0 and "member" in out
    assert run(capsys, "tmf-member", "c4^3 - 744*Delta")[0] == 0
    assert run(capsys, "tmf-member", "c6")[0] == 3
    assert run(capsys, "tmf-member", "2*c6")[0] == 0
    assert run(capsys, "tmf-member", "c4")[0] == 0


def test_tmf_member_json_certificate(capsys):
    code, out, _ = run(capsys, "--format", "json", "tmf-member", "24*Delta - 48*c4^3")
    assert code == 0
    payload = json.loads(out)
    cert = payload["certificate"]
    assert payload["result"]["member"] is True
    form = MFPolynomial.from_dict(cert["form"])
    assert form == 24 * modforms.DELTA - 48 * modforms.C4 ** 3


def test_tmf_member_error_classes(capsys):
    code, _, err = run(capsys, "tmf-member", "c4 +")
    assert code == 1 and "usage error" in err
    code, _, err = run(capsys, "tmf-member", "c4 + c6")
    assert code == 2 and "computation error" in err
    code, _, err = run(capsys, "tmf-member", "q5")
    assert code == 1


def test_tmf_member_reads_the_shared_grammar(capsys):
    # juxtaposition multiplies, and a leading "+" is accepted
    want = run(capsys, "tmf-member", "c4^3 - 744*Delta")
    assert want[0] == 0
    assert run(capsys, "tmf-member", "c4 c4^2 - 744 Delta") == want
    assert run(capsys, "tmf-member", "+c4^3 - 744*Delta") == want
    assert run(capsys, "tmf-member", "c4 c6")[0] == 3


_WORDS = ("c4", "c6", "Delta", "x", "0", "2", "24", "+", "-", "*", "^", "(", ")", "/", ".")


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(_WORDS), max_size=7), st.sampled_from(("", " ")))
def test_every_expression_error_exits_one(words, sep):
    text = sep.join(words)
    symbols = {"c4": modforms.C4, "c6": modforms.C6, "Delta": modforms.DELTA}
    try:
        parse_expression(text, symbols, lambda n: MFPolynomial.monomial(0, 0, 0, n))
        malformed = False
    except ExpressionError:
        malformed = True
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = cli.main(["tmf-member", "--", text])
    assert (code == 1) == malformed, text
    assert err.getvalue().startswith("usage error: form expression, column") == malformed, text


def test_witten_command(capsys):
    code, out, _ = run(capsys, "witten", "2")
    assert code == 0 and "member" in out
    code, out, _ = run(capsys, "--format", "json", "witten", "1")
    payload = json.loads(out)
    assert payload["result"]["member"] is True
    assert MFPolynomial.from_dict(payload["result"]["form"]) == moonshine.prize_form()


def test_prize_command(capsys):
    code, out, _ = run(capsys, "prize", "--precision", "12")
    assert code == 0
    assert "744 = 31*24" in out
    assert "matches Delta*(j - 744): True" in out
    code, out, _ = run(capsys, "--format", "json", "prize", "--precision", "10")
    payload = json.loads(out)
    assert payload["result"]["matches_delta_j_744"] is True
    assert payload["result"]["constant_term"] == 1


def test_genfun_check_command(capsys):
    code, out, _ = run(capsys, "genfun-check", "8")
    assert code == 0 and "global sign: +1" in out


def test_genfun_check_cap_is_rejected_before_series_work(capsys, monkeypatch):
    def no_series(*args):
        raise AssertionError("series work started")

    for name in ("eisenstein", "j_qexp"):
        monkeypatch.setattr(qseries, name, no_series)
    monkeypatch.setattr(moonshine, "genfun_check", no_series)
    for argv in (
        ["genfun-check", str(cli.GENFUN_MAX_N + 1)],
        ["--format", "json", "genfun-check", "100000"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert "capped at %d" % cli.GENFUN_MAX_N in err


def test_route_disagreement_is_an_internal_error(capsys, monkeypatch):
    # sabotage the log/exp route of the p-series: the routes disagree, which
    # is a bug (exit 4), not a computation error on the user's input (exit 2)
    to_integral = elliptic._to_integral

    def off_by_one(series, ring):
        good = to_integral(series, ring)
        return good + good.shift(2).truncate(good.prec)

    monkeypatch.setattr(elliptic, "_to_integral", off_by_one)
    code, out, err = run(capsys, "fgl-pseries", "3", "--precision", "6")
    assert code == cli.EXIT_INTERNAL == 4 and out == ""
    assert err.startswith("internal error: p-series routes disagree")


def test_bug_errors_are_internal_errors(capsys, monkeypatch):
    def broken(*args):
        raise InternalError("w-series iteration failed to stabilize (bug)")

    monkeypatch.setattr(elliptic, "weierstrass_w", broken)
    code, _, err = run(capsys, "fgl-pseries", "2", "--precision", "5")
    assert code == 4 and err.startswith("internal error:")
    # a computation error on the input keeps its own code
    code, _, err = run(capsys, "genfun-check", "0")
    assert code == 2 and err.startswith("computation error:")


@pytest.mark.parametrize("error, code, prefix", [
    (PrecisionError, 2, "computation error"),
    (ExactnessError, 2, "computation error"),
    (modforms.DecompositionError, 2, "computation error"),
    (modforms.HomogeneityError, 2, "computation error"),
    (anss.PresentationError, 2, "computation error"),
    (InternalError, 4, "internal error"),
    (elliptic.RouteDisagreementError, 4, "internal error"),
], ids=lambda x: x.__name__ if isinstance(x, type) else None)
def test_domain_errors_keep_their_exit_codes(capsys, monkeypatch, error, code, prefix):
    def fail(args):
        raise error("planted")

    monkeypatch.setattr(cli, "cmd_jn", fail)
    assert run(capsys, "jn", "2") == (code, "", "%s: planted\n" % prefix)


def test_hecke_command(capsys):
    code, out, _ = run(capsys, "--format", "json", "hecke", "2", "--precision", "61")
    assert code == 0
    exp = QExpansion.from_dict(json.loads(out)["result"])
    assert exp.val == -2 and exp.coeff(1) == 42987520


def test_curve_invariants_symbolic(capsys):
    code, out, _ = run(capsys, "curve-invariants", "a1", "0", "a3", "0", "0")
    assert code == 0
    assert "delta = a1^3*a3^3 - 27*a3^4" in out


def test_curve_invariants_integer_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "curve-invariants", "0", "-1", "1", "0", "1")
    assert code == 0
    result = json.loads(out)["result"]
    inv = elliptic.invariants(elliptic.integer_curve(0, -1, 1, 0, 1))
    assert result["delta"] == inv.delta


def test_curve_invariants_symbolic_json_round_trip(capsys):
    code, out, _ = run(capsys, "--format", "json", "curve-invariants", "a1", "0", "a3", "0", "0")
    assert code == 0
    result = json.loads(out)["result"]
    inv = elliptic.invariants(elliptic.curve_a1_a3())
    assert MPoly.from_dict(result["delta"]) == inv.delta
    assert MPoly.from_dict(result["b4"]) == inv.b4


def test_fgl_pseries_command(capsys):
    code, out, _ = run(capsys, "fgl-pseries", "3", "--precision", "8")
    assert code == 0
    assert "Hasse invariant: a2" in out
    assert "unit 1" in out
    assert "discriminant note" in out
    code, out, _ = run(capsys, "--format", "json", "fgl-pseries", "2", "--precision", "6")
    payload = json.loads(out)
    assert payload["result"]["routes_agree"] is True
    curve = elliptic.curve_a1_a3()
    assert MPoly.from_dict(payload["result"]["coefficients"][1]) == curve.ring.const(2)


def test_fgl_pseries_computes_one_p_series(capsys, monkeypatch):
    # the v1 report reads the z^p coefficient of the p-series printed above it
    calls = []
    p_series = elliptic.p_series
    monkeypatch.setattr(elliptic, "p_series", lambda *args: calls.append(args) or p_series(*args))
    assert run(capsys, "fgl-pseries", "3", "--precision", "8")[0] == 0
    assert len(calls) == 1
    # below degree p the v1 report computes its own
    code, out, _ = run(capsys, "fgl-pseries", "3", "--precision", "2")
    assert code == 0 and len(calls) == 3 and "Hasse invariant: a2" in out


def test_fgl_pseries_degree_cap(capsys):
    for argv in (
        ["--format", "json", "fgl-pseries", "2", "--precision", "40"],
        ["--precision", "31", "fgl-pseries", "3"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert "capped at 30" in err


def test_fgl_pseries_default_degree_is_the_cap(capsys):
    code, out, _ = run(capsys, "--format", "json", "fgl-pseries", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["inputs"]["degree"] == payload["result"]["degree"] == 30
    assert len(payload["result"]["coefficients"]) == 31


def test_tmf_member_leading_minus_after_double_dash(capsys):
    code, out, _ = run(capsys, "--format", "json", "tmf-member", "--", "-24*Delta")
    assert code == 0
    payload = json.loads(out)
    assert payload["inputs"]["expression"] == "-24*Delta"
    assert payload["result"]["member"] is True
    # without "--" the expression is still read as the expression
    assert run(capsys, "--format", "json", "tmf-member", "-24*Delta") == (code, out, "")


def test_tmf_member_leading_minus_without_double_dash(capsys):
    for fmt in ("text", "json"):
        want = run(capsys, "--format", fmt, "tmf-member", "--", "-24*Delta")
        assert want[0] == 0
        assert run(capsys, "--format", fmt, "tmf-member", "-24*Delta") == want
        assert run(capsys, "tmf-member", "-24*Delta", "--format", fmt) == want
        assert run(capsys, "tmf-member", "--format", fmt, "-24*Delta") == want
    # a non-member with a leading minus keeps its exit code 3
    assert run(capsys, "tmf-member", "-Delta")[0] == 3
    # options are still options, and other commands parse as before
    assert run(capsys, "tmf-member", "-x")[0] == 1
    assert run(capsys, "jn", "-3")[0] == run(capsys, "jn", "--", "-3")[0]


def test_anss_survivors_command(capsys):
    code, out, _ = run(capsys, "--format", "json", "anss-survivors", "p2", "8")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["multipliers"] == [8, 4, 8, 2, 8, 4, 8, 1]
    # the rendered differential targets re-parse to the same normal form
    from tmfkit import anss

    pres = anss.E2Presentation.builtin("tmf-p2")
    target = payload["result"]["entries"][0]["steps"][0]["differential"]
    assert pres.format_class(anss.normal_form(pres, target)) == target
    code, out, _ = run(capsys, "anss-survivors", "p3", "3")
    assert code == 0 and "3" in out


def test_anss_presentation_override(tmp_path, capsys):
    custom = tmp_path / "tiny.txt"
    custom.write_text(
        "prime 3\n"
        "gen y stem=3 filt=5 order=3\n"
        "gen Delta stem=4 filt=0 order=inf invertible\n"
        "d 5 Delta -> y\n"
    )
    code, out, _ = run(capsys, "--format", "json", "anss-survivors", "p3", "2",
                       "--presentation", str(custom))
    assert code == 0
    assert json.loads(out)["result"]["multipliers"] == [3, 3]

    bad = tmp_path / "bad.txt"
    bad.write_text(
        "prime 3\n"
        "gen x stem=3 filt=1 order=3\n"
        "gen Delta stem=4 filt=0 order=inf invertible\n"
        "d 5 Delta x^2 -> x^3 Delta\n"  # violates the page-5 bidegree shift
    )
    code, _, err = run(capsys, "anss-survivors", "p3", "2", "--presentation", str(bad))
    assert code == 2 and "computation error" in err

    broken = tmp_path / "broken.txt"
    broken.write_text("prime 3\ngen a stem=3 filt=1 order=3\nrel a^2 0\n")  # no "->"
    code, _, err = run(capsys, "anss-survivors", "p3", "2", "--presentation", str(broken))
    assert code == 2 and err.startswith("computation error: line 3")

    broken.write_text("prime 3\ngen a stem=x filt=1 order=3\n")
    code, _, err = run(capsys, "anss-survivors", "p3", "2", "--presentation", str(broken))
    assert code == 2
    assert err == "computation error: line 2: generator attribute stem='x' is not an integer\n"


def test_usage_errors(capsys):
    assert run(capsys, "nonsense")[0] == 1
    assert run(capsys)[0] == 1
    assert run(capsys, "qexp", "c4", "--precision", "0")[0] == 1
    assert run(capsys, "fgl-pseries", "5")[0] == 1


def test_json_payload_schema(capsys):
    for argv in (
        ["--format", "json", "qexp", "c4", "--precision", "6"],
        ["--format", "json", "witten", "1"],
        ["--format", "json", "anss-survivors", "p3", "2"],
    ):
        _, out, _ = run(capsys, *argv)
        payload = json.loads(out)
        assert set(payload) <= {"command", "inputs", "result", "certificate"}
        assert {"command", "inputs", "result"} <= set(payload)


def test_module_runner(capsys):
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "tmfkit", "jn", "2", "--precision", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "j^2 - 1488*j + 159768"


def test_determinism(capsys):
    first = run(capsys, "--format", "json", "anss-survivors", "p2", "6")
    second = run(capsys, "--format", "json", "anss-survivors", "p2", "6")
    assert first == second
    a = run(capsys, "--format", "json", "qexp", "j", "--precision", "20")
    b = run(capsys, "--format", "json", "qexp", "j", "--precision", "20")
    assert a == b
