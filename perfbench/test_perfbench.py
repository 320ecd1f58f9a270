"""Tests of the benchmark itself: tiny smoke runs of every workload, oracles
that must flag a corrupted answer, and the tracer's bookkeeping.

    python3 -m pytest perfbench
"""

import json
import random
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import cli_oracle  # noqa: E402
import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from tmfkit import elliptic, exactalg, modforms, moonshine, qseries  # noqa: E402
from tmfkit.exactalg import MPoly, TruncSeries  # noqa: E402
from tmfkit.modforms import MFPolynomial  # noqa: E402
from tmfkit.qseries import QExpansion  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


# One slot of every request kind at small sizes, so a smoke run completes
# whole decks in a few seconds; the CLI deck is small already.
TINY_DECKS = {
    "modular": [gen._eis(40), gen._disc("eisenstein", 20), gen._disc("eta", 20), gen._jq(20),
                gen._faber(3, 10), gen._hecke(3, 4), gen._genfun(6), gen._mf(24, 10, 2), gen._mf(48, 12, 3)],
    "formal-group": [gen._inv(True), gen._inv(False), gen._v1(3), gen._pser(2, 3), gen._pser(3, 3),
                     gen._nser(2, 3), gen._assoc("a1a3", 3)],
    "cli": gen.CLI,
}


def _run(capsys, monkeypatch, workload, *argv):
    monkeypatch.setitem(gen.DECKS, workload, TINY_DECKS[workload])
    assert run.main(["--workload", workload, "--seed", "3"] + list(argv)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


# ---------------------------------------------------------------------------
# smoke runs


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_end_to_end(capsys, monkeypatch, workload):
    lines, result = _run(capsys, monkeypatch, workload, "--seconds", "0.6")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    printed = {line.split()[1]: line.split()[3] for line in lines if line.startswith("metric ")}
    assert printed == dict(want, failed_ratio="ratio")
    assert any(line.startswith("metric failed_ratio") and " 0.000000 " in line for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_traced(capsys, monkeypatch, tmp_path, workload):
    _, result = _run(capsys, monkeypatch, workload, "--seconds", "2", "--trace", "1", "--spans-dir", str(tmp_path))
    assert result["correct"] is True and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, *_rest, on, _flat in tracing.LAYER_METRICS:
        if on in (workload, "every workload"):
            assert result["metrics"][name]["value"] > 0, name
    assert (tmp_path / ("spans-%s-seed3.tsv.gz" % workload)).stat().st_size > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "modular", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


# ---------------------------------------------------------------------------
# generation and the benchmark definition


def test_same_seed_same_requests():
    def first(seed, n=200):
        stream = gen.requests("cli", seed)
        return [next(stream) for _ in range(n)]

    assert first(5) == first(5)
    assert first(5) != first(6)


def test_benchmark_json_matches_code():
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] == \
        [m[:3] for m in tracing.LAYER_METRICS]
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END_UNITS
    notes = (HERE / "NOTES.md").read_text()
    assert all(m[0] in notes for m in tracing.LAYER_METRICS)


def test_form_verdict_fixed_at_generation():
    rng = random.Random(1)
    for _ in range(200):
        weight = rng.randrange(12, 121, 2)
        terms, member = gen._form(rng, weight, 5)
        form = MFPolynomial(dict(terms), weight)
        assert modforms.tmf_image_test(form).is_member == member
        assert gen.form_text(terms) and form.is_normal()


def test_ledger_checks_and_drops_answers_at_settle():
    ledger = run.Ledger()
    good = qseries.j_qexp(30)
    ledger.record("j_qexp", (30,), good, None)
    ledger.record("j_qexp", (30,), _bump(good, 5), None)
    ledger.record("j_qexp", (31,), None, "ValueError: boom")
    ledger.settle()
    assert ledger.pending == [] and ledger.checked == 3
    failed, problems = ledger.verdict()
    assert failed == 2 and len(problems) == 2


def test_remembering_ledger_compares_repeats_with_the_good_answer():
    ledger = run.Ledger(remember=True)
    good = qseries.j_qexp(30)
    ledger.record("j_qexp", (30,), good, None)
    ledger.settle()
    ledger.record("j_qexp", (30,), qseries.j_qexp(30), None)
    ledger.record("j_qexp", (30,), _bump(good, 5), None)
    ledger.settle()
    failed, problems = ledger.verdict()
    assert ledger.checked == 3 and failed == 1 and "differs from an earlier" in problems[0]


def test_speed_track_scales_by_interpolated_probe():
    track = run.SpeedTrack()
    track.at = [0.0, 1.0, 2.0, 3.0]
    track.took = [0.02, 0.02, 0.04, 0.04]  # smoothed: 0.02, 0.0267, 0.0333, 0.04
    nominal = track.nominal
    got = track.scale([(1.495, 0.01), (-5.0, 1.0), (9.0, 1.0)])
    assert got == pytest.approx([0.01 * nominal / 0.03, nominal / 0.02, nominal / 0.04])


# ---------------------------------------------------------------------------
# the oracles flag corrupted answers


def _bump(f, e):
    coeffs = [f.coeff(x) for x in range(f.val, f.prec)]
    coeffs[e - f.val] += 1
    return QExpansion(f.val, coeffs, f.prec)


def test_kronecker_product_matches_schoolbook():
    rng = random.Random(7)
    for _ in range(50):
        a = [rng.randint(-10 ** 30, 10 ** 30) for _ in range(rng.randint(1, 40))]
        b = [rng.randint(-10 ** 5, 10 ** 5) for _ in range(rng.randint(1, 40))]
        n = rng.randint(1, 90)
        want = [0] * n
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                if i + j < n:
                    want[i + j] += x * y
        assert oracle.kmul(a, b, n) == want


def test_reference_routes_agree():
    ref = oracle.Reference()
    ref.series("jq", 300)
    assert ref.problems == []
    assert ref.series("delta", 5) == [0, 1, -24, 252, -1472]
    assert ref.series("jq", 3) == [1, 744, 196884]


def test_q_expansion_oracles_flag_one_bad_coefficient():
    ref = oracle.Reference()
    cases = [
        (oracle.check_eisenstein, (6, 40), qseries.eisenstein(6, 40), 17),
        (oracle.check_discriminant, ("eta", 40), qseries.discriminant_eta_product(40), 31),
        (oracle.check_j, (40,), qseries.j_qexp(40), 12),
        (oracle.check_hecke, (3, 60), moonshine.hecke_weight0(moonshine.j1_qexp(60), 3), 7),
    ]
    for check, params, good, e in cases:
        assert check(ref, params, good) is None, check.__name__
        assert check(ref, params, _bump(good, e)) is not None, check.__name__


def test_faber_oracle_flags_bad_expansion_and_polynomial():
    ref = oracle.Reference()
    poly, f = moonshine.faber_jn(4, 30)
    assert oracle.check_faber(ref, (4, 30), (poly, f)) is None
    assert oracle.check_faber(ref, (4, 30), (poly, _bump(f, 20))) is not None
    assert oracle.check_faber(ref, (4, 30), (poly, _bump(f, 3))) is not None
    bad = moonshine.JPolynomial([c + (k == 1) for k, c in enumerate(poly.coeffs)])
    assert oracle.check_faber(ref, (4, 30), (bad, f)) is not None


def test_genfun_and_roundtrip_oracles():
    ref = oracle.Reference()
    report = moonshine.genfun_check(8)
    assert oracle.check_genfun(ref, (8,), report) is None
    assert oracle.check_genfun(ref, (8,), replace(report, matches=report.matches[:-1])) is not None

    terms = (((3, 0, 0), 5), ((0, 0, 1), 24))
    form = MFPolynomial(dict(terms), 12)
    expansion = modforms.mf_to_qexp(form, 40)
    decomposed = modforms.qexp_to_mf(expansion, 12)
    cert = modforms.tmf_image_test(decomposed)
    params = (terms, 12, 40, True)
    assert oracle.check_mf_roundtrip(ref, params, (expansion, decomposed, cert)) is None
    assert oracle.check_mf_roundtrip(ref, params, (_bump(expansion, 9), decomposed, cert)) is not None
    wrong = decomposed + MFPolynomial.monomial(0, 0, 1)
    assert oracle.check_mf_roundtrip(ref, params, (expansion, wrong, cert)) is not None
    assert oracle.check_mf_roundtrip(ref, params[:3] + (False,), (expansion, decomposed, cert)) is not None


def test_formal_group_oracles():
    ref = oracle.Reference()
    fgl = elliptic.formal_group_law(elliptic.curve_a1_a3(), 6)
    series = elliptic.p_series(fgl, 2, 6)
    assert oracle.check_p_series(ref, (2, 6), series) is None
    ring = series.ring
    coeffs = list(series.coeffs)
    coeffs[1] = ring.coerce(3)
    bad = TruncSeries(ring, coeffs, series.prec)
    assert oracle.check_p_series(ref, (2, 6), bad) is not None
    assert oracle.check_n_series(ref, (2, 6), (bad, elliptic.p_series(fgl, 3, 6))) is not None
    assert oracle.check_n_series(ref, (2, 6), (series, series)) is not None
    coeffs[1] = ring.coerce(2)
    coeffs[2] = coeffs[2] + ring.gen("a3")
    assert oracle.check_p_series(ref, (2, 6), TruncSeries(ring, coeffs, series.prec)) is not None

    report = elliptic.v1_check(elliptic.curve_a2_a4(), 3)
    assert oracle.check_v1(ref, (3,), report) is None
    assert oracle.check_v1(ref, (3,), replace(report, unit=None)) is not None

    inv = elliptic.invariants(elliptic.generic_curve())
    assert oracle.check_invariants(ref, ("generic",), inv) is None
    fields = {k: getattr(inv, k) for k in ("b2", "b4", "b6", "b8", "c4", "c6")}
    bad_inv = SimpleNamespace(delta=inv.delta + inv.b2, **fields)
    assert oracle.check_invariants(ref, ("generic",), bad_inv) is not None
    assert oracle.check_associative(ref, ("a1a3", 4), False) is not None


def test_survivor_oracle():
    report = {"multipliers": [8, 4, 8, 2, 8, 4, 8, 1]}
    assert oracle.check_survivors(report, "p2", 8) is None
    assert oracle.check_survivors({"multipliers": [8, 4, 8, 2, 8, 4, 8, 2]}, "p2", 8) is not None


def test_cli_oracle_flags_corrupted_json_and_exit_code():
    ref = oracle.Reference()
    argv = ("--format", "json", "--precision", "20", "qexp", "delta")
    good = cli_oracle.in_process(argv)
    assert cli_oracle.check(ref, (argv, None), good) is None
    payload = json.loads(good[1])
    payload["result"]["coefficients"][5] += 1
    assert cli_oracle.check(ref, (argv, None), (0, json.dumps(payload, sort_keys=True) + "\n")) is not None
    assert cli_oracle.check(ref, (argv, None), (2, good[1])) is not None

    terms = (((0, 0, 1), 1),)
    member_argv = ("--format", "text", "tmf-member", "--", "Delta")
    answer = cli_oracle.in_process(member_argv)
    assert answer[0] == 3
    assert cli_oracle.check(ref, (member_argv, (terms, False)), answer) is None
    assert cli_oracle.check(ref, (member_argv, (terms, True)), answer) is not None


# ---------------------------------------------------------------------------
# tracing


def test_trunc_pairs_counts_truncated_products():
    for la in range(0, 7):
        for lb in range(0, 7):
            for n in range(0, 14):
                want = sum(1 for i in range(la) for j in range(lb) if i + j < n)
                assert tracing._trunc_pairs(la, lb, n) == want, (la, lb, n)


def test_tracer_restores_boundaries_and_nests_self_time():
    before = [vars(owner)[attr] for owner, attr, *_ in tracing.BOUNDARIES]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert exactalg.series_mul is not before[2]
        tracer.request(0, "j", lambda: qseries.j_qexp(30))
    finally:
        tracer.uninstall()
    assert [vars(owner)[attr] for owner, attr, *_ in tracing.BOUNDARIES] == before
    names = {tracer.names[i] for i in tracer.name}
    assert {"request.j", "qseries.j_qexp", "qseries.eisenstein", "qseries.mul"} <= names
    total = tracer.end[-1] - tracer.start[-1]  # the request span closes last
    assert abs(sum(tracer.self_s) - total) < 1e-6
    assert tracer.call_count("qseries.j_qexp") == 1
    assert tracer.counters["qseries.mul.coeff_bits"] > 0
    assert MPoly.__mul__ is before[0]
