"""Golden CLI corpus: stdout bytes and exit codes of a fixed set of invocations.

``tests/golden_cli.json`` holds one record per invocation in both output
formats.  Regenerate it only when an output change is intended:

    PYTHONPATH=src:tests python -c "import test_golden_cli as g; g.write_corpus()"
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from tmfkit import cli, exactalg

CORPUS = Path(__file__).with_name("golden_cli.json")

INVOCATIONS = [
    ["qexp", "c4", "--precision", "12"],
    ["qexp", "c6", "--precision", "12"],
    ["qexp", "delta", "--precision", "12"],
    ["qexp", "j", "--precision", "12"],
    ["jn", "3", "--precision", "8"],
    ["hecke", "2", "--precision", "21"],
    ["tmf-member", "24*Delta - 48*c4^3"],
    ["tmf-member", "Delta"],
    ["witten", "2"],
    ["prize", "--precision", "10"],
    ["genfun-check", "6"],
    ["curve-invariants", "0", "a2", "0", "a4", "0"],
    ["curve-invariants", "1", "0", "1", "0", "0"],
    ["fgl-pseries", "2", "--precision", "6"],
    ["fgl-pseries", "3", "--precision", "8"],
    ["anss-survivors", "p2", "8"],
    ["anss-survivors", "p3", "6"],
]
# large enough that integer products take the packed (Kronecker) path
PACKED_INVOCATIONS = [
    ["qexp", "j", "--precision", "120"],
    ["qexp", "delta", "--precision", "200"],
    ["hecke", "3", "--precision", "300"],
    ["jn", "5", "--precision", "120"],
    ["prize", "--precision", "150"],
    ["genfun-check", "40"],
]
INVOCATIONS += PACKED_INVOCATIONS


def all_argvs():
    return [["--format", fmt] + argv for argv in INVOCATIONS for fmt in ("text", "json")]


def run_main(argv):
    """Run the CLI in process; returns (exit code, stdout text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


def write_corpus():
    records = []
    for argv in all_argvs():
        code, stdout = run_main(argv)
        records.append({"argv": argv, "exit": code, "stdout": stdout})
    CORPUS.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")


@pytest.fixture(scope="module")
def corpus():
    records = json.loads(CORPUS.read_text(encoding="utf-8"))
    return {tuple(r["argv"]): r for r in records}


def test_corpus_covers_every_invocation(corpus):
    assert sorted(corpus) == sorted(map(tuple, all_argvs()))


@pytest.mark.parametrize("argv", all_argvs(), ids=" ".join)
def test_golden_cli(corpus, argv):
    record = corpus[tuple(argv)]
    code, stdout = run_main(argv)
    assert code == record["exit"]
    assert stdout == record["stdout"]


@pytest.mark.parametrize("argv", PACKED_INVOCATIONS, ids=" ".join)
def test_large_invocations_take_the_packed_product(monkeypatch, argv):
    calls = []
    packed = exactalg.mul_packed
    monkeypatch.setattr(exactalg, "mul_packed", lambda *args: calls.append(1) or packed(*args))
    run_main(argv)
    assert calls
