"""Golden CLI corpus: stdout bytes and exit codes of a fixed set of invocations.

``tests/golden_cli.json`` holds one record per invocation in both output
formats.  Regenerate it only when an output change is intended:

    PYTHONPATH=src:tests python -c "import test_golden_cli as g; g.write_corpus()"
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tmfkit import cli, exactalg

CORPUS = Path(__file__).with_name("golden_cli.json")
SRC = Path(__file__).resolve().parents[1] / "src"

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


def test_warm_cache_replay_matches_the_corpus(corpus):
    """Every record in one process, forward and then in reverse, so each runs
    after the expansion cache has been warmed by the others."""
    records = list(corpus.values())
    assert len(records) == 46
    for record in records + records[::-1]:
        assert run_main(record["argv"]) == (record["exit"], record["stdout"]), record["argv"]


@pytest.mark.parametrize("argv", PACKED_INVOCATIONS, ids=" ".join)
def test_large_invocations_take_the_packed_product(monkeypatch, argv):
    calls = []
    packed = exactalg.mul_packed
    monkeypatch.setattr(exactalg, "mul_packed", lambda *args: calls.append(1) or packed(*args))
    run_main(argv)
    assert calls


# the domain modules each subcommand's start-up loads, and no others
DOMAIN = {"tmfkit.qseries", "tmfkit.modforms", "tmfkit.moonshine", "tmfkit.elliptic", "tmfkit.anss"}
MODULAR = {"tmfkit.qseries", "tmfkit.modforms", "tmfkit.moonshine"}
COMMAND_LAYERS = {
    "qexp": {"tmfkit.qseries"},
    "jn": MODULAR,
    "hecke": MODULAR,
    "tmf-member": {"tmfkit.qseries", "tmfkit.modforms"},
    "witten": MODULAR,
    "prize": MODULAR,
    "genfun-check": MODULAR,
    "curve-invariants": {"tmfkit.elliptic"},
    "fgl-pseries": {"tmfkit.elliptic"},
    "anss-survivors": {"tmfkit.anss"},
}


def start_up_argvs():
    """The first invocation of each subcommand, in text and JSON in turn."""
    first = {}
    for argv in INVOCATIONS:
        first.setdefault(argv[0], argv)
    return [["--format", ("text", "json")[i % 2]] + argv for i, argv in enumerate(first.values())]


def start(args):
    """A fresh ``python -X importtime`` on args, as an uncached install runs it."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.Popen([sys.executable, "-X", "importtime"] + args, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def finish(proc):
    """(exit code, stdout bytes, names of the modules the process imported)."""
    out, err = proc.communicate(timeout=120)
    names = {line.rsplit("|", 1)[1].strip()
             for line in err.decode().splitlines() if line.startswith("import time:")}
    return proc.returncode, out, names


def test_start_up_loads_only_the_command_layer(corpus):
    """Each subcommand as a real ``python -m tmfkit`` start-up: its golden
    stdout bytes and exit code, and no domain module it does not use."""
    argvs = start_up_argvs()
    assert sorted(argv[2] for argv in argvs) == sorted(COMMAND_LAYERS)
    procs = [start(["-c", "pass"]), start(["-c", "import tmfkit.cli"])]
    procs += [start(["-m", "tmfkit"] + argv) for argv in argvs]
    (_, _, baseline), (code, _, names), *runs = map(finish, procs)
    assert code == 0
    added = names - baseline
    assert "tmfkit.cli" in added
    assert not added & (DOMAIN | {"json", "importlib.resources"})
    for argv, (code, out, names) in zip(argvs, runs):
        record = corpus[tuple(argv)]
        assert (code, out) == (record["exit"], record["stdout"].encode("utf-8")), argv
        assert (names - baseline) & DOMAIN == COMMAND_LAYERS[argv[2]], argv
