"""Closed-loop benchmark of tmfkit: one caller, each request issued after the
previous one returns.

    python3 perfbench/run.py --workload modular --seed 1 --seconds 30 --trace 0

Workloads: ``modular`` and ``formal-group`` call tmfkit's public functions in
this process; ``cli`` runs one ``python -m tmfkit`` subprocess per request.
With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it runs the same requests untraced and then traced, and reports the per-layer
metrics.  Every answer is checked by an independent route (oracle.py) at the
end of its deck, outside the timer.  The last line of standard output is one JSON object.
"""

import argparse
import bisect
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

sys.dont_write_bytecode = True  # a run leaves no bytecode caches in the checkout

import gen  # noqa: E402  (tmfkit-free; modules that import tmfkit load after the source check)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
END_TO_END_UNITS = {
    "requests_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
SETUP_PROBES = 8
# End-to-end times are reported in reference seconds (see SpeedTrack).  The
# nominal probe times are typical on the 2-vCPU VM the benchmark was defined
# on, so reference and wall seconds are close there.
LOOP_PROBE_NOMINAL_S = 0.020
INTERPRETER_PROBE_NOMINAL_S = 0.060
CLI_TIMEOUT_S = 60
IMPORT_LAYERS = (
    "import time; t = time.perf_counter();"
    "import tmfkit.exactalg, tmfkit.qseries, tmfkit.modforms, tmfkit.moonshine, tmfkit.elliptic;"
    "from tmfkit import anss; anss.E2Presentation.builtin('p2'); anss.E2Presentation.builtin('p3');"
    "print(time.perf_counter() - t)"
)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_python(args):
    """Run the current interpreter on args from the checkout root; (exit code, stdout, stderr)."""
    proc = subprocess.run(
        [sys.executable] + list(args), cwd=ROOT, env=child_env(),
        capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout, proc.stderr


def wall_of(args):
    t0 = perf_counter()
    code, _, err = run_python(args)
    if code != 0:
        raise RuntimeError("probe %r failed: %s" % (args, err.strip()))
    return perf_counter() - t0


# ---------------------------------------------------------------------------
# request execution


def _curve(name):
    from tmfkit import elliptic

    return {"a1a3": elliptic.curve_a1_a3, "a2a4": elliptic.curve_a2_a4,
            "generic": elliptic.generic_curve}[name]()


def execute(kind, params):
    """One in-process request; tmfkit functions are looked up at call time so
    that tracing wrappers installed on the modules are seen."""
    from tmfkit import elliptic, modforms, moonshine, qseries
    from tmfkit.modforms import MFPolynomial

    if kind == "eisenstein":
        return qseries.eisenstein(*params)
    if kind == "discriminant":
        route, N = params
        if route == "eta":
            return qseries.discriminant_eta_product(N)
        return qseries.discriminant_qexp(N)
    if kind == "j_qexp":
        return qseries.j_qexp(*params)
    if kind == "faber_jn":
        return moonshine.faber_jn(*params)
    if kind == "hecke":
        n, N = params
        return moonshine.hecke_weight0(moonshine.j1_qexp(N), n)
    if kind == "genfun_check":
        return moonshine.genfun_check(*params)
    if kind == "mf_roundtrip":
        terms, weight, prec, _ = params
        expansion = modforms.mf_to_qexp(MFPolynomial(dict(terms), weight), prec)
        decomposed = modforms.qexp_to_mf(expansion, weight)
        return expansion, decomposed, modforms.tmf_image_test(decomposed)
    if kind == "p_series":
        p, degree = params
        fgl = elliptic.formal_group_law(_curve("a1a3" if p == 2 else "a2a4"), degree)
        return elliptic.p_series(fgl, p, degree)
    if kind == "n_series":
        curve_p, degree = params
        fgl = elliptic.formal_group_law(_curve("a1a3" if curve_p == 2 else "a2a4"), degree)
        return elliptic.p_series(fgl, 2, degree), elliptic.p_series(fgl, 3, degree)
    if kind == "v1_check":
        return elliptic.v1_check(_curve("a2a4"), params[0])
    if kind == "invariants":
        if params == ("generic",):
            return elliptic.invariants(_curve("generic"))
        return elliptic.invariants(elliptic.integer_curve(*params))
    if kind == "verify_associative":
        name, degree = params
        return elliptic.formal_group_law(_curve(name), degree).verify_associative()
    if kind == "cli":
        code, out, _ = run_python(["-m", "tmfkit"] + list(params[0]))
        return code, out
    raise ValueError("unknown request kind %r" % kind)


def execute_cli_in_process(kind, params):
    import cli_oracle

    return cli_oracle.in_process(params[0])


class Ledger:
    """Checks a run's answers outside the timer.

    Answers wait in ``pending`` until ``settle`` judges each one by its oracle
    and drops it, which the closed loop does at every deck boundary; so the
    memory the ledger holds does not grow with the number of requests a run
    completes.  With ``remember`` it keeps every good answer instead, and a
    repeat of a request is compared with that answer rather than judged
    again: the traced run, which reports no memory metric, replays every
    request once more and would otherwise spend most of its time in oracles.
    """

    def __init__(self, remember=False):
        import oracle

        self.ref = oracle.Reference()
        self.good = {} if remember else None
        self.pending = []
        self.checked = 0
        self.failed = 0
        self.problems = []

    def record(self, kind, params, answer, error):
        self.pending.append((kind, params, answer, error))

    def settle(self):
        import oracle
        import cli_oracle

        for kind, params, answer, error in self.pending:
            problem = None
            if error is not None:
                problem = "%s%r: %s" % (kind, params, error)
            elif self.good is not None and (kind, params) in self.good:
                if answer != self.good[(kind, params)]:
                    problem = "%s%r: answer differs from an earlier identical request" % (kind, params)
            else:
                try:
                    if kind == "cli":
                        problem = cli_oracle.check(self.ref, params, answer)
                    else:
                        problem = oracle.CHECKS[kind](self.ref, params, answer)
                except Exception as exc:  # an answer the oracle cannot read is wrong
                    problem = "%s%r: oracle raised %s: %s" % (kind, params, type(exc).__name__, exc)
            if problem is not None:
                self.failed += 1
                self.problems.append(problem)
            elif self.good is not None:
                self.good[(kind, params)] = answer
        self.checked += len(self.pending)
        self.pending = []

    def verdict(self):
        """(failed request count, problems) of every settled answer."""
        return self.failed, self.problems + self.ref.problems


def speed_probe():
    """Wall time of a fixed pure-Python loop that shares no code with tmfkit."""
    t0 = perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    return perf_counter() - t0


def interpreter_probe():
    """Wall time of ``python -c pass``: start-up work that shares no code with tmfkit."""
    return wall_of(["-c", "pass"])


class SpeedTrack:
    """The machine's speed along a run, from speed probes between requests.

    The VM this benchmark was defined on changes speed by up to 1.5x from
    one second to the next and by 15% between minutes.  A probe runs at most
    every ``every`` seconds between requests; a wall time taken at time t is
    scaled to reference seconds by ``nominal`` over the probe time
    interpolated at t (each probe averaged with its neighbours).  Requests
    that run in this process are scaled by a pure-Python loop; requests that
    are CLI subprocesses by interpreter start-up, which the machine's state
    slows differently.
    """

    def __init__(self, subprocesses=False):
        if subprocesses:
            self.probe, self.nominal, self.every = interpreter_probe, INTERPRETER_PROBE_NOMINAL_S, 1.0
        else:
            self.probe, self.nominal, self.every = speed_probe, LOOP_PROBE_NOMINAL_S, 0.5
        self.at = []
        self.took = []

    def between(self):
        if not self.at or perf_counter() - self.at[-1] >= self.every:
            t0 = perf_counter()
            self.took.append(self.probe())
            self.at.append(t0)

    def scale(self, timed):
        """Reference seconds of (start, wall seconds) pairs."""
        took = [statistics.fmean(self.took[max(0, i - 1):i + 2]) for i in range(len(self.took))]
        out = []
        for t0, dt in timed:
            t = t0 + dt / 2
            i = bisect.bisect_left(self.at, t)
            if i == 0 or i == len(self.at):
                probe = took[0] if i == 0 else took[-1]
            else:
                w = (t - self.at[i - 1]) / (self.at[i] - self.at[i - 1])
                probe = took[i - 1] * (1 - w) + took[i] * w
            out.append(dt * self.nominal / probe)
        return out


def closed_loop(stream, run_one, budget_s, deck_len, ledger, issued, track):
    """Issue requests until their summed wall time reaches budget_s and the
    last deck is complete, so every run holds whole decks.

    Returns (start, wall seconds) of every request.  The checks at each deck
    boundary and the speed probes between requests are not timed.
    """
    timed = []
    busy = 0.0
    while busy < budget_s or len(timed) % deck_len:
        kind, params = next(stream)
        issued.append((kind, params))
        track.between()
        error = answer = None
        t0 = perf_counter()
        try:
            answer = run_one(kind, params)
        except Exception as exc:  # a failed request is counted, not fatal
            error = "%s: %s" % (type(exc).__name__, exc)
        dt = perf_counter() - t0
        busy += dt
        timed.append((t0, dt))
        ledger.record(kind, params, answer, error)
        if len(timed) % deck_len == 0:
            ledger.settle()
    track.between()
    return timed


def replay_traced(requests, run_one, tracer, ledger, track):
    """Run a fixed request list with tracing installed; returns (start, wall
    seconds) of every request."""
    timed = []
    tracer.install()
    try:
        for rid, (kind, params) in enumerate(requests):
            track.between()
            error = answer = None
            t0 = perf_counter()
            try:
                answer = tracer.request(rid, kind, lambda: run_one(kind, params))
            except Exception as exc:  # a failed request is counted, not fatal
                error = "%s: %s" % (type(exc).__name__, exc)
            timed.append((t0, perf_counter() - t0))
            ledger.record(kind, params, answer, error)
        track.between()
    finally:
        tracer.uninstall()
    ledger.settle()  # the oracles call tmfkit, so they run untraced
    return timed


# ---------------------------------------------------------------------------
# metrics


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def clear_caches():
    from tmfkit import modforms

    modforms._EXPANSION_CACHE.clear()


def metadata():
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "src_lines": lines,
        "src_sha256": digest.hexdigest()[:16],
        "commit": commit,
    }


def describe_mix(requests):
    """Share of each request kind and the range of each numeric argument."""
    by_kind = {}
    for kind, params in requests:
        if kind == "cli":
            opts, command, args = gen.split_cli(params[0])
            kind = "cli:%s:%s" % (command, opts["--format"])
            params = tuple(int(a) for a in [opts.get("--precision", "")] + list(args)
                           if a.lstrip("-").isdigit())
        by_kind.setdefault(kind, []).append(params)
    lines = []
    for kind, plist in sorted(by_kind.items()):
        ranges = []
        for pos in range(max(len(p) for p in plist)):
            nums = [p[pos] for p in plist if pos < len(p) and type(p[pos]) is int]
            if nums:
                ranges.append("arg%d=[%d..%d]" % (pos, min(nums), max(nums)))
        lines.append("mix %-28s share=%5.1f%% n=%d %s"
                     % (kind, 100.0 * len(plist) / len(requests), len(plist), " ".join(ranges)))
    return lines


def emit(result_lines, correct, attempted, failed, metrics):
    for line in result_lines:
        print(line)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


# ---------------------------------------------------------------------------


def setup_samples(workload, count, track):
    """(start, wall seconds) of ``count`` fresh interpreters' set-up (see
    SETUP_PROBES), with a speed probe before each."""
    samples = []
    for _ in range(count):
        track.between()
        t0 = perf_counter()
        if workload == "cli":
            samples.append((t0, wall_of(["-c", "import tmfkit.cli"])))
            continue
        code, out, err = run_python(["-c", IMPORT_LAYERS])
        if code != 0:
            raise RuntimeError("set-up probe failed: %s" % err.strip())
        samples.append((t0, float(out)))
    return samples


def run_untraced(workload, seed, seconds, lines):
    track = SpeedTrack(subprocesses=(workload == "cli"))
    # half the set-up samples before the timed loop and half after it, so the
    # median spans the machine's state over the whole run
    setups = setup_samples(workload, SETUP_PROBES // 2, track)
    ledger = Ledger()
    issued = []
    clear_caches()
    timed = closed_loop(gen.requests(workload, seed), execute, seconds,
                        len(gen.DECKS[workload]), ledger, issued, track)
    rss = peak_rss_mb(children=(workload == "cli"))
    setups += setup_samples(workload, SETUP_PROBES - SETUP_PROBES // 2, track)
    failed, problems = ledger.verdict()
    lines.append("checked %d answers of %d" % (ledger.checked, len(timed)))
    lines.extend(describe_mix(issued))

    walls = [dt for _, dt in timed]
    latencies = track.scale(timed)
    n = len(latencies)
    wall_p90 = statistics.quantiles(walls, n=10, method="inclusive")[8]
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8]
    lines.append("speed probes: %d, mean %.5f s, nominal %.3f s"
                 % (len(track.took), statistics.fmean(track.took), track.nominal))
    lines.append("setup samples (wall s): %s" % " ".join("%.4f" % dt for _, dt in setups))
    values = {
        "requests_per_s": (n / sum(latencies), n / sum(walls)),
        "latency_p50_s": (statistics.median(latencies), statistics.median(walls)),
        "latency_p90_s": (p90, wall_p90),
        "setup_s": (statistics.median(track.scale(setups)), statistics.median(dt for _, dt in setups)),
        "peak_rss_mb": (rss, None),
    }
    counts = {
        "requests_per_s": "requests=%d busy_s=%.3f" % (n, sum(walls)),
        "latency_p50_s": "samples=%d" % n,
        "latency_p90_s": "samples=%d beyond=%d" % (n, sum(1 for x in latencies if x > p90)),
        "setup_s": "samples=%d (median)" % len(setups),
        "peak_rss_mb": "samples=1 (%s)" % ("largest child" if workload == "cli" else "this process"),
    }
    metrics = {}
    for name, (value, wall) in values.items():
        unit = END_TO_END_UNITS[name]
        metrics[name] = (value, unit)
        raw = "" if wall is None else " wall=%.6f" % wall
        lines.append("metric %-16s %14.6f %-3s %s%s" % (name, value, unit, counts[name], raw))
    lines.append("metric %-16s %14.6f %-3s failed=%d attempted=%d (reported as failed/attempted)"
                 % ("failed_ratio", failed / n, "ratio", failed, n))
    lines.extend("problem: %s" % p for p in problems[:20])
    return (not problems and failed == 0), n, failed, metrics


def run_traced(workload, seed, seconds, lines, spans_dir):
    import tracing

    interp = statistics.median(wall_of(["-c", "pass"]) for _ in range(SETUP_PROBES))
    imported = statistics.median(wall_of(["-c", "import tmfkit.cli"]) for _ in range(SETUP_PROBES))
    startup = {"interpreter_s": interp, "import_s": imported - interp}
    # the cli layers are split by running cli.main in this process
    run_one = execute_cli_in_process if workload == "cli" else execute
    ledger = Ledger(remember=True)
    issued = []
    track = SpeedTrack()
    clear_caches()
    untraced = closed_loop(gen.requests(workload, seed), run_one, seconds / 2.0,
                           len(gen.DECKS[workload]), ledger, issued, track)
    clear_caches()
    tracer = tracing.Tracer()
    traced = replay_traced(issued, run_one, tracer, ledger, track)
    # both passes in reference seconds, so speed drift between them cancels
    untraced, traced = sum(track.scale(untraced)), sum(track.scale(traced))
    overhead = traced / untraced
    failed, problems = ledger.verdict()
    attempted = 2 * len(issued)
    spans_dir.mkdir(parents=True, exist_ok=True)
    spans_path = spans_dir / ("spans-%s-seed%d.tsv.gz" % (workload, seed))
    tracer.write(spans_path)
    lines.extend(describe_mix(issued))
    lines.append("traced %d requests: untraced %.3f s, traced %.3f s (reference s), %d spans written to %s"
                 % (len(issued), untraced, traced, len(tracer.end), spans_path))
    values = tracing.layer_values(tracer, startup, overhead)
    for name, (value, unit) in values.items():
        lines.append("layer %-36s %16.6f %s" % (name, value, unit))
    lines.extend("problem: %s" % p for p in problems[:20])
    return (not problems and failed == 0), attempted, failed, values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("modular", "formal-group", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-dir", type=Path, default=ROOT / ".perfbench_out",
                        help="where the traced run writes its spans")
    args = parser.parse_args(argv)

    if not (SRC / "tmfkit" / "__init__.py").is_file():
        print("perfbench: no tmfkit sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    from tmfkit import anss, cli, elliptic, modforms, moonshine, qseries  # noqa: F401

    anss.E2Presentation.builtin("p2")
    anss.E2Presentation.builtin("p3")
    in_process_setup = perf_counter() - t0

    meta = metadata()
    lines = ["perfbench workload=%s seed=%d seconds=%g trace=%d"
             % (args.workload, args.seed, args.seconds, args.trace),
             "meta %s" % " ".join("%s=%s" % kv for kv in meta.items()),
             "in-process import + presentations: %.4f s" % in_process_setup]
    if args.trace:
        correct, attempted, failed, metrics = run_traced(
            args.workload, args.seed, args.seconds, lines, args.spans_dir)
    else:
        correct, attempted, failed, metrics = run_untraced(
            args.workload, args.seed, args.seconds, lines)
    emit(lines, correct, attempted, failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
