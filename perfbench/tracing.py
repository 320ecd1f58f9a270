"""Span tracing of tmfkit's layer boundaries, from outside the package.

``Tracer.install`` replaces the public functions named in ``BOUNDARIES`` on
the module or class where callers look them up (module attributes such as
``qseries.j_qexp``, class attributes such as ``MPoly.__mul__``) with wrappers
that record one span per call; ``uninstall`` puts the originals back.  A span
is (id, parent id, request id, name, start, end).  Spans stay in memory and
are written out once at the end; self time (duration minus the time covered
by child spans) and the counters are aggregated as the spans close.

Counters whose name ends in ``pairs`` or ``bits`` are computed from operand
sizes at the call boundary, not counted inside the kernel.
"""

import gzip
from array import array
from time import perf_counter

from tmfkit import anss, cli, elliptic, exactalg, modforms, moonshine, qseries
from tmfkit.exactalg import MPoly
from tmfkit.qseries import QExpansion


def _trunc_pairs(la, lb, n):
    """#{(i, j) : i < la, j < lb, i + j < n}: the products a truncated multiply forms."""
    m = min(la, n)
    if m <= 0 or lb <= 0:
        return 0
    full = max(0, min(m, n - lb + 1))  # rows i <= n - lb see all lb columns
    return full * lb + (m - full) * n - (m - 1 + full) * (m - full) // 2


def _coeff_bits(f):
    total = 0
    for c in f.coeffs:
        if isinstance(c, int):
            total += c.bit_length()
        else:
            total += c.numerator.bit_length() + c.denominator.bit_length()
    return total


# -- counters: fn(tracer, args, result_or_None, before_token) -> None


def _mpoly_pairs(tr, args, result, token):
    a, b = args
    tr.count("exactalg.mpoly_mul.term_pairs", len(a.terms) * (len(b.terms) if isinstance(b, MPoly) else 1))


def _series_pairs(tr, args, result, token):
    f, g = args
    n = result.prec if result.prec is not None else len(f.coeffs) + len(g.coeffs) - 1
    tr.count("exactalg.series_mul.coeff_pairs", _trunc_pairs(len(f.coeffs), len(g.coeffs), n))


def _qmul_bits(tr, args, result, token):
    tr.count("qseries.mul.coeff_bits", _coeff_bits(args[0]) + _coeff_bits(args[1]))


def _expansion_lookup(args):
    name, prec = args
    cached = modforms._EXPANSION_CACHE.get(name)
    return cached is not None and cached.prec >= prec


def _expansion_count(tr, args, result, hit):
    tr.count("modforms.expansion_cache.lookups", 1)
    tr.count("modforms.expansion_cache.hits", int(hit))


def _log_exp_lookup(args):
    # p_series(fgl, p, degree=None); tmfkit's callers pass degree positionally
    fgl = args[0]
    degree = args[2] if len(args) > 2 and args[2] is not None else fgl.degree
    return (degree + 1) in fgl._log_exp


def _log_exp_count(tr, args, result, hit):
    tr.count("elliptic.log_exp_cache.lookups", 1)
    tr.count("elliptic.log_exp_cache.hits", int(hit))


def _is_series_product(args):
    return isinstance(args[1], QExpansion)


# (owner, attribute, span name, only-if predicate, before hook, counter)
BOUNDARIES = [
    (MPoly, "__mul__", "exactalg.mpoly_mul", None, None, _mpoly_pairs),
    (MPoly, "__rmul__", "exactalg.mpoly_mul", None, None, _mpoly_pairs),
    (exactalg, "series_mul", "exactalg.series_mul", None, None, _series_pairs),
    (exactalg, "series_inverse", "exactalg.series_inverse", None, None, None),
    (exactalg.TruncSeries, "compose", "exactalg.compose", None, None, None),
    (exactalg, "series_reversion", "exactalg.reversion", None, None, None),
    (exactalg.TruncSeries, "exact_div", "exactalg.exact_div", None, None, None),
    (QExpansion, "__mul__", "qseries.mul", _is_series_product, None, _qmul_bits),
    (QExpansion, "__rmul__", "qseries.mul", _is_series_product, None, _qmul_bits),
    (QExpansion, "exact_div", "qseries.exact_div", None, None, None),
    (qseries, "eisenstein", "qseries.eisenstein", None, None, None),
    (qseries, "j_qexp", "qseries.j_qexp", None, None, None),
    (qseries, "discriminant_eta_product", "qseries.eta_product", None, None, None),
    (moonshine, "faber_jn", "moonshine.faber_jn", None, None, None),
    (moonshine, "hecke_weight0", "moonshine.hecke", None, None, None),
    (moonshine, "genfun_check", "moonshine.genfun_check", None, None, None),
    (modforms, "mf_to_qexp", "modforms.mf_to_qexp", None, None, None),
    (modforms, "qexp_to_mf", "modforms.qexp_to_mf", None, None, None),
    (modforms, "tmf_image_test", "modforms.tmf_image_test", None, None, None),
    (modforms, "_base_expansion", "modforms.expansion_cache", None, _expansion_lookup, _expansion_count),
    (elliptic, "weierstrass_w", "elliptic.weierstrass_w", None, None, None),
    (elliptic, "formal_log", "elliptic.formal_log", None, None, None),
    (elliptic, "p_series", "elliptic.p_series", None, _log_exp_lookup, _log_exp_count),
    (elliptic.FormalGroupLaw, "verify_associative", "elliptic.verify_associative", None, None, None),
    (elliptic, "hasse_v1", "elliptic.hasse_v1", None, None, None),
    (elliptic.FormalGroupLaw, "add_series", "elliptic.add_series", None, None, None),
    (anss.E2Presentation, "parse", "anss.parse", None, None, None),
    (anss, "normal_form", "anss.normal_form", None, None, None),
    (anss, "survivor_table", "anss.survivor_table", None, None, None),
    (cli, "main", "cli.main", None, None, None),
]


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.self_s = []
        self.calls = []
        self.counters = {}
        # span columns, in the order spans close
        self.sid = array("i")
        self.parent = array("i")
        self.req = array("i")
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self._next = 0
        self._stack = []
        self._req = -1
        self._saved = []

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_s.append(0.0)
            self.calls.append(0)
        return self._ids[name]

    def count(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    def _close(self, nid, frame, t0, t1):
        dur = t1 - t0
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += dur
        self.self_s[nid] += dur - frame[1]
        self.calls[nid] += 1
        self.sid.append(frame[0])
        self.parent.append(parent[0] if parent is not None else -1)
        self.req.append(self._req)
        self.name.append(nid)
        self.start.append(t0)
        self.end.append(t1)

    def request(self, rid, kind, call):
        """Run call() as the root span of request ``rid``; returns its result."""
        nid = self.name_id("request." + kind)
        self._req = rid
        frame = [self._next, 0.0]
        self._next += 1
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            return call()
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self._close(nid, frame, t0, t1)

    def _wrapper(self, name, fn, only_if, before, counter):
        nid = self.name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            if only_if is not None and not only_if(args):
                return fn(*args, **kwargs)
            token = before(args) if before is not None else None
            frame = [tracer._next, 0.0]
            tracer._next += 1
            stack = tracer._stack
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer._close(nid, frame, t0, t1)
            if counter is not None:
                counter(tracer, args, result, token)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for owner, attr, name, only_if, before, counter in BOUNDARIES:
            raw = vars(owner)[attr]
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                new = classmethod(self._wrapper(name, raw.__func__, only_if, before, counter))
            else:
                new = self._wrapper(name, raw, only_if, before, counter)
            setattr(owner, attr, new)

    def uninstall(self):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def write(self, path):
        """Write the spans as gzipped tab-separated text, one span a line."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tparent\trequest\tname\tstart_s\tend_s\n")
            names = self.names
            for row in zip(self.sid, self.parent, self.req, self.name, self.start, self.end):
                out.write("%d\t%d\t%d\t%s\t%.9f\t%.9f\n" % (row[0], row[1], row[2], names[row[3]], row[4], row[5]))

    # -- per-layer metrics

    def self_time(self, name):
        i = self._ids.get(name)
        return self.self_s[i] if i is not None else 0.0

    def call_count(self, name):
        i = self._ids.get(name)
        return self.calls[i] if i is not None else 0

    def ratio(self, hits, lookups):
        n = self.counters.get(lookups, 0)
        return self.counters.get(hits, 0) / n if n else 0.0


# Per-layer metrics of the traced run: (name, unit, better, source, the
# end-to-end metric it should move, the workload where it should move, the
# workloads where it should stay flat).  Sources: ("calls", span),
# ("self", span), ("counter", name), ("ratio", hits, lookups), ("startup", key)
# and ("overhead",).
_KERNEL = ("latency_p50_s, requests_per_s", "formal-group", "modular, cli")
_QSERIES = ("latency_p90_s, requests_per_s", "modular", "formal-group")
_MOONSHINE = ("latency_p90_s", "modular", "formal-group")
_MODFORMS = ("latency_p50_s", "modular", "cli")
_ELLIPTIC = ("latency_p50_s", "formal-group", "modular")
_CLI = ("latency_p50_s, setup_s", "cli", "modular, formal-group")

LAYER_METRICS = [
    ("exactalg.mpoly_mul.calls", "count", "lower", ("calls", "exactalg.mpoly_mul")) + _KERNEL,
    ("exactalg.mpoly_mul.self_s", "s", "lower", ("self", "exactalg.mpoly_mul")) + _KERNEL,
    ("exactalg.mpoly_mul.term_pairs", "count", "lower", ("counter", "exactalg.mpoly_mul.term_pairs")) + _KERNEL,
    ("exactalg.series_mul.calls", "count", "lower", ("calls", "exactalg.series_mul")) + _KERNEL,
    ("exactalg.series_mul.self_s", "s", "lower", ("self", "exactalg.series_mul")) + _KERNEL,
    ("exactalg.series_mul.coeff_pairs", "count", "lower", ("counter", "exactalg.series_mul.coeff_pairs")) + _KERNEL,
    ("exactalg.series_inverse.self_s", "s", "lower", ("self", "exactalg.series_inverse")) + _KERNEL,
    ("exactalg.compose.self_s", "s", "lower", ("self", "exactalg.compose")) + _KERNEL,
    ("exactalg.reversion.self_s", "s", "lower", ("self", "exactalg.reversion")) + _KERNEL,
    ("exactalg.exact_div.self_s", "s", "lower", ("self", "exactalg.exact_div")) + _KERNEL,
    ("qseries.mul.calls", "count", "lower", ("calls", "qseries.mul")) + _QSERIES,
    ("qseries.mul.self_s", "s", "lower", ("self", "qseries.mul")) + _QSERIES,
    ("qseries.mul.coeff_bits", "bit", "lower", ("counter", "qseries.mul.coeff_bits")) + _QSERIES,
    ("qseries.exact_div.self_s", "s", "lower", ("self", "qseries.exact_div")) + _QSERIES,
    ("qseries.eisenstein.self_s", "s", "lower", ("self", "qseries.eisenstein")) + _QSERIES,
    ("qseries.j_qexp.self_s", "s", "lower", ("self", "qseries.j_qexp")) + _QSERIES,
    ("qseries.eta_product.self_s", "s", "lower", ("self", "qseries.eta_product")) + _QSERIES,
    ("qseries.j_qexp.calls", "count", "lower", ("calls", "qseries.j_qexp")) + _QSERIES,
    ("moonshine.faber_jn.calls", "count", "lower", ("calls", "moonshine.faber_jn")) + _MOONSHINE,
    ("moonshine.faber_jn.self_s", "s", "lower", ("self", "moonshine.faber_jn")) + _MOONSHINE,
    ("moonshine.hecke.self_s", "s", "lower", ("self", "moonshine.hecke")) + _MOONSHINE,
    ("moonshine.genfun_check.self_s", "s", "lower", ("self", "moonshine.genfun_check")) + _MOONSHINE,
    ("modforms.mf_to_qexp.self_s", "s", "lower", ("self", "modforms.mf_to_qexp")) + _MODFORMS,
    ("modforms.qexp_to_mf.self_s", "s", "lower", ("self", "modforms.qexp_to_mf")) + _MODFORMS,
    ("modforms.tmf_image_test.self_s", "s", "lower", ("self", "modforms.tmf_image_test")) + _MODFORMS,
    ("modforms.expansion_cache.lookups", "count", "lower", ("counter", "modforms.expansion_cache.lookups")) + _MODFORMS,
    ("modforms.expansion_cache.hit_ratio", "ratio", "higher",
     ("ratio", "modforms.expansion_cache.hits", "modforms.expansion_cache.lookups")) + _MODFORMS,
    ("elliptic.weierstrass_w.self_s", "s", "lower", ("self", "elliptic.weierstrass_w")) + _ELLIPTIC,
    ("elliptic.formal_log.self_s", "s", "lower", ("self", "elliptic.formal_log")) + _ELLIPTIC,
    ("elliptic.p_series.self_s", "s", "lower", ("self", "elliptic.p_series")) + _ELLIPTIC,
    ("elliptic.verify_associative.self_s", "s", "lower", ("self", "elliptic.verify_associative")) + _ELLIPTIC,
    ("elliptic.hasse_v1.self_s", "s", "lower", ("self", "elliptic.hasse_v1")) + _ELLIPTIC,
    ("elliptic.add_series.calls", "count", "lower", ("calls", "elliptic.add_series")) + _ELLIPTIC,
    ("elliptic.add_series.self_s", "s", "lower", ("self", "elliptic.add_series")) + _ELLIPTIC,
    ("elliptic.log_exp_cache.hit_ratio", "ratio", "higher",
     ("ratio", "elliptic.log_exp_cache.hits", "elliptic.log_exp_cache.lookups")) + _ELLIPTIC,
    ("anss.parse.self_s", "s", "lower", ("self", "anss.parse")) + _CLI,
    ("anss.normal_form.self_s", "s", "lower", ("self", "anss.normal_form")) + _CLI,
    ("anss.survivor_table.self_s", "s", "lower", ("self", "anss.survivor_table")) + _CLI,
    ("anss.normal_form.calls", "count", "lower", ("calls", "anss.normal_form")) + _CLI,
    ("cli.main.self_s", "s", "lower", ("self", "cli.main")) + _CLI,
    ("cli.interpreter_s", "s", "lower", ("startup", "interpreter_s")) + _CLI,
    ("cli.import_s", "s", "lower", ("startup", "import_s")) + _CLI,
    ("trace.overhead_ratio", "ratio", "lower", ("overhead",), "none (tracing cost)", "every workload", "-"),
]


def layer_values(tracer, startup, overhead):
    """{metric name: value} for every entry of LAYER_METRICS."""
    out = {}
    for name, unit, better, source, *_ in LAYER_METRICS:
        how = source[0]
        if how == "calls":
            value = tracer.call_count(source[1])
        elif how == "self":
            value = tracer.self_time(source[1])
        elif how == "counter":
            value = tracer.counters.get(source[1], 0)
        elif how == "ratio":
            value = tracer.ratio(source[1], source[2])
        elif how == "startup":
            value = startup[source[1]]
        else:
            value = overhead
        out[name] = (value, unit)
    return out
