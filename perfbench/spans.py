"""Spans around calls into powmon's public functions, and the per-layer metrics.

A traced child wraps each function below once and puts the wrapper into
every powmon module namespace that holds the original, because census,
suites and cli import functions such as find_isomorphism by name: patching
the defining module alone would miss those calls.  Class constructors are
wrapped on the class.  kernels.setwise_product is left alone (it runs
millions of times per sweep); kernels.power_table.cells is derived from
the call's arguments instead.

Spans are kept in memory and written out once the sweep ends; the parent process turns them into the
metrics listed in PER_LAYER.
"""

import itertools
import statistics
import sys
import time

clock = time.perf_counter

LAYERS = ("powerset", "kernels", "monoid", "iso", "census", "verify", "suites")


def _carrier_note(args, _):
    pm = args[0]
    return None if pm.carrier is None else pm.kind + ":" + ",".join(map(str, pm.base.flat))


def _find_note(_, result):
    return "found" if result is not None else "absent"


# (span name, module, attribute, note(args, result) or None); an attribute
# "Class.__init__" wraps the constructor on the class
TARGETS = (
    ("kernels.power_table", "powmon.kernels", "power_table", lambda a, r: len(a[2]) ** 2),
    ("kernels.assoc_witness", "powmon.kernels", "assoc_witness", lambda a, r: a[1] ** 3),
    ("kernels.enumerate_tables", "powmon.kernels", "enumerate_tables", lambda a, r: len(r)),
    ("kernels.iso_search", "powmon.kernels", "iso_search", lambda a, r: (r[2], not r[0])),
    ("monoid.validate", "powmon.monoid", "FiniteMonoid.__init__", None),
    ("powerset.carrier", "powmon.powerset", "PowerMonoid.__init__", _carrier_note),
    ("iso.invariants", "powmon.iso", "element_invariants", None),
    ("iso.refine", "powmon.iso", "refine_colors", lambda a, r: sum(m.n for m in a[0])),
    ("iso.find", "powmon.iso", "find_isomorphism", _find_note),
    ("iso.enumerate", "powmon.iso", "enumerate_isomorphisms", lambda a, r: len(r)),
    ("iso.witness_check", "powmon.iso", "IsoWitness.__init__", None),
    ("census.canonical_key", "powmon.census", "canonical_key", None),
    ("census.enumerate", "powmon.census", "enumerate_monoids", None),
    ("census.catalog", "powmon.census", "groups_catalog", None),
    ("census.pair", "powmon.census", "_experiment_pair", None),
    ("verify.pullback", "powmon.verify", "extract_pullback", None),
    ("verify.pullback", "powmon.verify", "pullback_report", None),
    ("verify.cardinality", "powmon.verify", "cardinality_profile", None),
    ("verify.checks", "powmon.verify", "check_order_stabilization", None),
    ("verify.checks", "powmon.verify", "check_shifted_power", None),
    ("verify.checks", "powmon.verify", "check_cross_relation", None),
    ("verify.checks", "powmon.verify", "check_minimal_relation", None),
    ("verify.checks", "powmon.verify", "check_solution_count", None),
    ("verify.checks", "powmon.verify", "check_two_to_two", None),
)

SUITE_NAMES = ("lemma21", "lemma22", "lemma24", "prop25", "lemma31", "thm32", "section4")

_CALLS_AND_TIME = ("kernels.power_table", "kernels.assoc_witness", "kernels.iso_search",
                   "iso.refine", "iso.invariants", "iso.find", "iso.enumerate",
                   "iso.witness_check", "census.canonical_key", "census.catalog",
                   "verify.pullback", "verify.cardinality", "verify.checks")

# (metric, unit), in the order BENCHMARK.json lists them
PER_LAYER = (
    ("powerset.carriers_built", "count"),
    ("powerset.carriers_distinct", "count"),
    ("powerset.carrier_reuse", "ratio"),
    ("powerset.carrier.self_s", "s"),
    ("kernels.power_table.calls", "count"),
    ("kernels.power_table.s", "s"),
    ("kernels.power_table.cells", "count"),
    ("kernels.assoc_witness.calls", "count"),
    ("kernels.assoc_witness.s", "s"),
    ("kernels.assoc_witness.cells", "count"),
    ("kernels.enumerate_tables.s", "s"),
    ("kernels.enumerate_tables.tables", "count"),
    ("kernels.iso_search.calls", "count"),
    ("kernels.iso_search.s", "s"),
    ("kernels.iso_search.nodes", "count"),
    ("kernels.iso_search.budget_hits", "count"),
    ("monoid.validate.calls", "count"),
    ("monoid.validate.self_s", "s"),
    ("iso.refine.calls", "count"),
    ("iso.refine.s", "s"),
    ("iso.refine.elements", "count"),
    ("iso.invariants.calls", "count"),
    ("iso.invariants.s", "s"),
    ("iso.find.calls", "count"),
    ("iso.find.s", "s"),
    ("iso.find.found", "count"),
    ("iso.find.absent_by_invariant", "count"),
    ("iso.find.absent_by_search", "count"),
    ("iso.find.budget_exceeded", "count"),
    ("iso.enumerate.calls", "count"),
    ("iso.enumerate.s", "s"),
    ("iso.enumerate.witnesses", "count"),
    ("iso.witness_check.calls", "count"),
    ("iso.witness_check.s", "s"),
    ("census.canonical_key.calls", "count"),
    ("census.canonical_key.s", "s"),
    ("census.enumerate.s", "s"),
    ("census.catalog.calls", "count"),
    ("census.catalog.s", "s"),
    ("census.pair_ms.p50", "ms"),
    ("census.pair_ms.p99", "ms"),
    ("verify.pullback.calls", "count"),
    ("verify.pullback.s", "s"),
    ("verify.cardinality.calls", "count"),
    ("verify.cardinality.s", "s"),
    ("verify.checks.calls", "count"),
    ("verify.checks.s", "s"),
    *((f"suites.{name}.s", "s") for name in SUITE_NAMES),
    *((f"layer.{layer}.self_s", "s") for layer in LAYERS),
    ("trace.unattributed_s", "s"),
    ("trace.spans", "count"),
    ("trace.sweep_s", "s"),
    ("trace.untraced_sweep_s", "s"),
    ("trace.overhead", "ratio"),
)


class Tracer:
    """In-memory span recorder; `wrap` returns a traced twin of a function.

    A span is (name, id, parent id, start, end, note), appended when the
    call returns; ids count calls in the order they start, from 0.  Spans
    are tuples of atoms so the garbage collector stops tracking them, which
    keeps a long trace from slowing the collections of the traced program.
    """

    def __init__(self):
        self.spans = []
        self._stack = [-1]
        self._ids = itertools.count()

    def wrap(self, name, fn, note=None):
        spans = self.spans
        stack = self._stack
        ids = self._ids

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                spans.append((name, sid, parent, start, clock(), type(exc).__name__))
                stack.pop()
                raise
            end = clock()
            stack.pop()
            spans.append((name, sid, parent, start, end, None if note is None else note(args, result)))
            return result

        traced.__wrapped__ = fn
        return traced


def _powmon_modules():
    return [m for name, m in sorted(sys.modules.items())
            if (name == "powmon" or name.startswith("powmon."))
            and name not in ("powmon._pure", "powmon._core") and m is not None]


def install(tracer):
    """Wrap every target in every loaded powmon namespace."""
    modules = {m.__name__: m for m in _powmon_modules()}
    wrapped = {}    # id(original) -> wrapper
    for span, module, attr, note in TARGETS:
        if module not in modules:
            continue
        owner = modules[module]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, meth, tracer.wrap(span, getattr(cls, meth), note))
            continue
        original = getattr(owner, attr)
        wrapped[id(original)] = tracer.wrap(span, original, note)
    suites = modules.get("powmon.suites")
    if suites is not None:
        for name, fn in list(suites.SUITES.items()):
            wrapped[id(fn)] = tracer.wrap(f"suites.{name}", fn)
            suites.SUITES[name] = wrapped[id(fn)]
    for m in modules.values():
        for attr, value in list(vars(m).items()):
            if id(value) in wrapped:
                setattr(m, attr, wrapped[id(value)])


def _percentile_ms(durations, q):
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1e3
    return statistics.quantiles(durations, n=100, method="inclusive")[q - 1] * 1e3


def aggregate(spans):
    """Per-layer metrics of one traced sweep (all but trace.*sweep_s and trace.overhead).

    The span with id 0 is the sweep itself; what it covers outside every
    powmon span is reported as trace.unattributed_s.
    """
    child_time = [0.0] * (1 + max((s[1] for s in spans), default=-1))
    searched = set()
    for name, _, parent, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
            if name == "kernels.iso_search":
                searched.add(parent)
    calls = {}
    incl = {}
    self_s = {}
    notes = {}
    for name, sid, _, start, end, note in spans:
        calls[name] = calls.get(name, 0) + 1
        incl[name] = incl.get(name, 0.0) + end - start
        self_s[name] = self_s.get(name, 0.0) + end - start - child_time[sid]
        notes.setdefault(name, []).append((sid, note))

    def noted(name):
        return [note for _, note in notes.get(name, ())]

    out = {}
    for name in _CALLS_AND_TIME:
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.s"] = incl.get(name, 0.0)
    carriers = [n for n in noted("powerset.carrier") if n is not None]
    out["powerset.carriers_built"] = len(carriers)
    out["powerset.carriers_distinct"] = len(set(carriers))
    out["powerset.carrier_reuse"] = len(set(carriers)) / len(carriers) if carriers else 0.0
    out["powerset.carrier.self_s"] = self_s.get("powerset.carrier", 0.0)
    for name in ("kernels.power_table", "kernels.assoc_witness"):
        out[f"{name}.cells"] = sum(noted(name))
    out["kernels.enumerate_tables.s"] = incl.get("kernels.enumerate_tables", 0.0)
    out["kernels.enumerate_tables.tables"] = sum(noted("kernels.enumerate_tables"))
    searches = [n for n in noted("kernels.iso_search") if isinstance(n, (list, tuple))]
    out["kernels.iso_search.nodes"] = sum(nodes for nodes, _ in searches)
    out["kernels.iso_search.budget_hits"] = sum(hit for _, hit in searches)
    out["monoid.validate.calls"] = calls.get("monoid.validate", 0)
    out["monoid.validate.self_s"] = self_s.get("monoid.validate", 0.0)
    out["iso.refine.elements"] = sum(noted("iso.refine"))
    finds = notes.get("iso.find", ())
    out["iso.find.found"] = sum(1 for _, n in finds if n == "found")
    out["iso.find.absent_by_invariant"] = sum(1 for i, n in finds if n == "absent" and i not in searched)
    out["iso.find.absent_by_search"] = sum(1 for i, n in finds if n == "absent" and i in searched)
    out["iso.find.budget_exceeded"] = sum(1 for _, n in finds if n == "SearchBudgetExceeded")
    out["iso.enumerate.witnesses"] = sum(n for n in noted("iso.enumerate") if isinstance(n, int))
    out["census.enumerate.s"] = incl.get("census.enumerate", 0.0)
    pair_s = sorted(end - start for name, _, _, start, end, _ in spans if name == "census.pair")
    out["census.pair_ms.p50"] = _percentile_ms(pair_s, 50)
    out["census.pair_ms.p99"] = _percentile_ms(pair_s, 99)
    for name in SUITE_NAMES:
        out[f"suites.{name}.s"] = incl.get(f"suites.{name}", 0.0)
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
    root = [end - start - child_time[sid] for _, sid, _, start, end, _ in spans if sid == 0]
    out["trace.unattributed_s"] = root[0] if root else 0.0
    out["trace.spans"] = len(spans)
    return out
