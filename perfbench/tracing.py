"""Per-layer tracing of ``mgs`` from outside the program.

``Tracer.install()`` replaces the functions of every ``mgs`` module with
wrappers.  Each wrapper is put at every module attribute through which
callers reach the function (``mgs.topology.generates_full`` as well as
``mgs.abelian.generates_full`` and ``mgs.generates_full``), so calls
between modules are seen too.  A span records the function, its start
and end, its parent span and the query it ran for; spans stay in memory
until ``metrics()`` reduces them.  A handful of element-level methods
that run millions of times are counted without a span.

The layer of a function is the module that defines it, so a layer's
self time is the time spent in its own code, with the time of the
calls it made into other layers taken out.  Spans and counts are
reduced over the queries of the round; of the set-up, which is traced
as well, only each layer's self time is reported.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = (
    "abelian",
    "words",
    "dihedral",
    "tables",
    "logic",
    "classify",
    "topology",
    "closure_map",
    "dsl",
    "cli",
)

# Private functions that carry a named metric (the comparison routes).
PRIVATE_SPANS = {"topology": ("_compare", "_compare_enumerate", "_compare_profiles")}
# Methods timed with a span: (module, class, method).
METHOD_SPANS = (
    ("topology", "MarkedGroup", "evaluate"),
    ("topology", "MarkedGroup", "__post_init__"),
)
# Hot callables that are only counted: (module, class or None, name).
COUNTED = (
    ("abelian", "AbelianGroup", "element"),
    ("dihedral", "GenDihedralElement", "__mul__"),
    ("tables", "FiniteGroupTable", "closure"),
    ("words", None, "free_reduce"),
    ("words", None, "nielsen_apply"),
)


def _stratum(arity, length):
    return 2 * arity * (2 * arity - 1) ** (length - 1)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, qid]
        self.stack = []
        self.qid = -1
        self.counts = Counter()
        self.computed = Counter()
        self._clock = time.perf_counter

    # -- recording ------------------------------------------------------

    def begin(self, qid):
        """Open the root span of one query."""
        self.qid = qid
        self.stack.append(len(self.spans))
        self.spans.append(["harness.query", self._clock(), 0.0, -1, qid])

    def end(self):
        span = self.spans[self.stack.pop()]
        span[2] = self._clock()
        self.qid = -1

    def _span(self, name, fn, observe):
        spans, stack, clock = self.spans, self.stack, self._clock
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, tracer.qid]
            spans.append(rec)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if observe is not None and tracer.qid >= 0:
                observe(tracer, inspect.signature(fn).bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.qid >= 0:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ---------------------------------------------------

    def install(self):
        """Wrap the functions of every mgs module, importing each first."""
        for layer in LAYERS:
            importlib.import_module(f"mgs.{layer}")
        modules = [m for name, m in sys.modules.items() if name == "mgs" or name.startswith("mgs.")]
        replace = {}
        for layer in LAYERS:
            module = sys.modules[f"mgs.{layer}"]
            for attr, value in vars(module).items():
                if not inspect.isfunction(value) or value.__module__ != module.__name__:
                    continue
                if attr.startswith("_") and attr not in PRIVATE_SPANS.get(layer, ()):
                    continue
                name = f"{layer}.{attr}"
                if (layer, None, attr) in COUNTED:
                    replace[id(value)] = (value, self._counter(name, value))
                else:
                    replace[id(value)] = (value, self._span(name, value, OBSERVERS.get(name)))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
        for layer, cls_name, attr in METHOD_SPANS + tuple(c for c in COUNTED if c[1]):
            cls = getattr(sys.modules[f"mgs.{layer}"], cls_name)
            fn = vars(cls)[attr]
            name = f"{layer}.{cls_name}.{attr}"
            if (layer, cls_name, attr) in COUNTED:
                setattr(cls, attr, self._counter(name, fn))
            else:
                setattr(cls, attr, self._span(name, fn, None))

    # -- reduction ------------------------------------------------------

    def metrics(self, queries_per_s, untraced_queries_per_s):
        """Per-layer metrics; the throughputs are of the traced and untraced rounds."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                child_time[rec[3]] += rec[2] - rec[1]
        total = defaultdict(float)
        calls = Counter()
        self_time = defaultdict(float)
        setup_self_time = defaultdict(float)
        round_spans = 0
        for rec, inner in zip(spans, child_time):
            name = rec[0]
            duration = rec[2] - rec[1]
            if rec[4] < 0:  # set-up
                setup_self_time[name.split(".", 1)[0]] += duration - inner
                continue
            round_spans += 1
            total[name] += duration
            calls[name] += 1
            self_time[name.split(".", 1)[0]] += duration - inner
        traced = sum(self_time.values())

        def seconds(*names):
            return sum(total[n] for n in names)

        c = self.computed
        compare_calls = calls["topology._compare"]
        enum_s = seconds("topology._compare_enumerate")
        holds_s = seconds("logic.holds_in")
        out = {
            "topology.compare_s": (seconds("topology._compare"), "s"),
            "topology.compare_calls": (compare_calls, "count"),
            "topology.profile_route_frac": (
                calls["topology._compare_profiles"] / compare_calls if compare_calls else 0.0,
                "ratio",
            ),
            "topology.enum_words": (c["enum_words"], "count"),
            "topology.enum_words_per_s": (c["enum_words"] / enum_s if enum_s else 0.0, "1/s"),
            "topology.ball_s": (seconds("topology.relation_ball"), "s"),
            "topology.ball_relations": (c["ball_relations"], "count"),
            "topology.evaluate_s": (seconds("topology.MarkedGroup.evaluate"), "s"),
            "topology.evaluate_calls": (calls["topology.MarkedGroup.evaluate"], "count"),
            "topology.accumulation_s": (seconds("topology.accumulation_witness"), "s"),
            "topology.construct_s": (seconds("topology.MarkedGroup.__post_init__"), "s"),
            "abelian.snf_s": (seconds("abelian.smith_normal_form"), "s"),
            "abelian.snf_calls": (calls["abelian.smith_normal_form"], "count"),
            "abelian.element_calls": (self.counts["abelian.AbelianGroup.element"], "count"),
            "dihedral.materialize_s": (seconds("dihedral.materialize_table"), "s"),
            "dihedral.mul_calls": (self.counts["dihedral.GenDihedralElement.__mul__"], "count"),
            "dihedral.generating_s": (seconds("dihedral.is_generating_dih"), "s"),
            "words.ball_iter_s": (seconds("words.enumerate_ball"), "s"),
            "words.free_reduce_calls": (self.counts["words.free_reduce"], "count"),
            "words.nielsen_calls": (self.counts["words.nielsen_apply"], "count"),
            "tables.validate_s": (seconds("tables.validate_table"), "s"),
            "tables.automorphism_s": (seconds("tables.automorphism_group"), "s"),
            "tables.automorphisms": (c["automorphisms"], "count"),
            "tables.recognize_s": (seconds("tables.recognize_generalized_dihedral"), "s"),
            "tables.closure_calls": (self.counts["tables.FiniteGroupTable.closure"], "count"),
            "logic.holds_in_s": (holds_s, "s"),
            "logic.holds_in_calls": (calls["logic.holds_in"], "count"),
            "logic.assignment_bound": (c["assignment_bound"], "count"),
            "logic.bound_per_s": (c["assignment_bound"] / holds_s if holds_s else 0.0, "1/s"),
            "logic.counterexamples": (c["counterexamples"], "count"),
            "classify.enumerate_s": (seconds("classify.enumerate_markings"), "s"),
            "classify.tuples_scanned": (c["tuples_scanned"], "count"),
            "classify.generating_frac": (
                c["orbit_total"] / c["tuples_scanned"] if c["tuples_scanned"] else 0.0,
                "ratio",
            ),
            "classify.equivalence_s": (seconds("classify.decide_marking_equivalence"), "s"),
            "classify.equivalence_calls": (calls["classify.decide_marking_equivalence"], "count"),
            "closure_map.emit_s": (seconds("closure_map.emit_closure_map"), "s"),
            "closure_map.word_certificates": (c["word_certificates"], "count"),
            "dsl.parse_s": (sum(v for k, v in total.items() if k.startswith("dsl.parse")), "s"),
            "dsl.parse_calls": (sum(v for k, v in calls.items() if k.startswith("dsl.parse")), "count"),
            "cli.main_self_s": (self_time["cli"], "s"),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self_time[layer], "s")
            out[f"{layer}.self_frac"] = (self_time[layer] / traced if traced else 0.0, "ratio")
            out[f"{layer}.setup_self_s"] = (setup_self_time[layer], "s")
        out["harness.self_s"] = (self_time["harness"], "s")
        out["trace.spans"] = (round_spans, "count")
        out["trace.queries_per_s"] = (queries_per_s, "1/s")
        out["trace.overhead_frac"] = (untraced_queries_per_s / queries_per_s - 1.0, "ratio")
        return out


# Counts computed from arguments and results at the layer boundary.


def _observe_enumerate(tracer, args, result):
    radius, witness = result
    reached = radius + 1 if witness is not None else args["r_max"]
    arity = args["a"].arity
    tracer.computed["enum_words"] += sum(_stratum(arity, n) for n in range(1, reached + 1))


def _observe_ball(tracer, args, result):
    tracer.computed["ball_relations"] += len(result.relations)


def _observe_holds(tracer, args, result):
    tracer.computed["assignment_bound"] += args["table"].order ** args["sentence"].variables
    tracer.computed["counterexamples"] += not result.holds


def _observe_automorphisms(tracer, args, result):
    tracer.computed["automorphisms"] += len(result)


def _observe_enumerate_markings(tracer, args, result):
    tracer.computed["tuples_scanned"] += args["table"].order ** args["arity"]
    tracer.computed["orbit_total"] += sum(c.orbit_size for c in result)


def _observe_closure_map(tracer, args, result):
    tracer.computed["word_certificates"] += result[0].count('"certificate": "separating-word"')


OBSERVERS = {
    "topology._compare_enumerate": _observe_enumerate,
    "topology.relation_ball": _observe_ball,
    "logic.holds_in": _observe_holds,
    "tables.automorphism_group": _observe_automorphisms,
    "classify.enumerate_markings": _observe_enumerate_markings,
    "closure_map.emit_closure_map": _observe_closure_map,
}
