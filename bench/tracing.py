"""Span tracing around the library's public functions, from outside the library.

:class:`Tracer` replaces every public function of every ``erdosrogers``
module, at every module namespace where that function object is bound (so
``exact.contains_copy`` and ``isomorphism.contains_copy`` are both caught),
plus ``Hypergraph.__post_init__``, with a wrapper that appends one span per
call.  Spans live in flat in-memory arrays with a parent link; self time is
a span's duration minus the durations of its direct children.  Generator
functions get one span per resumption, so the work done between two yields
is attributed to the generator.  :meth:`Tracer.uninstall` restores every
original binding; the library source is never modified.
"""

from __future__ import annotations

import inspect
import json
import math
import os
import time
from array import array

LAYERS = (
    "cli", "hgio", "randomness", "constructions", "hypergraph",
    "isomorphism", "morphisms", "exponents", "exact",
)

# Per-layer metrics: (metric, kind, definition).  "self" sums the self time
# of the listed functions (a bare module name means every public function
# of that module); "calls" counts spans; "counter" reads a boundary counter;
# "ratio" divides two counters.  Counts are per pass and must repeat exactly.
METRICS = [
    ("cli.self_s", "self", ["cli"]),
    ("cli.report_bytes", "counter", "cli.report_bytes"),
    ("hgio.self_s", "self", ["hgio"]),
    ("hgio.bytes_read", "counter", "hgio.bytes_read"),
    ("hgio.bytes_written", "counter", "hgio.bytes_written"),
    ("randomness.self_s", "self", ["randomness"]),
    ("randomness.substreams", "calls", "randomness.substream"),
    ("constructions.construct.self_s", "self",
     ["constructions.construct_coloring", "constructions.construct_shadow_labeling"]),
    ("constructions.rsets_scanned", "counter", "constructions.rsets_scanned"),
    ("constructions.edges_out", "counter", "constructions.edges_out"),
    ("constructions.cover.self_s", "self", ["constructions.estimate_f_cover"]),
    ("hypergraph.self_s", "self", ["hypergraph"]),
    ("hypergraph.constructed", "calls", "hypergraph.Hypergraph.__post_init__"),
    ("hypergraph.edges_in", "counter", "hypergraph.edges_in"),
    ("hypergraph.induced.calls", "calls", "hypergraph.induced"),
    ("hypergraph.blowup_F.calls", "calls", "hypergraph.blowup_F"),
    ("isomorphism.contains_copy.self_s", "self", ["isomorphism.contains_copy"]),
    ("isomorphism.contains_copy.calls", "calls", "isomorphism.contains_copy"),
    ("isomorphism.contains_copy.found_ratio", "ratio",
     ("isomorphism.contains_copy.found", "isomorphism.contains_copy")),
    ("isomorphism.contains_copy.host_edges", "counter", "isomorphism.host_edges"),
    ("isomorphism.embeddings", "counter", "isomorphism.embeddings"),
    ("isomorphism.canonical_form.self_s", "self", ["isomorphism.canonical_form"]),
    ("isomorphism.canonical_form.calls", "calls", "isomorphism.canonical_form"),
    ("isomorphism.is_canonical.self_s", "self", ["isomorphism.is_canonical"]),
    ("isomorphism.is_canonical.calls", "calls", "isomorphism.is_canonical"),
    ("isomorphism.is_canonical.accept_ratio", "ratio",
     ("isomorphism.is_canonical.accepted", "isomorphism.is_canonical")),
    ("morphisms.shadow_hom.self_s", "self", ["morphisms.find_shadow_homomorphism"]),
    ("morphisms.shadow_hom.calls", "calls", "morphisms.find_shadow_homomorphism"),
    ("morphisms.shadow_hom.found_ratio", "ratio",
     ("morphisms.shadow_hom.found", "morphisms.find_shadow_homomorphism")),
    ("morphisms.verify_shadow_hom.self_s", "self", ["morphisms.verify_shadow_hom"]),
    ("morphisms.hom.self_s", "self", ["morphisms.find_homomorphism"]),
    ("morphisms.blowup_member.self_s", "self", ["morphisms.is_sub_iterated_blowup"]),
    ("morphisms.errors", "counter", "morphisms.errors"),
    ("exponents.self_s", "self", ["exponents"]),
    ("exponents.subsets", "counter", "exponents.subsets"),
    ("exponents.canonical_calls", "counter", "exponents.canonical_calls"),
    ("exact.max_f_free_subset.self_s", "self", ["exact.max_f_free_subset"]),
    ("exact.max_f_free_subset.copy_checks", "counter", "exact.copy_checks"),
    ("exact.enumerate_g_free.classes", "counter", "exact.classes"),
    ("exact.enumerate_g_free.self_s", "self", ["exact.enumerate_g_free"]),
    ("exact.f_exact.self_s", "self", ["exact.f_exact"]),
]

# Every per-layer metric that is not a time; the self-check compares these.
COUNT_METRICS = [name for name, kind, _ in METRICS if kind != "self"]


def _construct(t, args, result):
    t.count("constructions.rsets_scanned", math.comb(args[0], args[1].r))
    t.count("constructions.edges_out", len(result[0].edges))


def _contains_copy(t, args, result):
    t.count("isomorphism.host_edges", len(args[0].edges))
    if result is not None:
        t.count("isomorphism.contains_copy.found")
        t.count("isomorphism.embeddings")


def _density(t, args, result):
    # alpha/beta enumerate every vertex subset of size >= 2 of the covered vertices.
    covered = len({v for e in args[0].edges for v in e})
    t.count("exponents.subsets", 2 ** covered - 1 - covered)


# Counters updated after a call returns: name -> fn(tracer, args, result).
AFTER_PROBES = {
    "hgio.load_hg": lambda t, a, r: t.count("hgio.bytes_read", os.path.getsize(a[0])),
    "hgio.save_hg": lambda t, a, r: t.count("hgio.bytes_written", os.path.getsize(a[1])),
    "constructions.construct_coloring": _construct,
    "constructions.construct_shadow_labeling": _construct,
    "isomorphism.contains_copy": _contains_copy,
    "isomorphism.count_embeddings": lambda t, a, r: t.count("isomorphism.embeddings", r.embeddings),
    "isomorphism.is_canonical": lambda t, a, r: t.count("isomorphism.is_canonical.accepted", int(r)),
    "morphisms.find_shadow_homomorphism":
        lambda t, a, r: t.count("morphisms.shadow_hom.found", int(r is not None)),
    "exponents.alpha": _density,
    "exponents.beta": _density,
}


YIELD_PROBES = {
    "isomorphism.iter_embeddings": "isomorphism.embeddings",
    "exact.enumerate_g_free": "exact.classes",
}

# (child, parent) -> counter: spans of `child` opened directly under `parent`.
PARENT_COUNTERS = {
    ("isomorphism.canonical_form", "exponents.alpha"): "exponents.canonical_calls",
    ("isomorphism.canonical_form", "exponents.beta"): "exponents.canonical_calls",
    ("isomorphism.contains_copy", "exact.max_f_free_subset"): "exact.copy_checks",
}


class Tracer:
    """Span recorder installed around one pass at a time."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._patches: list = []
        self.reset()

    def reset(self):
        self.name = array("i")
        self.parent = array("i")
        self.task = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}
        self.current_task = -1

    def count(self, key: str, amount: int = 1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.task.append(self.current_task)
        self.raised.append(0)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int):
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, qualname: str, fn):
        nid = self._name_id(qualname)
        after = AFTER_PROBES.get(qualname)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            yielded = YIELD_PROBES.get(qualname)

            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    i = tracer._open(nid)
                    try:
                        item = next(gen)
                    except StopIteration:
                        tracer._close(i)
                        return
                    except BaseException:
                        tracer.raised[i] = 1
                        tracer._close(i)
                        raise
                    tracer._close(i)
                    if yielded:
                        tracer.count(yielded)
                    yield item

            return gen_wrapper

        def wrapper(*args, **kwargs):
            i = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.raised[i] = 1
                tracer._close(i)
                raise
            tracer._close(i)
            if after is not None:
                after(tracer, args, result)
            return result

        return wrapper

    def install(self, package):
        """Wrap every public function of every layer module wherever it is bound."""
        modules = [package] + [getattr(package, layer) for layer in LAYERS]
        wrappers = {}
        for layer in LAYERS:
            module = getattr(package, layer)
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == module.__name__
                ):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)][1])
        cls = package.hypergraph.Hypergraph
        original = cls.__dict__["__post_init__"]
        inner = self._wrap("hypergraph.Hypergraph.__post_init__", original)
        tracer = self

        def post_init(hg):
            tracer.count("hypergraph.edges_in", len(hg.edges))
            inner(hg)

        self._patches.append((cls, "__post_init__", original))
        setattr(cls, "__post_init__", post_init)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per span name for the recorded pass."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        totals: dict[str, float] = {}
        for i in range(n):
            key = self.names[self.name[i]]
            totals[key] = totals.get(key, 0.0) + (self.end[i] - self.start[i] - child[i])
        return totals

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric of the recorded pass (see METRICS)."""
        calls: dict[str, int] = {}
        counters = dict(self.counters)
        for i in range(len(self.start)):
            key = self.names[self.name[i]]
            calls[key] = calls.get(key, 0) + 1
            p = self.parent[i]
            if p >= 0:
                counter = PARENT_COUNTERS.get((key, self.names[self.name[p]]))
                if counter:
                    counters[counter] = counters.get(counter, 0) + 1
            if self.raised[i] and key.startswith("morphisms."):
                counters["morphisms.errors"] = counters.get("morphisms.errors", 0) + 1
        selfs = self.self_times()
        out = {}
        for metric, kind, spec in METRICS:
            if kind == "self":
                out[metric] = sum(
                    (t for name, t in selfs.items()
                     if any(name == s or name.startswith(s + ".") for s in spec)),
                    0.0,
                )
            elif kind == "calls":
                out[metric] = calls.get(spec, 0)
            elif kind == "counter":
                out[metric] = counters.get(spec, 0)
            else:
                num, den = spec
                hits = counters.get(num, 0)
                total = calls.get(den, 0)
                out[metric] = hits / total if total else 0.0
        return out

    def dump(self, path: str):
        """Write the recorded spans as one JSON document."""
        doc = {
            "names": self.names,
            "columns": ["name", "parent", "task", "start", "end", "raised"],
            "spans": [
                [self.name[i], self.parent[i], self.task[i],
                 self.start[i], self.end[i], self.raised[i]]
                for i in range(len(self.start))
            ],
        }
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as out:
            json.dump(doc, out, separators=(",", ":"))
            out.write("\n")
