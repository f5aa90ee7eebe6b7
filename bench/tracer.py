"""Span tracer for the benchmark's traced runs.

``install`` wraps the public functions and methods of each vicbench layer at
every module binding where they are reachable (``from .ovic import
compose_vic`` in ``noether`` is a separate binding from ``ovic.compose_vic``),
so internal calls between layers are seen too.  Nothing under ``src/`` is
edited: the wrapping happens at run time, inside the benchmark's own process.

Each finished span records (span id, parent span id, op id, name, start,
end).  Spans stay in memory, up to ``PER_NAME_CAP`` spans per name and
process (the first ones), and are written out by ``write_spans`` when the
process ends; a kept span's parent may be one that was not kept.
Aggregates (calls, total and self time, counters) are exact regardless of
the cap.  Self time is a span's duration minus the time covered by its
direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

# (metric prefix, module, attribute) for free functions; every module-level
# binding of the same object is replaced.
FUNCTIONS = (
    ("rings.jacobson_radical", "rings", "jacobson_radical"),
    ("rings.quotient_by_radical", "rings", "quotient_by_radical"),
    ("rings.matrix_invertible", "rings", "matrix_invertible"),
    ("wedderburn.build_aw_embedding", "wedderburn", "build_aw_embedding"),
    ("ovic.s_function", "ovic", "s_function"),
    ("ovic.column_adapted_s_sets", "ovic", "column_adapted_s_sets"),
    ("ovic.compose_vic", "ovic", "compose_vic"),
    ("ovic.factor_vic", "ovic", "factor_vic"),
    ("ovic.reconstruct_from_free", "ovic", "reconstruct_from_free"),
    ("ordering.total_compare", "ordering", "total_compare"),
    ("ordering.partial_leq", "ordering", "partial_leq"),
    ("ordering.insert_successor", "ordering", "insert_successor"),
    ("ordering.iota", "ordering", "iota"),
    ("noether.enumerate_ovic", "noether", "enumerate_ovic"),
    ("noether.enumerate_vic", "noether", "enumerate_vic"),
    ("noether.act", "noether", "act"),
    ("noether.span_to_degree", "noether", "span_to_degree"),
    ("noether.membership", "noether", "membership"),
    ("jsonio.load_ring", "jsonio", "load_ring"),
    ("jsonio.dump_payload", "jsonio", "dump_payload"),
)

# (metric prefix, module, class, attribute) for methods and properties.
METHODS = (
    ("rings.FiniteRing", "rings", "FiniteRing", "__init__"),
    ("rings.RMatrix.mul", "rings", "RMatrix", "mul"),
    ("wedderburn.phi_on_matrices", "wedderburn", "AWEmbedding", "phi_on_matrices"),
    ("wedderburn.phi_bar_on_matrices", "wedderburn", "AWEmbedding", "phi_bar_on_matrices"),
    ("wedderburn.recover", "wedderburn", "AWEmbedding", "recover"),
    ("ovic.order_key", "ovic", "OvicMorphism", "order_key"),
    ("noether.EchelonBasis.insert", "noether", "EchelonBasis", "insert"),
    ("noether.EchelonBasis.reduce", "noether", "EchelonBasis", "reduce"),
)

LAYERS = ("rings", "wedderburn", "ovic", "ordering", "noether", "jsonio", "cli")


class Tracer:
    PER_NAME_CAP = 1000  # spans kept per name and process

    def __init__(self):
        self.enabled = False
        self.op_id = -1
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.calls: list[int] = []
        self.with_children: list[int] = []
        self.total_s: list[float] = []
        self.self_s: list[float] = []
        self.counters: dict[str, int] = {}
        self._stack: list[list] = []
        self._next_sid = 0
        self._sid = array("q")
        self._parent = array("q")
        self._op = array("q")
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._compose_pairs: set[int] = set()
        self._ovic_results: list = []

    # -- recording ----------------------------------------------------------

    def name_index(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.with_children.append(0)
            self.total_s.append(0.0)
            self.self_s.append(0.0)
        return self._index[name]

    def count(self, name: str, k: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + k

    def enter(self, idx: int) -> None:
        parent = self._stack[-1][4] if self._stack else -1
        self._stack.append([idx, time.perf_counter(), 0.0, False,
                            self._next_sid, parent])
        self._next_sid += 1

    def exit(self) -> None:
        end = time.perf_counter()
        idx, start, child_s, had_child, sid, parent = self._stack.pop()
        dur = end - start
        self.calls[idx] += 1
        self.total_s[idx] += dur
        self.self_s[idx] += dur - child_s
        if had_child:
            self.with_children[idx] += 1
        if self._stack:
            top = self._stack[-1]
            top[2] += dur
            top[3] = True
        if self.calls[idx] <= self.PER_NAME_CAP:
            self._sid.append(sid)
            self._parent.append(parent)
            self._op.append(self.op_id)
            self._name.append(idx)
            self._start.append(start)
            self._end.append(end)

    def wrap(self, name: str, fn, post=None):
        idx = self.name_index(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer.enter(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if post is not None:
                post(args, result)
            return result

        return traced

    # -- counters attached to particular layers -----------------------------

    def _post_hooks(self):
        def matrix_invertible(args, result):
            self.count("rings.matrix_invertible.invertible", int(bool(result[0])))

        def column_adapted(args, result):
            self.count("ovic.column_adapted_s_sets.accepted", int(result is not None))

        def compose(args, result):
            g, f = args[0], args[1]
            self._compose_pairs.add(hash((g, f)))

        def enumerate_ovic(args, result):
            # a cache hit returns the very list object an earlier call returned
            if any(result is seen for seen in self._ovic_results):
                self.count("noether.enumerate_ovic.cache_hits")
                return
            self._ovic_results.append(result)
            emb, d, n = args[0], args[1], args[2]
            if d > 0 and n >= d:
                self.count("noether.enumerate_ovic.candidates", emb.ring.size ** (d * n))
            self.count("noether.enumerate_ovic.emitted", len(result))

        def enumerate_vic(args, result):
            self.count("noether.enumerate_vic.emitted", len(result))

        def echelon_insert(args, result):
            self.count("noether.EchelonBasis.insert.accepted", int(bool(result)))

        return {
            "rings.matrix_invertible": matrix_invertible,
            "ovic.column_adapted_s_sets": column_adapted,
            "ovic.compose_vic": compose,
            "noether.enumerate_ovic": enumerate_ovic,
            "noether.enumerate_vic": enumerate_vic,
            "noether.EchelonBasis.insert": echelon_insert,
        }

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function and method at every vicbench binding."""
        from vicbench import cli, jsonio, noether, ordering, ovic, rings, selftest, wedderburn  # noqa: F401

        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "vicbench" or name.startswith("vicbench.")}
        hooks = self._post_hooks()
        for prefix, mod_name, attr in FUNCTIONS:
            orig = getattr(modules["vicbench." + mod_name], attr)
            wrapped = self.wrap(prefix, orig, hooks.get(prefix))
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
        for prefix, mod_name, cls_name, attr in METHODS:
            cls = getattr(modules["vicbench." + mod_name], cls_name)
            orig = cls.__dict__[attr]
            if isinstance(orig, property):
                setattr(cls, attr, property(self.wrap(prefix, orig.fget)))
            else:
                setattr(cls, attr, self.wrap(prefix, orig, hooks.get(prefix)))

    # -- output ---------------------------------------------------------------

    def snapshot(self) -> dict:
        """Aggregates only; summable across processes."""
        counters = dict(self.counters)
        counters["ovic.compose_vic.distinct_pairs"] = len(self._compose_pairs)
        return {
            "names": {
                name: {
                    "calls": self.calls[i],
                    "with_children": self.with_children[i],
                    "total_s": self.total_s[i],
                    "self_s": self.self_s[i],
                }
                for i, name in enumerate(self.names)
            },
            "counters": counters,
            "spans_recorded": len(self._sid),
            "spans_total": self._next_sid,
        }

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("span_id\tparent_id\top_id\tname\tstart_s\tend_s\n")
            names = self.names
            for i in range(len(self._sid)):
                fh.write(f"{self._sid[i]}\t{self._parent[i]}\t{self._op[i]}\t"
                         f"{names[self._name[i]]}\t{self._start[i]:.9f}\t"
                         f"{self._end[i]:.9f}\n")


def merge(snapshots) -> dict:
    """Sum aggregates of several processes' snapshots."""
    names: dict[str, dict] = {}
    counters: dict[str, int] = {}
    spans_recorded = spans_total = 0
    for snap in snapshots:
        for name, agg in snap["names"].items():
            acc = names.setdefault(name, {"calls": 0, "with_children": 0,
                                          "total_s": 0.0, "self_s": 0.0})
            for key, value in agg.items():
                acc[key] += value
        for key, value in snap["counters"].items():
            counters[key] = counters.get(key, 0) + value
        spans_recorded += snap["spans_recorded"]
        spans_total += snap["spans_total"]
    return {"names": names, "counters": counters,
            "spans_recorded": spans_recorded, "spans_total": spans_total}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(agg: dict) -> dict:
    """The per-layer metric table of a traced round.

    Times are totals over the round in seconds; ratios are 0 when their base
    is 0 (the layer was not called on this workload).  Distinct composition
    pairs are counted per process and summed.
    """
    names, counters = agg["names"], agg["counters"]

    def calls(name):
        return names.get(name, {}).get("calls", 0)

    def self_s(name):
        return names.get(name, {}).get("self_s", 0.0)

    out: dict[str, tuple] = {}
    for name in ("rings.FiniteRing", "rings.matrix_invertible", "rings.RMatrix.mul",
                 "wedderburn.build_aw_embedding", "wedderburn.phi_on_matrices",
                 "wedderburn.phi_bar_on_matrices", "wedderburn.recover",
                 "ovic.s_function", "ovic.compose_vic", "ovic.factor_vic",
                 "ovic.reconstruct_from_free", "ovic.order_key",
                 "ordering.partial_leq", "ordering.iota",
                 "noether.enumerate_ovic", "noether.enumerate_vic", "noether.act",
                 "noether.EchelonBasis.insert", "noether.EchelonBasis.reduce",
                 "noether.span_to_degree", "noether.membership", "jsonio.load_ring"):
        out[f"{name}.calls"] = (calls(name), "count")
        out[f"{name}.self_s"] = (self_s(name), "s")
    for name in ("rings.jacobson_radical", "rings.quotient_by_radical",
                 "jsonio.dump_payload", "cli.main"):
        out[f"{name}.self_s"] = (self_s(name), "s")
    for name in ("ovic.column_adapted_s_sets", "ordering.total_compare",
                 "ordering.insert_successor"):
        out[f"{name}.calls"] = (calls(name), "count")
    out["cli.import_s"] = (names.get("cli.import", {}).get("total_s", 0.0), "s")
    out["rings.matrix_invertible.invertible_ratio"] = (
        _ratio(counters.get("rings.matrix_invertible.invertible", 0),
               calls("rings.matrix_invertible")), "ratio")
    out["ovic.column_adapted_s_sets.accept_ratio"] = (
        _ratio(counters.get("ovic.column_adapted_s_sets.accepted", 0),
               calls("ovic.column_adapted_s_sets")), "ratio")
    out["ovic.compose_vic.repeat_ratio"] = (
        _ratio(calls("ovic.compose_vic") - counters.get("ovic.compose_vic.distinct_pairs", 0),
               calls("ovic.compose_vic")), "ratio")
    out["ovic.order_key.builds"] = (
        names.get("ovic.order_key", {}).get("with_children", 0), "count")
    for key in ("cache_hits", "candidates", "emitted"):
        out[f"noether.enumerate_ovic.{key}"] = (
            counters.get(f"noether.enumerate_ovic.{key}", 0), "count")
    out["noether.enumerate_ovic.yield"] = (
        _ratio(counters.get("noether.enumerate_ovic.emitted", 0),
               counters.get("noether.enumerate_ovic.candidates", 0)), "ratio")
    out["noether.enumerate_vic.emitted"] = (
        counters.get("noether.enumerate_vic.emitted", 0), "count")
    out["noether.EchelonBasis.insert.accept_ratio"] = (
        _ratio(counters.get("noether.EchelonBasis.insert.accepted", 0),
               calls("noether.EchelonBasis.insert")), "ratio")
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = (
            sum(agg["self_s"] for name, agg in names.items()
                if name.split(".")[0] == layer), "s")
    return out


def top_layers(agg: dict) -> list:
    """The three layers with the largest self time."""
    metrics = per_layer_metrics(agg)
    ranked = sorted(((metrics[f"layer.{layer}.self_s"][0], layer) for layer in LAYERS),
                    reverse=True)
    return [{"layer": layer, "self_s": value} for value, layer in ranked[:3]]
