"""Spans around the public functions at permseq's module boundaries.

The traced run installs wrappers on the functions in ``BOUNDARY`` and
removes them again; the untraced passes run the package untouched. A span
is ``(id, parent, name, start, end, busy, size, run)``: ``busy`` is the time
the call held the interpreter (for a generator, the sum over its ``next()``
calls), ``size`` a per-function count (table cells, list length, items
yielded, a true result) and ``run`` the pass the span belongs to. Spans stay
in memory for the pass; the benchmark reduces them to ``pass_summary`` and
writes the first traced pass's spans out when it ends. The engine's private
internals are not wrapped.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

# Layers are the package's modules; tableio is reported with golden.
LAYERS = ("perms", "enumeration", "almost_decomp", "partitions", "series",
          "injections", "golden", "cli", "bench")
_LAYER_OF = {"tableio": "golden"}


def _count_table_size(tracer, args, kwargs, table) -> int:
    """Table cells; the pool's jobs are the depth-4 nodes, the row-4 cells."""
    threads = kwargs.get("threads", args[3] if len(args) > 3 else 1)
    if threads > 1 and table.n_max > 4:
        tracer.counters[(tracer.run, "pool_jobs")] += sum(table.rows[3])
    return sum(sum(row) for row in table.rows)


@dataclass(frozen=True)
class Boundary:
    module: str
    attr: str  # a function, or "Class.method"
    name: str  # the span name, "<layer>.<function>"
    generator: bool = False
    size: Callable | None = None  # (tracer, args, kwargs, result) -> int


BOUNDARY = (
    Boundary("enumeration", "count_table", "enumeration.count_table",
             size=_count_table_size),
    Boundary("enumeration", "generate_avoiders", "enumeration.generate_avoiders",
             size=lambda t, a, kw, r: len(r)),
    Boundary("enumeration", "iter_avoiders_upto", "enumeration.iter_avoiders", generator=True),
    Boundary("enumeration", "row_differences", "enumeration.row_differences"),
    Boundary("enumeration", "second_differences", "enumeration.second_differences"),
    Boundary("enumeration", "limit_report", "enumeration.limit_report"),
    Boundary("enumeration", "diagonal_limit", "enumeration.diagonal_limit"),
    Boundary("enumeration", "monotonicity_scan", "enumeration.monotonicity_scan"),
    Boundary("almost_decomp", "compat_search", "almost_decomp.compat_search"),
    Boundary("almost_decomp", "compat_table_row", "almost_decomp.compat_table_row"),
    Boundary("almost_decomp", "f_map", "almost_decomp.f_map"),
    Boundary("almost_decomp", "f_domain", "almost_decomp.f_domain",
             size=lambda t, a, kw, r: int(bool(r))),
    Boundary("perms", "contains", "perms.contains"),
    Boundary("perms", "avoids", "perms.avoids"),
    Boundary("perms", "standardize", "perms.standardize"),
    Boundary("partitions", "indecomposable_avoiders", "partitions.indecomposable_avoiders",
             size=lambda t, a, kw, r: len(r)),
    Boundary("partitions", "partitions_of", "partitions.partitions_of", generator=True),
    Boundary("partitions", "family_counts", "partitions.family_counts"),
    Boundary("partitions", "lambda_map", "partitions.lambda_map"),
    Boundary("series", "named_gf", "series.named_gf"),
    Boundary("series", "TruncatedSeries.__mul__", "series.mul"),
    Boundary("injections", "verify_injection", "injections.verify_injection"),
    Boundary("injections", "inject_1324_231", "injections.inject"),
    Boundary("golden", "load_golden", "golden.load_golden"),
    Boundary("tableio", "table_to_csv", "tableio.table_to_csv"),
    Boundary("tableio", "diffs_to_csv", "tableio.diffs_to_csv"),
    Boundary("tableio", "table_to_json", "tableio.table_to_json"),
    Boundary("tableio", "table_from_json", "tableio.table_from_json"),
    Boundary("tableio", "csv_to_cells", "tableio.csv_to_cells"),
    Boundary("cli", "main", "cli.main"),
    Boundary("cli", "cached_count_table", "cli.cached_count_table"),
)

ROOT = "bench.pass"


class Tracer:
    """Collects spans in memory. One instance per benchmark run."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counters: dict[tuple[int, str], int] = defaultdict(int)
        self._stack = [0]
        self._next_id = 1
        self.run = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _new_id(self) -> int:
        sid = self._next_id
        self._next_id += 1
        return sid

    def call(self, name: str, fn, size, args, kwargs):
        sid = self._new_id()
        parent = self._stack[-1]
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
        n = size(self, args, kwargs, result) if size is not None else 0
        self.spans.append((sid, parent, name, start, end, end - start, n, self.run))
        return result

    def generate(self, name: str, fn, args, kwargs):
        """Run a generator, timing every ``next()``; one span covers them all."""
        sid = self._new_id()
        parent = self._stack[-1]
        inner = fn(*args, **kwargs)
        start = end = time.perf_counter()
        busy = 0.0
        count = 0
        try:
            while True:
                self._stack.append(sid)
                t0 = time.perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    end = time.perf_counter()
                    busy += end - t0
                    self._stack.pop()
                count += 1
                yield item
        finally:
            inner.close()
            self.spans.append((sid, parent, name, start, end, busy, count, self.run))

    def root(self, run: int):
        """Context manager for the span that covers one whole pass."""
        return _Root(self, run)

    # -- installing the wrappers ------------------------------------------

    def install(self) -> None:
        modules = {
            name: mod for name, mod in sys.modules.items()
            if name == "permseq" or name.startswith("permseq.")
        }
        for b in BOUNDARY:
            owner = modules[f"permseq.{b.module}"]
            if "." in b.attr:
                cls_name, meth = b.attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._patch(cls, meth, self._wrap(b, orig))
                continue
            orig = getattr(owner, b.attr)
            wrapper = self._wrap(b, orig)
            for mod in modules.values():
                # calls into perms count only from the other modules
                if mod is owner and b.module == "perms":
                    continue
                if mod.__dict__.get(b.attr) is orig:
                    self._patch(mod, b.attr, wrapper)

    def _patch(self, target, attr: str, value) -> None:
        self._undo.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            target, attr, orig = self._undo.pop()
            setattr(target, attr, orig)

    def _wrap(self, b: Boundary, fn):
        if b.generator:
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                return self.generate(b.name, fn, args, kwargs)
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(b.name, fn, b.size, args, kwargs)
        return wrapper


class _Root:
    def __init__(self, tracer: Tracer, run: int) -> None:
        self.tracer = tracer
        self.run = run

    def __enter__(self):
        t = self.tracer
        t.run = self.run
        self.sid = t._new_id()
        t._stack.append(self.sid)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t = self.tracer
        end = time.perf_counter()
        t._stack.pop()
        t.spans.append((self.sid, 0, ROOT, self.start, end, end - self.start, 0, self.run))
        return False


def layer_of(name: str) -> str:
    module = name.split(".", 1)[0]
    return _LAYER_OF.get(module, module)


def pass_summary(spans: list[tuple]) -> dict:
    """Per-name calls, busy time and size, per-layer self time, and the
    boundary-derived counts for the spans of one pass."""
    by_id = {s[0]: s for s in spans}
    child_busy: dict[int, float] = defaultdict(float)
    children: dict[int, list[tuple]] = defaultdict(list)
    for s in spans:
        child_busy[s[1]] += s[5]
        children[s[1]].append(s)
    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    size: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        sid, parent, name = s[0], s[1], s[2]
        calls[name] += 1
        size[name] += s[6]
        # busy time nested in a span of the same name is counted once
        p = by_id.get(parent)
        if p is None or p[2] != name:
            busy[name] += s[5]
        self_s[layer_of(name)] += s[5] - child_busy[sid]
    limit_group = {"enumeration.row_differences", "enumeration.second_differences",
                   "enumeration.limit_report", "enumeration.diagonal_limit",
                   "enumeration.monotonicity_scan"}
    limit_s = sum((s[5] for s in spans
                   if s[2] in limit_group and by_id.get(s[1], (0, 0, ""))[2] not in limit_group), 0.0)
    hits = misses = 0
    cache_s = 0.0
    for s in spans:
        if s[2] != "cli.cached_count_table":
            continue
        inner = [c for c in children[s[0]] if c[2] == "enumeration.count_table"]
        if inner:
            misses += 1
        else:
            hits += 1
        cache_s += s[5] - sum(c[5] for c in inner)
    generated = sum(c[6] for s in spans if s[2] == "partitions.indecomposable_avoiders"
                    for c in children[s[0]] if c[2] == "enumeration.generate_avoiders")
    return {
        "calls": dict(calls), "busy": dict(busy), "size": dict(size), "self_s": self_s,
        "limit_s": limit_s, "cache_hits": hits, "cache_misses": misses, "cache_s": cache_s,
        "indecomposable_generated": generated,
    }
