"""Spans around calls into bandforge's layers, recorded from outside the package.

A span is (name, start, end, parent, query id).  Spans live in flat arrays
while a round runs and are written out when it ends.  The tracer replaces
every binding of each public function of a layer module: the module's own
global, the names other modules imported, and the package namespace.  It
also wraps the public methods of the classes each layer defines, a few
operator methods, and the computations behind cached properties.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types
from array import array

#: The modules user traffic reaches, in dependency order.
LAYERS = ("words", "factors", "normal_form", "conjugacy", "positivity", "fdtc", "cli")
#: Non-public methods that still do a layer's work when called from elsewhere.
OPERATOR_METHODS = ("__mul__", "__pow__", "__post_init__")
SSS_ENUMERATE = "conjugacy.sss_enumerate"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.query_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.query = -1
        #: Summed sizes of the super summit sets that sss_enumerate returned.
        self.sss_elements = 0
        self._undo: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.name)

    def wrap(self, span_name: str, fn):
        """fn with a span around each call."""
        nid = self._ids.setdefault(span_name, len(self._ids))
        if nid == len(self.names):
            self.names.append(span_name)
        names, parents, queries, starts, ends = self.name, self.parent, self.query_id, self.start, self.end
        stack, clock, tracer = self._stack, time.perf_counter, self
        counts_sss = span_name == SSS_ENUMERATE

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            queries.append(tracer.query)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if counts_sss:
                tracer.sss_elements += len(result)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap every layer's public callables in every namespace that binds them."""
        prefix = package.__name__ + "."
        namespaces = [vars(package)] + [
            vars(m) for name, m in sorted(sys.modules.items()) if name.startswith(prefix)
        ]
        for layer in LAYERS:
            module = importlib.import_module(prefix + layer)
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, type):
                    self._wrap_class(layer, obj)
                elif isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info"):
                    wrapper = self.wrap(f"{layer}.{attr}", obj)
                    for ns in namespaces:
                        for key, value in list(ns.items()):
                            if value is obj:
                                self._replace(ns, key, wrapper)

    def _wrap_class(self, layer: str, cls: type) -> None:
        for attr, member in list(vars(cls).items()):
            span_name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(member, functools.cached_property):
                prop = functools.cached_property(self.wrap(span_name, member.func))
                prop.__set_name__(cls, attr)
                self._replace(cls, attr, prop)
            elif isinstance(member, types.FunctionType) and (
                not attr.startswith("_") or attr in OPERATOR_METHODS
            ):
                self._replace(cls, attr, self.wrap(span_name, member))

    def _replace(self, target, key: str, value) -> None:
        if isinstance(target, dict):
            self._undo.append((target, key, target[key]))
            target[key] = value
        else:
            self._undo.append((target, key, vars(target)[key]))
            setattr(target, key, value)

    def uninstall(self) -> None:
        """Put every original binding back, newest first."""
        while self._undo:
            target, key, original = self._undo.pop()
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of its interval its children cover.

    Spans must be numbered in order of start time, as the tracer numbers them;
    then one pass over the children of each parent, in that order, measures
    the union of their intervals clipped to the parent's.
    """
    covered = [0.0] * len(starts)
    reach = list(starts)  # how far each span's interval is already covered
    for i, p in enumerate(parents):
        if p < 0:
            continue
        lo = max(starts[i], reach[p])
        hi = min(ends[i], ends[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [e - s - c for s, e, c in zip(starts, ends, covered)]


def layer_totals(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per layer: summed self time and the number of spans."""
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    layer_of = [name.split(".", 1)[0] for name in tracer.names]
    totals = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    for nid, own in zip(tracer.name, selfs):
        entry = totals[layer_of[nid]]
        entry["self_s"] += own
        entry["calls"] += 1
    return totals


def count_spans(tracer: Tracer, name: str, parent: str | None = None) -> int:
    """Spans named name; with parent, only those whose parent span is named parent."""
    nid = tracer._ids.get(name)
    names = tracer.name
    if parent is None:
        return sum(1 for n in names if n == nid)
    pid = tracer._ids.get(parent)
    return sum(1 for n, p in zip(names, tracer.parent) if n == nid and p >= 0 and names[p] == pid)


#: (array typecode, field) in the order write_spans stores the columns.
COLUMNS = (("i", "name"), ("d", "start"), ("d", "end"), ("i", "parent"), ("i", "query_id"))


def write_spans(tracer: Tracer, path) -> None:
    """A JSON header line (span names, count, columns), then each column raw.

    Raw arrays keep writing a round of millions of spans to a fraction of a
    second; read_spans() reads the file back.
    """
    header = {"names": tracer.names, "count": len(tracer), "columns": COLUMNS}
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode() + b"\n")
        for _, field in COLUMNS:
            getattr(tracer, field).tofile(fh)


def read_spans(path) -> list[tuple[str, float, float, int, int]]:
    """The spans in a file from write_spans(), as (name, start, end, parent, query)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        columns = []
        for code, _ in header["columns"]:
            column = array(code)
            column.fromfile(fh, header["count"])
            columns.append(column)
    names = header["names"]
    return [(names[n], s, e, p, q) for n, s, e, p, q in zip(*columns)]
