"""Spans around kzero's public functions, installed from outside `src/`.

`Tracer.install()` imports `kzero.cli` (which loads every module), wraps each
public function of the traced modules, and rebinds the wrapper wherever a
kzero module holds the original, so `from ... import` copies such as
`elliptic.is_prime` or `lfunction.trace_of_frobenius` are traced too.  A few
methods and one private helper that the per-layer metrics need are wrapped
as well.

A span is (name, start, end, parent, operation id).  Spans stay in memory in
flat arrays and are written out by `dump` when the process ends.  A span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from array import array

MODULES = ("primes", "quadfield", "contfrac", "bratteli", "coherence", "groupalg",
           "elliptic", "lfunction", "cli")

_ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
          "__truediv__", "__rtruediv__", "floor")
# (module, class or None, attribute, span name) beyond the public functions
_EXTRA = (
    *(("quadfield", "QuadElement", a, "quadfield.arith") for a in _ARITH),
    ("elliptic", "ApCache", "_load", "elliptic.apcache.load"),
    ("elliptic", "ApCache", "lookup", "elliptic.apcache.lookup"),
    ("elliptic", "ApCache", "flush", "elliptic.apcache.flush"),
    ("lfunction", None, "_fold", "lfunction.fold"),
)

_FIELDS = (("start", "d"), ("end", "d"), ("name", "i"), ("parent", "i"), ("op", "i"))


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans = {field: array(code) for field, code in _FIELDS}
        self.counters = {
            "contfrac.steps": 0,
            "lfunction.euler_factors": 0,
            "elliptic.apcache.rows_loaded": 0,
            "elliptic.apcache.hits": 0,
        }
        self.op_id = -1
        self._stack: list[int] = []

    def _hooks(self) -> dict:
        c = self.counters

        def steps(args, cf):
            c["contfrac.steps"] += len(cf.preperiod) + len(cf.period)

        def factors(args, value):
            c["lfunction.euler_factors"] += len(args[0])

        def rows(args, _):
            c["elliptic.apcache.rows_loaded"] += len(args[0]._rows)

        def hit(args, value):
            c["elliptic.apcache.hits"] += value is not None

        return {
            "contfrac.expand": steps,
            "lfunction.fold": factors,
            "elliptic.apcache.load": rows,
            "elliptic.apcache.lookup": hit,
        }

    def wrap(self, name: str, fn, hook=None):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        s = self.spans
        starts, ends, names, parents, ops = s["start"], s["end"], s["name"], s["parent"], s["op"]
        stack, clock, tracer = self._stack, time.perf_counter, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def install(self) -> None:
        import kzero.cli  # noqa: F401  (loads every traced module)

        hooks = self._hooks()
        wrapped = {}
        for mod in MODULES:
            m = sys.modules[f"kzero.{mod}"]
            for attr in m.__all__:
                fn = getattr(m, attr)
                if isinstance(fn, types.FunctionType) and fn.__module__ == m.__name__:
                    name = f"{mod}.{attr}"
                    wrapped[fn] = self.wrap(name, fn, hooks.get(name))
        for mod, cls, attr, name in _EXTRA:
            m = sys.modules[f"kzero.{mod}"]
            if cls is None:
                fn = getattr(m, attr)
                wrapped[fn] = self.wrap(name, fn, hooks.get(name))
                continue
            owner = getattr(m, cls)
            if attr in vars(owner):
                setattr(owner, attr, self.wrap(name, vars(owner)[attr], hooks.get(name)))
        for modname, m in list(sys.modules.items()):
            if modname == "kzero" or modname.startswith("kzero."):
                for attr, val in list(vars(m).items()):
                    if isinstance(val, types.FunctionType) and val in wrapped:
                        setattr(m, attr, wrapped[val])

    def dump(self, path: str) -> None:
        """Write the spans to `path` + '.bin' and names and counters to `path`."""
        chi = sys.modules["kzero.elliptic"]._chi_table.cache_info().misses
        with open(path + ".bin", "wb") as fh:
            for field, _ in _FIELDS:
                self.spans[field].tofile(fh)
        meta = {"names": self.names, "n": len(self.spans["name"]),
                "counters": {**self.counters, "elliptic.chi_tables_built": chi}}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(meta, fh)


def load_totals(path: str) -> tuple[dict, dict]:
    """Per-name calls and self time of one dump, and its counters."""
    with open(path, encoding="utf-8") as fh:
        meta = json.load(fh)
    n = meta["n"]
    cols = {}
    with open(path + ".bin", "rb") as fh:
        for field, code in _FIELDS:
            cols[field] = array(code)
            cols[field].fromfile(fh, n)
    start, end, name, parent = cols["start"], cols["end"], cols["name"], cols["parent"]
    child = [0.0] * n
    for i in range(n):
        par = parent[i]
        if par >= 0:
            child[par] += end[i] - start[i]
    calls = [0] * len(meta["names"])
    self_s = [0.0] * len(meta["names"])
    for i in range(n):
        k = name[i]
        calls[k] += 1
        self_s[k] += end[i] - start[i] - child[i]
    totals = {nm: {"calls": calls[k], "self_s": self_s[k]} for k, nm in enumerate(meta["names"])}
    return totals, meta["counters"]
