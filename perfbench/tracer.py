"""Span tracer that wraps the program's layers from the outside.

``install()`` replaces every binding of each traced function, in every
module namespace of ``powersum_denoms`` that holds one, with a wrapper that
records a span: name, start, end and the id of the enclosing span.  Bindings
matter because modules import names from each other: ``formulas.digit_sum``,
``bernoulli.is_prime`` and ``padic.is_prime`` are three bindings of two
functions, and ``padic._require_prime`` looks ``is_prime`` up at call time.
Spans stay in memory and are written out by ``dump()`` when the process
ends; ``summarize()`` derives calls and self times from them.

Run as a script, it traces one CLI invocation:

    python3 perfbench/tracer.py --spans OUT seq --seq q --to 10
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from array import array
from collections import Counter
from importlib import import_module

LAYERS = ("cli", "formulas", "padic", "bernoulli", "powersum", "exact_poly")

# Methods traced besides each layer's public module-level functions.  The CLI
# is traced only at its entry point, so cli.main's self time is all the time
# spent in parsing, formatting and printing.
METHODS = {
    ("bernoulli", "BernoulliTable", "extend_to"): "bernoulli.extend_to",
    ("exact_poly", "RationalPolynomial", "eval"): "exact_poly.eval",
    ("exact_poly", "RationalPolynomial", "__mul__"): "exact_poly.mul",
    ("exact_poly", "RationalPolynomial", "__add__"): "exact_poly.add",
}
CLI_FUNCTIONS = ("main",)
POOL_SPAN = "cli.pool"


class Tracer:
    """Span store: four parallel arrays indexed by span id, plus counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]
        self.counters: Counter[str] = Counter()
        self.pid = os.getpid()

    def name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def begin(self, name_id: int) -> int:
        i = len(self.name_ids)
        self.name_ids.append(name_id)
        self.parents.append(self.stack[-1])
        self.stack.append(i)
        self.ends.append(0.0)
        self.starts.append(time.perf_counter())
        return i

    def end(self, i: int) -> None:
        self.ends[i] = time.perf_counter()
        self.stack.pop()

    def wrap(self, fn, name: str, after=None):
        """A wrapper recording one span per call; ``after(args, kwargs, result)``
        updates counters once the call returns."""
        nid = self.name_id(name)
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack, clock = self.stack, time.perf_counter

        # begin() and end() inlined: this runs millions of times in a pass.
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(name_ids)
            name_ids.append(nid)
            parents.append(stack[-1])
            stack.append(i)
            ends.append(0.0)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def dump(self, path: str) -> None:
        """Write the spans and counters; a no-op in forked pool workers."""
        if os.getpid() != self.pid:
            return
        with open(path + ".bin", "wb") as f:
            for a in (self.name_ids, self.parents, self.starts, self.ends):
                a.tofile(f)
        with open(path + ".json", "w") as f:
            json.dump(
                {"names": self.names, "spans": len(self.name_ids), "counters": self.counters},
                f,
            )


def _counter_hooks(tracer: Tracer) -> dict:
    """Functions run after a traced call returns, keyed by span name."""
    c = tracer.counters

    def primes_upto(args, kwargs, result):
        c["formulas.primes_upto.max_limit"] = max(c["formulas.primes_upto.max_limit"], args[0])
        c["formulas.primes_upto.last_len"] = len(result)

    def q_n_formula(args, kwargs, result):
        c["formulas.q_n_formula.tested"] += c["formulas.primes_upto.last_len"]
        c["formulas.q_n_formula.kept"] += len(result.primes)

    def extend_to(args, kwargs, result):
        c["bernoulli.table_max_n"] = max(c["bernoulli.table_max_n"], args[1])

    return {
        "formulas.primes_upto": primes_upto,
        "formulas.q_n_formula": q_n_formula,
        "bernoulli.extend_to": extend_to,
    }


def _bernoulli_poly_wrapper(tracer: Tracer, fn, shared_poly):
    """Counts calls that pass ``table=`` and so bypass the cache, and cache
    hits, read from the shared cache's statistics around the call."""
    traced = tracer.wrap(fn, "bernoulli.bernoulli_poly")
    c = tracer.counters

    @functools.wraps(fn)
    def counted(n, table=None):
        if table is not None:
            c["bernoulli.bernoulli_poly.uncached_calls"] += 1
            return traced(n, table)
        before = shared_poly.cache_info().hits if shared_poly else 0
        result = traced(n)
        if shared_poly and shared_poly.cache_info().hits > before:
            c["bernoulli.bernoulli_poly.hits"] += 1
        return result

    return counted


def _traced_pool(tracer: Tracer, base):
    nid = tracer.name_id(POOL_SPAN)

    class TracedPool(base):
        """Counts pool starts; its span covers the pool's life in the parent,
        so its self time is the parent waiting on the workers."""

        def __init__(self, *args, **kwargs):
            tracer.counters["cli.pool_starts"] += 1
            self._span = tracer.begin(nid)
            super().__init__(*args, **kwargs)

        def shutdown(self, *args, **kwargs):
            try:
                super().shutdown(*args, **kwargs)
            finally:
                if self._span is not None:
                    tracer.end(self._span)
                    self._span = None

    return TracedPool


def install() -> Tracer:
    """Import the program and wrap every binding of every traced function."""
    pkg = import_module("powersum_denoms")
    modules = {layer: import_module(f"powersum_denoms.{layer}") for layer in LAYERS}
    tracer = Tracer()
    hooks = _counter_hooks(tracer)
    shared_poly = getattr(modules["bernoulli"], "_shared_poly", None)

    wrappers = {}
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            if attr.startswith("_") or (layer == "cli" and attr not in CLI_FUNCTIONS):
                continue
            name = f"{layer}.{attr}"
            if name == "bernoulli.bernoulli_poly":
                wrappers[obj] = _bernoulli_poly_wrapper(tracer, obj, shared_poly)
            else:
                wrappers[obj] = tracer.wrap(obj, name, hooks.get(name))
    for (layer, cls_name, attr), name in METHODS.items():
        cls = getattr(modules[layer], cls_name)
        setattr(cls, attr, tracer.wrap(vars(cls)[attr], name, hooks.get(name)))

    for mod in (pkg, *modules.values()):
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, attr, wrappers[obj])
    cli = modules["cli"]
    cli.ProcessPoolExecutor = _traced_pool(tracer, cli.ProcessPoolExecutor)
    return tracer


def load(path: str) -> tuple[dict, array, array, array, array]:
    with open(path + ".json") as f:
        meta = json.load(f)
    n = meta["spans"]
    arrays = (array("i"), array("i"), array("d"), array("d"))
    with open(path + ".bin", "rb") as f:
        for a in arrays:
            a.fromfile(f, n)
    return (meta, *arrays)


def summarize(path: str) -> tuple[Counter, Counter, Counter]:
    """Calls and self seconds per span name, and the counters, from one dump.

    A span's self time is its duration minus the durations of its direct
    children; spans nest strictly, so the children never overlap.
    """
    meta, name_ids, parents, starts, ends = load(path)
    names = meta["names"]
    child = [0.0] * len(name_ids)
    for i, p in enumerate(parents):
        if p >= 0:
            child[p] += ends[i] - starts[i]
    calls: Counter[str] = Counter()
    self_s: Counter[str] = Counter()
    for i, nid in enumerate(name_ids):
        calls[names[nid]] += 1
        self_s[names[nid]] += ends[i] - starts[i] - child[i]
    return calls, self_s, Counter(meta["counters"])


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] != "--spans":
        print("usage: tracer.py --spans OUT <cli arguments>", file=sys.stderr)
        return 2
    tracer = install()
    from powersum_denoms import cli

    try:
        return cli.main(argv[2:])
    finally:
        sys.stdout.flush()
        tracer.dump(argv[1])


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
