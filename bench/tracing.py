"""Traced mode: spans and counters around the public functions of each layer.

A wrapper replaces the function at every place its name is looked up: the
defining module, the package namespace, and each module that bound it with
`from .x import f`. Wrappers pass results and exceptions through unchanged.
Spans (name, start, end, parent, run id) stay in memory until write_spans.
A layer's self time is its span's duration minus the time of its child spans.

Recursive or very hot helpers (eval_term, substitute) are not wrapped.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

MODULES = ("terms", "dsl", "normal_forms", "engine", "functor", "finset", "derivative", "malcev", "cli")


# (module, function, span kind, extra counter name, counter function).
# A "timed" target records a span; a "counted" one only counts calls; a
# "generator" one counts calls and yielded items.
TARGETS = (
    ("engine", "decide", "timed", None, None),
    ("engine", "refute", "timed", "refuted_ratio", lambda v: v.is_refuted),
    ("engine", "prove", "timed", "proved_ratio", lambda v: v.is_proved),
    ("engine", "normalize", "timed", None, None),
    ("engine", "tri_equal", "timed", "decided_ratio", lambda r: r[0] != "unknown"),
    ("engine", "find_models", "timed", "models", len),
    ("functor", "free_algebra", "timed", "elements", lambda c: len(c.elements)),
    ("malcev", "find_malcev_term", "timed", None, None),
    ("malcev", "find_hm_chain", "timed", None, None),
    ("malcev", "kernel_pair_report", "timed", None, None),
    ("derivative", "derivative_scan", "timed", None, None),
    ("derivative", "is_weakly_independent", "timed", None, None),
    ("derivative", "is_independent", "timed", None, None),
    ("finset", "check_weak_preservation", "timed", None, None),
    ("dsl", "parse_theory", "timed", None, None),
    ("cli", "main", "timed", None, None),
    ("normal_forms", "catalog_normalizer", "counted", None, None),
    ("terms", "enumerate_terms", "generator", "yielded", None),
)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []  # [name, start, end, parent index]
        self._open: list = []  # [span index, time covered by child spans]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.sites: dict = {}  # target name -> namespaces where it was replaced

    def _timed(self, name, fn, counter, count_fn):
        spans, open_, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = open_[-1][0] if open_ else None
            frame = [idx, 0.0]
            spans.append([name, 0.0, 0.0, parent])
            open_.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                open_.pop()
                spans[idx][1:3] = start, end
                self.calls[name] += 1
                self.self_s[name] += (end - start) - frame[1]
                if open_:
                    open_[-1][1] += end - start
            if counter is not None:
                self.counts[name + "." + counter] += count_fn(result)
            return result

        return wrapper

    def _counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _generator(self, name, fn):
        key = name + ".yielded"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            for item in fn(*args, **kwargs):
                self.counts[key] += 1
                yield item

        return wrapper

    def install(self) -> None:
        """Wrap every target at every freealg namespace that holds it."""
        for m in MODULES:
            importlib.import_module(f"freealg.{m}")
        namespaces = [mod for key, mod in list(sys.modules.items())
                      if key == "freealg" or key.startswith("freealg.")]
        for module, func, kind, counter, count_fn in TARGETS:
            name = f"{module}.{func}"
            original = getattr(importlib.import_module(f"freealg.{module}"), func)
            if kind == "timed":
                wrapper = self._timed(name, original, counter, count_fn)
            elif kind == "counted":
                wrapper = self._counted(name, original)
            else:
                wrapper = self._generator(name, original)
            self.sites[name] = []
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, wrapper)
                        self.sites[name].append(ns.__name__)

    def layer_metrics(self) -> dict:
        """Per-layer values keyed by BENCHMARK.json per_layer names (ratios
        use calls as their base)."""
        out = {}
        for module, func, kind, counter, _ in TARGETS:
            name = f"{module}.{func}"
            calls = self.calls[name]
            out[name + ".calls"] = calls
            if kind == "timed":
                out[name + ".self_s"] = self.self_s[name]
            if counter is not None:
                value = self.counts[name + "." + counter]
                out[name + "." + counter] = value / calls if counter.endswith("_ratio") and calls else value
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "run": self.run_id}) + "\n")
