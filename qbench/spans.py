"""In-memory span tracer that wraps qsym's public functions from outside.

``Tracer.install`` replaces each target function by a recording wrapper in
every qsym module namespace that binds it, so a call is seen wherever the
caller looks the name up (``spectral`` and ``so_twist`` each bind their own
``walsh_matrix``, ``cli`` binds ``automorphisms`` and so on).  A span is
``(name, start_ns, end_ns, parent, counts)``: ``parent`` is the index of the
enclosing span or -1, and ``counts`` holds the work counters read off the
call's arguments and result.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import inspect
import json
from collections import defaultdict
from time import perf_counter_ns

MODULES = ("qsym", "qsym.graphs", "qsym.boolean_group", "qsym.spectral",
           "qsym.star_algebra", "qsym.so_twist", "qsym.cli", "qsym.fixtures")


def _arguments(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _samples(fn, args, kwargs, result) -> dict:
    a = _arguments(fn, args, kwargs)
    if "n_samples" in a:  # twisted_relation_check: special orthogonal + control draws
        return {"so_twist.so_samples": 2 * a["n_samples"]}
    return {"so_twist.so_samples": a["samples"]} if a["model"] == "twisted" else {}


def _lemma_p_name(fn, args, kwargs) -> str:
    return "so_twist.lemma_P_" + _arguments(fn, args, kwargs)["model"]


#: (module, function, span name or name function, counter function or None)
TARGETS = (
    ("graphs", "automorphisms", "graphs.automorphisms",
     lambda f, a, k, r: {"graphs.automorphisms_enumerated": len(r)}),
    ("graphs", "find_disjoint_pair", "graphs.find_disjoint_pair", None),
    ("graphs", "is_automorphism", "graphs.is_automorphism", None),
    ("boolean_group", "folded_cube", "boolean_group.folded_cube", None),
    ("boolean_group", "walsh_matrix", "boolean_group.walsh_matrix", None),
    ("spectral", "verify_spectrum", "spectral.verify_spectrum",
     lambda f, a, k, r: {"spectral.eigenpairs_checked": sum(lvl["multiplicity"] for lvl in r.levels)}),
    ("spectral", "eigenprojections", "spectral.eigenprojections", None),
    ("spectral", "preserves_eigenspaces", "spectral.preserves_eigenspaces", None),
    ("star_algebra", "rep_free_product", "star_algebra.rep_free_product", None),
    ("star_algebra", "build_witness", "star_algebra.build_witness", None),
    ("star_algebra", "certify_witness", "star_algebra.certify_witness",
     lambda f, a, k, r: {"star_algebra.witnesses_certified": int(r.passed)}),
    ("star_algebra", "recovery_products", "star_algebra.recovery_products", None),
    ("star_algebra", "op_norm", "star_algebra.op_norm", None),
    ("so_twist", "abelian_points", "so_twist.abelian_points", None),
    ("so_twist", "classical_point_action", "so_twist.classical_point_action", None),
    ("so_twist", "lemma_SO_bruteforce", "so_twist.lemma_SO", None),
    ("so_twist", "lemma_sumzero_check", "so_twist.lemma_sumzero", _samples),
    ("so_twist", "lemma_P_check", _lemma_p_name, _samples),
    ("so_twist", "twisted_relation_check", "so_twist.twisted_relation_check", _samples),
    ("so_twist", "chain_sign", "so_twist.chain_sign", None),
    ("cli", "main", "cli.main", None),
)

#: span names whose metric is self time: duration minus direct children
SELF_TIME = {"graphs.find_disjoint_pair", "spectral.verify_spectrum", "so_twist.classical_point_action"}
#: span names that also report their call count
CALLS = {"graphs.is_automorphism", "boolean_group.folded_cube", "boolean_group.walsh_matrix",
         "spectral.preserves_eigenspaces", "so_twist.classical_point_action", "so_twist.chain_sign"}
#: span names that report only their call count
CALLS_ONLY = {"star_algebra.op_norm"}
#: counters read off arguments and results
COUNTERS = ("graphs.automorphisms_enumerated", "spectral.eigenpairs_checked",
            "star_algebra.witnesses_certified", "so_twist.so_samples")
#: span names timed in the library pass (cli.main is timed apart)
TIMED = ("graphs.automorphisms", "graphs.find_disjoint_pair", "graphs.is_automorphism",
         "boolean_group.folded_cube", "boolean_group.walsh_matrix", "spectral.verify_spectrum",
         "spectral.eigenprojections", "spectral.preserves_eigenspaces",
         "star_algebra.rep_free_product", "star_algebra.build_witness",
         "star_algebra.certify_witness", "star_algebra.recovery_products",
         "so_twist.abelian_points", "so_twist.classical_point_action", "so_twist.lemma_SO",
         "so_twist.lemma_sumzero", "so_twist.lemma_P_abelian", "so_twist.lemma_P_twisted",
         "so_twist.twisted_relation_check", "so_twist.chain_sign")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._patches: list = []

    def _wrap(self, fn, name, count):
        spans, stack = self.spans, self._stack
        fixed = isinstance(name, str)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                label = name if fixed else name(fn, args, kwargs)
                spans[idx] = (label, start, end, parent, None)
            if count is not None:
                spans[idx] = (label, start, end, parent, count(fn, args, kwargs, result))
            return result

        return wrapper

    def install(self) -> None:
        import importlib

        modules = [importlib.import_module(m) for m in MODULES]
        for home, func, name, count in TARGETS:
            original = getattr(importlib.import_module("qsym." + home), func)
            wrapper = self._wrap(original, name, count)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def layer_metrics(self, first: int, last: int) -> dict[str, float]:
        """Per-layer metrics of the spans of one library pass, spans[first:last]."""
        spans = self.spans
        total = defaultdict(int)
        calls = defaultdict(int)
        counters = defaultdict(int)
        for i in range(first, last):
            name, start, end, parent, counts = spans[i]
            total[name] += end - start
            calls[name] += 1
            if parent >= first and spans[parent][0] in SELF_TIME:
                total["self:" + spans[parent][0]] += end - start
            for key, value in (counts or {}).items():
                counters[key] += value
        out = {}
        for name in TIMED:
            busy = total[name] - (total["self:" + name] if name in SELF_TIME else 0)
            out[name + "_s"] = busy / 1e9
            if name in CALLS:
                out[name + "_calls"] = calls[name]
        for name in CALLS_ONLY:
            out[name + "_calls"] = calls[name]
        for key in COUNTERS:
            out[key] = counters[key]
        return out

    def dump(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[n], start, end, parent, counts] for n, start, end, parent, counts in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "counts"],
                       "names": names, "spans": rows}, fh, separators=(",", ":"))
