"""Per-layer tracing installed from outside the package.

``Tracer.install()`` wraps the public functions of each layer and patches
the wrapper into every ``freemult`` module namespace (and class) that holds
the original, so calls between modules are seen too.  A *span* wrapper
records calls and self time (its duration minus the spans it encloses); a
*counter* wrapper only counts.  Wrappers pass straight through while
``enabled`` is false, so input generation and output checks are not
recorded.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter

import freemult as fm

# The package re-exports functions named like some of its modules
# (``freemult.decompose``), so the modules are looked up by full name.
changegen, decompose, multfunc, perron, subgroup, system, transport, words = (
    importlib.import_module(f"freemult.{m}")
    for m in ("changegen", "decompose", "multfunc", "perron", "subgroup", "system", "transport", "words")
)

# Span names whose self time is reported, as ``<metric>_s``.
SPANS = {
    "words.classify_cone": (words._k, "classify_cone"),
    "changegen.compute_Y": (changegen, "compute_Y"),
    "changegen.transport_system": (changegen, "transport_system"),
    "changegen.intertwine": (changegen, "intertwine_changegen"),
    "perron.transfer_matrix": (perron, "transfer_matrix"),
    "perron.pf_solve": (perron, "pf_eigenpair"),
    "decompose.decompose": (decompose, "decompose"),
    "system.compatibility_defect": (system, "compatibility_defect"),
    "multfunc.act": (multfunc, "act"),
    "multfunc.inner_product": (multfunc, "inner_product"),
    "transport.restrict_function": (transport, "restrict_function"),
    "transport.induce_function": (transport, "induce_function"),
    "subgroup.decompose_left": (subgroup, "decompose_left"),
}

# Every per-layer metric, in report order, with its unit.
METRICS = {
    "words.classify_cone_s": "s",
    "words.search_nodes": "count",
    "words.multiply_calls": "count",
    "words.apply_morphism_calls": "count",
    "changegen.classify_calls": "count",
    "changegen.classify_memo_hits": "count",
    "changegen.compute_Y_s": "s",
    "changegen.transport_system_s": "s",
    "changegen.intertwine_s": "s",
    "changegen.frontier_members": "count",
    "perron.transfer_matrix_s": "s",
    "perron.apply_transfer_calls": "count",
    "perron.pf_solve_s": "s",
    "perron.pf_calls": "count",
    "perron.hermitian_coords": "count",
    "decompose.decompose_s": "s",
    "decompose.invariant_search_calls": "count",
    "decompose.closure_calls": "count",
    "decompose.components": "count",
    "system.compatibility_defect_s": "s",
    "system.compatibility_defect_calls": "count",
    "multfunc.act_s": "s",
    "multfunc.act_walk_nodes": "count",
    "multfunc.act_output_values": "count",
    "multfunc.inner_product_s": "s",
    "multfunc.evaluate_calls": "count",
    "transport.restrict_function_s": "s",
    "transport.induce_function_s": "s",
    "transport.sphere_words": "count",
    "transport.output_values": "count",
    "subgroup.decompose_left_calls": "count",
    "subgroup.decompose_left_s": "s",
}


def _patch(orig, wrapper) -> None:
    """Replace ``orig`` by ``wrapper`` wherever a package module holds it."""
    for name, mod in list(sys.modules.items()):
        if name != "freemult" and not name.startswith("freemult."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, wrapper)


class Tracer:
    def __init__(self):
        self.enabled = False
        self.stack: list[list] = []  # [span name, time covered by child spans]
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()

    def span(self, name: str, fn, after=None):
        stack, self_s, calls = self.stack, self.self_s, self.calls
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self_s[name] += dt - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += dt
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counter(self, fn, count):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.enabled:
                count(result)
            return result

        return wrapper

    def install(self) -> None:
        counts, calls = self.counts, self.calls

        def on_sphere(result):
            top = self.stack[-1][0] if self.stack else None
            if top in ("transport.restrict_function", "transport.induce_function"):
                counts["transport.sphere_words"] += len(result)

        def add(metric, size):
            def after(args, result):
                counts[metric] += size(args, result)

            return after

        after = {
            "changegen.compute_Y": add("changegen.frontier_members", lambda a, r: len(r.members)),
            "perron.pf_solve": add(
                "perron.hermitian_coords", lambda a, r: sum(d * d for d in a[0].dims.values())
            ),
            "decompose.decompose": add("decompose.components", lambda a, r: len(r)),
            "multfunc.act": add("multfunc.act_output_values", lambda a, r: len(r.values)),
            "transport.restrict_function": add("transport.output_values", lambda a, r: len(r.values)),
            "transport.induce_function": add("transport.output_values", lambda a, r: len(r.values)),
        }
        for name, (mod, attr) in SPANS.items():
            orig = getattr(mod, attr)
            _patch(orig, self.span(name, orig, after.get(name)))

        def bump(metric):
            def count(result):
                counts[metric] += 1

            return count

        # The kernel multiplication runs millions of times per operation, so
        # its counter is written out inline.
        k = words._k
        multiply, stack = k.multiply, self.stack

        def multiply_wrapper(x, y):
            if self.enabled:
                counts["words.multiply_calls"] += 1
                if stack:
                    top = stack[-1][0]
                    if top == "words.classify_cone":
                        counts["words.search_nodes"] += 1
                    elif top == "multfunc.act":
                        counts["multfunc.act_walk_nodes"] += 1
            return multiply(x, y)

        _patch(multiply, multiply_wrapper)
        for orig, count in (
            (k.apply_morphism, bump("words.apply_morphism_calls")),
            (perron.apply_transfer, bump("perron.apply_transfer_calls")),
            (decompose.find_proper_invariant, bump("decompose.invariant_search_calls")),
            (decompose.closure_subsystem, bump("decompose.closure_calls")),
            (multfunc.evaluate, bump("multfunc.evaluate_calls")),
            (words.sphere, on_sphere),
        ):
            _patch(orig, self.counter(orig, count))

        # A classify call that runs no cone search was answered from the memo.
        classify = fm.GeneratorMap.classify

        def classify_wrapper(gm, y, z):
            if not self.enabled:
                return classify(gm, y, z)
            before = calls["words.classify_cone"]
            result = classify(gm, y, z)
            counts["changegen.classify_calls"] += 1
            if calls["words.classify_cone"] == before:
                counts["changegen.classify_memo_hits"] += 1
            return result

        fm.GeneratorMap.classify = classify_wrapper

    def report(self, ops: int) -> dict[str, dict]:
        """Every per-layer metric, per completed operation."""
        out = {}
        for metric in METRICS:
            if metric.endswith("_s"):
                value = self.self_s[metric[:-2]]
            elif metric.endswith("_calls") and metric[: -len("_calls")] in SPANS:
                value = self.calls[metric[: -len("_calls")]]
            elif metric == "perron.pf_calls":
                value = self.calls["perron.pf_solve"]
            else:
                value = self.counts[metric]
            out[metric] = {"value": value / ops, "unit": METRICS[metric]}
        return out
