"""Per-layer tracing of coloredsym from outside the program.

``Tracer.install()`` rebinds public functions of the package's modules to
wrappers that record a span per call: its name, its parent span, its
duration and its self time (duration minus the time of the child spans it
caused).  A function is rebound in every module that holds it, so calls made
through ``from .x import f`` bindings are traced too.  ``__post_init__`` of
the dataclasses of ``compositions``, ``permutations`` and ``shapes`` is traced
as the layer's ``construct`` span.  Spans are aggregated in memory by
(parent, name) and turned into the per-layer metrics by ``metrics()``.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

#: layer -> traced public functions of that module.
FUNCTIONS = {
    "symfun": [
        "colored_F", "schur_poly", "colored_ribbon", "colored_h",
        "expand_in_colored_schur", "colored_schur", "ribbon_schur_by_counting",
    ],
    "shapes": [
        "zigzag_of", "colored_zigzag_of", "rpartite_shape_of",
        "enumerate_rpartite_syt", "enumerate_syt", "enumerate_skew_shapes",
    ],
    "permutations": [
        "enumerate_colored_permutations", "colored_descent_composition",
        "descent_class_table", "descent_class",
    ],
    "compositions": ["enumerate_colored_compositions", "coarsenings"],
    "bijections": [
        "colored_class_to_tableau", "colored_tableau_to_class", "colored_rsk",
        "colored_rsk_inverse", "reading_word",
    ],
    "cli": ["main"],
}

#: Term-map kernels, traced wherever a module of the package binds them.
KERNELS = ("mul_terms", "add_terms")

#: Layers whose dataclass constructors are traced as ``<layer>.construct``.
CONSTRUCT_LAYERS = ("compositions", "permutations", "shapes")

#: suite name -> verifier function in ``coloredsym.identities``.
SUITES = {
    "reading-word": "verify_reading_word_bijection",
    "skew-schur-f": "verify_skew_schur_f_expansion",
    "ribbon-schur": "verify_ribbon_schur_positive",
    "ribbon-h": "verify_ribbon_h_alternating",
    "zigzag-count": "verify_colored_zigzag_count",
    "class-tableau": "verify_colored_class_tableau",
    "colored-ribbon-schur": "verify_colored_ribbon_schur",
    "colored-ribbon-h": "verify_colored_ribbon_h",
    "rsk": "verify_colored_rsk",
}

#: Memoized element constructors whose ``cache_info()`` gives a hit ratio.
CACHED = ("colored_F", "colored_ribbon", "colored_h")

#: Per-layer metric names with their units, in report order.
METRICS = {
    "kernel.mul_terms.calls": "count",
    "kernel.mul_terms.term_pairs": "count",
    "kernel.mul_terms.self_s": "s",
    "kernel.add_terms.calls": "count",
    "kernel.add_terms.terms": "count",
    "kernel.add_terms.self_s": "s",
    "symfun.colored_F.self_s": "s",
    "symfun.schur_poly.self_s": "s",
    "symfun.colored_ribbon.self_s": "s",
    "symfun.colored_h.self_s": "s",
    **{f"symfun.{f}.{k}": u for f in CACHED for k, u in (("calls", "count"), ("hit_ratio", "ratio"))},
    "symfun.expand_in_colored_schur.self_s": "s",
    "symfun.colored_schur.calls": "count",
    "symfun.ribbon_schur_by_counting.self_s": "s",
    "shapes.zigzag_of.calls": "count",
    "shapes.zigzag_of.self_s": "s",
    "shapes.colored_zigzag_of.self_s": "s",
    "shapes.rpartite_shape_of.self_s": "s",
    "shapes.enumerate_rpartite_syt.yielded": "count",
    "shapes.enumerate_rpartite_syt.self_s": "s",
    "shapes.enumerate_syt.self_s": "s",
    "shapes.enumerate_skew_shapes.self_s": "s",
    "shapes.construct.calls": "count",
    "shapes.construct.self_s": "s",
    "permutations.enumerate_colored_permutations.yielded": "count",
    "permutations.enumerate_colored_permutations.self_s": "s",
    "permutations.colored_descent_composition.calls": "count",
    "permutations.colored_descent_composition.self_s": "s",
    "permutations.descent_class_table.self_s": "s",
    "permutations.descent_class.self_s": "s",
    "permutations.construct.calls": "count",
    "permutations.construct.self_s": "s",
    "compositions.enumerate_colored_compositions.self_s": "s",
    "compositions.coarsenings.self_s": "s",
    "compositions.construct.calls": "count",
    "compositions.construct.self_s": "s",
    **{f"bijections.{f}.self_s": "s" for f in FUNCTIONS["bijections"]},
    **{f"identities.{suite}.self_s": "s" for suite in SUITES},
    "cli.main.self_s": "s",
    "trace.unit_s": "s",
}


def _size(args, i) -> int:
    """len() of the i-th argument of a kernel call, or 0 if it has none."""
    try:
        return len(args[i])
    except (IndexError, TypeError):
        return 0


class Tracer:
    """Span recorder; one per traced interpreter."""

    def __init__(self):
        self.stack: list[list] = []  # [name, child seconds] of open spans
        # (parent, name) -> [calls, total seconds, self seconds]
        self.edges: dict = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict = defaultdict(int)  # extra work counters
        self.caches: dict = {}

    def _close(self, name: str, t0: float) -> None:
        dt = time.perf_counter() - t0
        _, child = self.stack.pop()
        parent = self.stack[-1][0] if self.stack else None
        if self.stack:
            self.stack[-1][1] += dt
        edge = self.edges[parent, name]
        edge[1] += dt
        edge[2] += dt - child

    def wrap(self, name: str, fn, work=None):
        """Span-recording wrapper; ``work(args)`` adds to ``<name>.<key>``."""
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)

        def traced(*args, **kwargs):
            self.edges[self.stack[-1][0] if self.stack else None, name][0] += 1
            if work is not None:
                key, amount = work(args)
                self.counts[f"{name}.{key}"] += amount
            self.stack.append([name, 0.0])
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, t0)

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, name: str, fn):
        def traced(*args, **kwargs):
            self.edges[self.stack[-1][0] if self.stack else None, name][0] += 1
            gen = fn(*args, **kwargs)
            try:
                while True:
                    self.stack.append([name, 0.0])
                    t0 = time.perf_counter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self._close(name, t0)
                    self.counts[f"{name}.yielded"] += 1
                    yield item
            finally:
                gen.close()

        traced.__wrapped__ = fn
        return traced

    def install(self, modules: dict | None = None) -> "Tracer":
        """Rebind the traced names in ``modules`` (module name -> module;
        default: the loaded ``coloredsym`` modules).  A traced module, name
        or verifier that the package lacks is skipped, so its metrics read 0
        instead of ending the run."""
        pkg = modules if modules is not None else {
            name: mod
            for name, mod in list(sys.modules.items())
            if name == "coloredsym" or name.startswith("coloredsym.")
        }

        def rebind(original, wrapper):
            for mod in pkg.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

        def lookup(module, fname):
            return getattr(pkg.get(f"coloredsym.{module}"), fname, None)

        for layer, names in FUNCTIONS.items():
            for fname in names:
                original = lookup(layer, fname)
                if original is None:
                    continue
                if fname in CACHED and hasattr(original, "cache_info"):
                    self.caches[fname] = original
                rebind(original, self.wrap(f"{layer}.{fname}", original))
        for suite, fname in SUITES.items():
            original = lookup("identities", fname)
            if original is not None:
                rebind(original, self.wrap(f"identities.{suite}", original))
        work = {
            "mul_terms": lambda args: ("term_pairs", _size(args, 0) * _size(args, 1)),
            "add_terms": lambda args: ("terms", _size(args, 1)),
        }
        for kname in KERNELS:
            originals = {id(vars(m)[kname]): vars(m)[kname] for m in pkg.values() if kname in vars(m)}
            for original in originals.values():
                rebind(original, self.wrap(f"kernel.{kname}", original, work[kname]))
        for layer in CONSTRUCT_LAYERS:
            mod = pkg.get(f"coloredsym.{layer}")
            for cls in vars(mod).values() if mod else ():
                if (
                    isinstance(cls, type)
                    and cls.__module__ == mod.__name__
                    and "__post_init__" in vars(cls)
                ):
                    cls.__post_init__ = self.wrap(f"{layer}.construct", cls.__post_init__)
        return self

    def totals(self) -> dict:
        """name -> [calls, self seconds], summed over parents."""
        out: dict = defaultdict(lambda: [0, 0.0])
        for (_, name), (calls, _, self_s) in self.edges.items():
            out[name][0] += calls
            out[name][1] += self_s
        return out

    def snapshot(self) -> dict:
        """Raw counters of this interpreter, summable across interpreters."""
        totals = self.totals()
        raw = {}
        for name, (calls, self_s) in totals.items():
            raw[f"{name}.calls"] = calls
            raw[f"{name}.self_s"] = self_s
        raw.update(self.counts)
        for fname, fn in self.caches.items():
            info = fn.cache_info()
            raw[f"symfun.{fname}.hits"] = info.hits
            raw[f"symfun.{fname}.misses"] = info.misses
        return raw

    def spans(self) -> list:
        """Aggregated span edges for the span file."""
        return [
            {"parent": parent, "name": name, "calls": calls, "total_s": total, "self_s": self_s}
            for (parent, name), (calls, total, self_s) in sorted(
                self.edges.items(), key=lambda kv: (kv[0][0] or "", kv[0][1])
            )
        ]


def metrics(raw: dict, unit_s: float) -> dict:
    """Per-layer metrics from summed raw counters of one traced unit."""
    out = {}
    for name in METRICS:
        if name == "trace.unit_s":
            out[name] = unit_s
        elif name.endswith(".hit_ratio"):
            base = name[: -len(".hit_ratio")]
            hits = raw.get(f"{base}.hits", 0)
            calls = hits + raw.get(f"{base}.misses", 0)
            out[name] = hits / calls if calls else 0.0
        else:
            out[name] = raw.get(name, 0.0 if name.endswith("_s") else 0)
    return out
