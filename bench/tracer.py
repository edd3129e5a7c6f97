"""Span recording around symbreak's public functions, installed from outside.

`Tracer.install()` replaces public functions and methods with wrappers that
record a span (name, start, end, parent) or bump a counter, and
`Tracer.uninstall()` puts the originals back.  A function imported by name
into another module (`from .autsearch import automorphism_group`) is a
separate binding, so every symbreak module is searched for each original
and each binding is patched.  Nothing in symbreak is edited.

Spans stay in memory until `take_pass()` folds them into per-name self time
(duration minus the time covered by child spans) and inclusive time.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import weakref
from collections import Counter
from contextlib import contextmanager

_clock = time.perf_counter

# (module, function name, span name) for module-level entry points
FUNCTIONS = [
    ("graphs", name, "graphs.generate")
    for name in (
        "generate_family", "cartesian_product", "truncate_to_ball", "path_graph",
        "cycle_graph", "complete_graph", "complete_bipartite", "star_graph",
        "hypercube", "rooted_tree", "load_graph", "parse_graph_text",
        "graph_from_json_dict",
    )
] + [
    ("colourings", "distinguishing_probability_mc", "colourings.mc"),
    ("colourings", "distinguishing_probability_exact", "colourings.exact"),
    ("colourings", "colouring_stabiliser", "colourings.stabiliser"),
    ("colourings", "find_tree_automorphism", "colourings.tree_auto"),
    ("colourings", "russel_sundaram_bound", "colourings.rs_bound"),
    ("colourings", "is_distinguishing", "colourings.distinguish"),
    ("colourings", "random_colouring", "colourings.random"),
    ("colourings", "partial_stabiliser", "colourings.partial"),
    ("topology", "expected_stabiliser_measure", "topology.measure"),
    ("topology", "ball_decomposition", "topology.balls"),
    ("topology", "haar_fraction", "topology.haar"),
    ("topology", "agreement_level", "topology.metric"),
    ("topology", "ultrametric_distance", "topology.metric"),
    ("conditions", "dsc_check", "conditions.dsc"),
    ("conditions", "sphere_equivalence", "conditions.classes"),
    ("conditions", "sphere_classes", "conditions.classes"),
    ("conditions", "suborbit_equivalence", "conditions.classes"),
    ("conditions", "suborbit_classes", "conditions.classes"),
    ("conditions", "gamma_refinement_iterate", "conditions.classes"),
    ("conditions", "layer_fixing_report", "conditions.layers"),
    ("conditions", "growth_bound", "conditions.growth"),
    ("conditions", "growth_classifier", "conditions.growth"),
    ("conditions", "match_probability", "conditions.growth"),
    ("suites", "run_suite", "suites.batch"),
]

# PermGroup queries that need the stabiliser chain, which is built lazily
CHAIN_METHODS = ("order", "contains", "element_list")
CHAIN_PROPERTIES = ("base", "strong_generators", "transversals")


class Tracer:
    def __init__(self, package):
        self.package = package
        self.enabled = False
        self.spans = []  # [name, start, end, parent index]
        self.stack = []
        self.counts = Counter()
        self._patched = []
        self._chained = weakref.WeakSet()

    # -- span bookkeeping ----------------------------------------------------

    def begin(self, name):
        idx = len(self.spans)
        self.spans.append([name, _clock(), None, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def end(self, idx):
        self.spans[idx][2] = _clock()
        self.stack.pop()

    @contextmanager
    def paused(self):
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def take_pass(self):
        """Self and inclusive seconds per span name plus the counters, then reset."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s, incl_s = Counter(), Counter()
        for (name, start, end, _), covered in zip(self.spans, child):
            self_s[name] += end - start - covered
            incl_s[name] += end - start
        counts = Counter(self.counts)
        self.spans, self.stack = [], []
        self.counts.clear()  # the installed wrappers hold this Counter
        return self_s, incl_s, counts

    # -- wrappers --------------------------------------------------------------

    def _spanned(self, fn, name, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if after is not None:
                with tracer.paused():
                    after(idx, args, kwargs, result)
            return result

        return wrapper

    def _counted(self, fn, key):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.enabled:
                tracer.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _ensure_chain(self, group):
        """Time the first chain-needing query on each PermGroup as chain build."""
        if group in self._chained:
            return
        self._chained.add(group)
        idx = self.begin("groups.chain")
        try:
            self._orig_order(group)
            with self.paused():
                self.counts["groups.base_len"] += len(self._orig_base.fget(group))
                self.counts["groups.strong_gens"] += len(self._orig_sgs.fget(group))
        finally:
            self.end(idx)

    def _chain_method(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(group, *args, **kwargs):
            if tracer.enabled:
                tracer._ensure_chain(group)
            return fn(group, *args, **kwargs)

        return wrapper

    def _chain_property(self, prop):
        tracer = self

        def getter(group):
            if tracer.enabled:
                tracer._ensure_chain(group)
            return prop.fget(group)

        return property(getter, doc=prop.__doc__)

    def _traced_elements(self, fn):
        tracer = self

        def steps(gen):
            while True:
                idx = tracer.begin("groups.elements")
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer.end(idx)
                tracer.counts["groups.elements_yielded"] += 1
                yield item

        @functools.wraps(fn)
        def wrapper(group, *args, **kwargs):
            if not tracer.enabled:
                return fn(group, *args, **kwargs)
            tracer._ensure_chain(group)
            idx = tracer.begin("groups.elements")
            try:
                gen = fn(group, *args, **kwargs)
            finally:
                tracer.end(idx)
            return steps(gen)

        return wrapper

    # -- install / uninstall -------------------------------------------------------

    def _set(self, owner, attr, value):
        # a class keeps the raw descriptor (property, classmethod) for restoring
        current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patched.append((owner, attr, current))
        setattr(owner, attr, value)

    def _patch_everywhere(self, original, wrapper):
        """Replace every module-level binding of `original` in the package."""
        prefix = self.package.__name__
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == prefix or modname.startswith(prefix + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def install(self):
        pkg = self.package
        mods = {name: sys.modules[f"{pkg.__name__}.{name}"] for name in
                ("graphs", "groups", "perms", "rng", "autsearch", "colourings",
                 "topology", "conditions", "suites")}
        counts = self.counts

        def after_for(span):
            if span == "colourings.mc":
                sig = inspect.signature(mods["colourings"].distinguishing_probability_mc)

                def after_mc(idx, args, kwargs, result):
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    counts.update({"colourings.mc_trials": bound.arguments["trials"]})

                return after_mc
            if span == "colourings.stabiliser":
                return lambda i, a, k, r: counts.update({"colourings.stabiliser_calls": 1})
            if span == "conditions.dsc":
                return lambda i, a, k, r: counts.update({"conditions.dsc_pairs": r.checked_pairs})
            return None

        for modname, fname, span in FUNCTIONS:
            original = getattr(mods[modname], fname)
            self._patch_everywhere(original, self._spanned(original, span, after_for(span)))

        def after_aut(idx, args, kwargs, group):
            g = args[0] if args else kwargs["g"]
            kind = "tree" if g.is_tree() else "search"
            self.spans[idx][0] = f"autsearch.{kind}"
            coloured = (args[1] if len(args) > 1 else kwargs.get("vertex_colours")) is not None
            counts.update({f"autsearch.{kind}_calls": 1,
                           "autsearch.coloured_calls": int(coloured),
                           "autsearch.generators": len(group.generators)})

        original = mods["autsearch"].automorphism_group
        self._patch_everywhere(original, self._spanned(original, "autsearch.search", after_aut))

        graph_cls = mods["graphs"].Graph
        from_edges = graph_cls.__dict__["from_edges"].__func__
        self._set(graph_cls, "from_edges", classmethod(self._spanned(from_edges, "graphs.generate")))
        self._set(graph_cls, "distances", self._spanned(
            graph_cls.distances, "graphs.distances",
            lambda i, a, k, r: counts.update({"graphs.distances_calls": 1})))

        rng_cls = mods["rng"].SeededRng
        self._set(rng_cls, "integers_below", self._spanned(
            rng_cls.integers_below, "rng.draw",
            lambda i, a, k, r: counts.update({"rng.draw_calls": 1, "rng.values_drawn": len(r)})))

        perm_cls = mods["perms"].Perm
        self._set(perm_cls, "__mul__", self._counted(perm_cls.__mul__, "perms.mul_calls"))
        self._set(perm_cls, "inverse", self._counted(perm_cls.inverse, "perms.inverse_calls"))

        group_cls = mods["groups"].PermGroup
        self._orig_order = group_cls.order
        self._orig_base = group_cls.__dict__["base"]
        self._orig_sgs = group_cls.__dict__["strong_generators"]
        for name in CHAIN_METHODS:
            self._set(group_cls, name, self._chain_method(group_cls.__dict__[name]))
        for name in CHAIN_PROPERTIES:
            self._set(group_cls, name, self._chain_property(group_cls.__dict__[name]))
        self._set(group_cls, "elements", self._traced_elements(group_cls.elements))

        def after_motion(idx, args, kwargs, report):
            counts.update({f"groups.motion_{report.method}": 1})

        motion = self._chain_method(group_cls.motion)
        self._set(group_cls, "motion", self._spanned(motion, "groups.motion", after_motion))

    def uninstall(self):
        while self._patched:
            owner, attr, value = self._patched.pop()
            setattr(owner, attr, value)
