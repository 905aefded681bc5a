"""Per-layer tracing of the library, installed from outside it.

Every public module-level function of a layer module is replaced, in every
`boolbruhat` module namespace that binds it, by a wrapper that records a
span (name, start, end, parent). Calls between functions of one module go
through the module's globals, so they are seen too. Hot leaves are counted,
not spanned, because spanning them roughly doubles the traced time; their
time therefore lands in the calling span's self time. `Permutation.__init__`
is counted the same way.

Spans are kept in flat arrays until the benchmark ends; self time is a
span's duration minus that of its child spans.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import math
import sys
import types
from array import array
from collections import Counter
from time import perf_counter

PACKAGE = "boolbruhat"
LAYERS = (
    "permcore",
    "bruhat",
    "boolean_intersect",
    "runs_matching",
    "rs_afunction",
    "bgg_homology",
)
COUNTED_LEAVES = frozenset(
    {"permcore.descents", "permcore.support", "permcore.is_boolean", "bruhat.bruhat_leq"}
)
NOTE = (
    "counted, not spanned: Permutation.__init__, "
    + ", ".join(sorted(COUNTED_LEAVES))
    + "; their time is in the calling span's self time. Span times are scaled"
    " by the run's speed factor, like the end-to-end times"
)
ENUMERATORS = ("permcore.all_permutations", "permcore.boolean_permutations")
# Functions whose time is reported inclusive of their callees; a call nested
# in another call of the same function is not counted twice.
OUTER_TIMED = frozenset(
    {
        "permcore.boolean_permutations",
        "bruhat.intersect_ideals",
        "bgg_homology.build_sign_assignment",
        "bgg_homology.build_complex",
        "bgg_homology.integer_rank",
        "runs_matching.check_matching",
    }
)


def _sized(result, attr):
    return len(getattr(result, attr))


def _cells(rows):
    rows = list(rows)
    return len(rows) * (len(rows[0]) if rows else 0)


# Counters read off arguments or results: qualified name -> (counter, fn)
HOOKS = {
    "bruhat.intersect_ideals": ("bruhat.ideal_elems", lambda a, r: _sized(r, "elements")),
    "bruhat.principal_ideal": ("bruhat.ideal_elems", lambda a, r: _sized(r, "elements")),
    "bgg_homology.integer_rank": ("bgg_homology.rank_cells", lambda a, r: _cells(a[0])),
    "runs_matching.build_matching": (
        "runs_matching.matched_elems",
        lambda a, r: _sized(r.over, "elements"),
    ),
    "permcore.boolean_permutations": ("permcore.boolean_out", lambda a, r: len(r)),
}
FROM_SETUP = frozenset({"bgg_homology.sign_build_s"})
# Metrics read from a hook counter of another name.
COUNTER_OF = {"permcore.boolean_yield": "permcore.boolean_out"}


def _is_function(obj) -> bool:
    return isinstance(obj, types.FunctionType) or (
        callable(obj) and hasattr(obj, "cache_info") and hasattr(obj, "__wrapped__")
    )


class Tracer:
    """Spans and counters for one process; off until `active` is set."""

    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.perm_at_start = array("q")
        self.perm_at_end = array("q")
        self.stack: list[int] = []
        self.perm_new = 0
        self.counts: Counter = Counter()
        self.present: set[str] = set()
        self.broken: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of every importable layer module."""
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                continue
            self.present.add(layer)
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not _is_function(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                qual = f"{layer}.{attr}"
                if qual in COUNTED_LEAVES:
                    wrapper = self._counter(qual, obj)
                else:
                    wrapper = self._spanner(qual, obj)
                patch_everywhere(obj, wrapper, self._patches)
                self.present.add(qual)
            perm = getattr(module, "Permutation", None)
            if layer == "permcore" and isinstance(perm, type):
                self._count_constructions(perm)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def _count_constructions(self, cls) -> None:
        original = cls.__init__
        tracer = self

        def __init__(self, *args, **kwargs):
            if tracer.active:
                tracer.perm_new += 1
            original(self, *args, **kwargs)

        type.__setattr__(cls, "__init__", __init__)
        self._patches.append((cls, "__init__", original))
        self.present.add("permcore.Permutation.__init__")

    def _counter(self, qual, fn):
        counts = self.counts
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                counts[qual] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _spanner(self, qual, fn):
        tracer = self
        name_id = len(self.names)
        self.names.append(qual)
        hook = HOOKS.get(qual)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(tracer.start)
            stack = tracer.stack
            tracer.name.append(name_id)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.perm_at_start.append(tracer.perm_new)
            tracer.perm_at_end.append(0)
            tracer.end.append(0.0)
            stack.append(idx)
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf_counter()
                tracer.perm_at_end[idx] = tracer.perm_new
                stack.pop()
            if hook is not None and hook[0] not in tracer.broken:
                try:
                    tracer.counts[hook[0]] += hook[1](args, result)
                except (AttributeError, TypeError, IndexError, KeyError):
                    tracer.broken.add(hook[0])
            return result

        return wrapper

    @contextlib.contextmanager
    def paused(self):
        """Run the benchmark's own checks without recording them."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    # -- read-out ------------------------------------------------------

    def mark(self) -> tuple[int, int, Counter]:
        """A phase boundary: span count, constructions and counters so far."""
        return len(self.start), self.perm_new, Counter(self.counts)

    def summary(self, since, until) -> dict:
        """Per-function aggregates over the spans between two marks."""
        lo, hi = since[0], until[0]
        duration = [self.end[i] - self.start[i] for i in range(lo, hi)]
        child = [0.0] * (hi - lo)
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= lo:
                child[p - lo] += duration[i - lo]
        funcs: dict[str, dict] = {}
        enum_s = 0.0
        for i in range(lo, hi):
            qual = self.names[self.name[i]]
            f = funcs.setdefault(qual, {"calls": 0, "self_s": 0.0, "outer_s": 0.0, "outer_perm_new": 0})
            f["calls"] += 1
            f["self_s"] += duration[i - lo] - child[i - lo]
            if qual in OUTER_TIMED and not self._nested_in(i, lo, (qual,)):
                f["outer_s"] += duration[i - lo]
                f["outer_perm_new"] += self.perm_at_end[i] - self.perm_at_start[i]
            if qual in ENUMERATORS and not self._nested_in(i, lo, ENUMERATORS):
                enum_s += duration[i - lo]
        return {
            "functions": funcs,
            "counts": dict(until[2] - since[2]),
            "perm_new": until[1] - since[1],
            "enum_s": enum_s,
        }

    def _nested_in(self, i, lo, quals) -> bool:
        p = self.parent[i]
        while p >= lo:
            if self.names[self.name[p]] in quals:
                return True
            p = self.parent[p]
        return False


def patch_everywhere(obj, replacement, undo: list) -> None:
    """Rebind `obj` to `replacement` in every loaded package module."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if value is obj:
                setattr(module, attr, replacement)
                undo.append((module, attr, obj))


def per_layer(
    tracer: Tracer, setup: dict, sweep: dict, n: int, setup_scale=1.0, sweep_scale=1.0
) -> tuple[dict, list]:
    """The per-layer metrics of one traced sweep, and the names of those
    that cannot be measured because the functions they wrap are gone.

    A layer the workload never calls reads zero. `setup` and `sweep` are
    summaries of the two phases; only the sign build is read from setup.
    Times are multiplied by the phase's speed factor (speed.py).
    """
    funcs, counts = sweep["functions"], sweep["counts"]

    def f(qual, field):
        return funcs.get(qual, {}).get(field, 0)

    def self_s(layer):
        return sum((v["self_s"] for k, v in funcs.items() if k.split(".")[0] == layer), 0.0)

    grade_calls = f("bgg_homology.grade", "calls")
    boolean_built = f("permcore.boolean_permutations", "outer_perm_new")
    specs = {
        # name: (unit, required wrapped names (any one suffices), value)
        "permcore.perm_new": ("count", ["permcore.Permutation.__init__"], lambda: sweep["perm_new"]),
        "permcore.self_s": ("s", ["permcore"], lambda: self_s("permcore")),
        "permcore.enum_s": ("s", list(ENUMERATORS), lambda: sweep["enum_s"]),
        "permcore.boolean_yield": (
            "ratio",
            ["permcore.boolean_permutations", "permcore.Permutation.__init__"],
            lambda: counts.get("permcore.boolean_out", 0) / boolean_built if boolean_built else 0.0,
        ),
        "bruhat.self_s": ("s", ["bruhat"], lambda: self_s("bruhat")),
        "bruhat.cover_calls": (
            "count",
            ["bruhat.down_covers", "bruhat.up_covers"],
            lambda: f("bruhat.down_covers", "calls") + f("bruhat.up_covers", "calls"),
        ),
        "bruhat.intersect_s": ("s", ["bruhat.intersect_ideals"], lambda: f("bruhat.intersect_ideals", "outer_s")),
        "bruhat.leq_calls": ("count", ["bruhat.bruhat_leq"], lambda: counts.get("bruhat.bruhat_leq", 0)),
        "bruhat.ideal_elems": (
            "count",
            ["bruhat.intersect_ideals", "bruhat.principal_ideal"],
            lambda: counts.get("bruhat.ideal_elems", 0),
        ),
        "bgg_homology.sign_build_s": (
            "s",
            ["bgg_homology.build_sign_assignment"],
            lambda: setup["functions"].get("bgg_homology.build_sign_assignment", {}).get("outer_s", 0.0),
        ),
        "bgg_homology.self_s": ("s", ["bgg_homology"], lambda: self_s("bgg_homology")),
        "bgg_homology.complexes": ("count", ["bgg_homology.build_complex"], lambda: f("bgg_homology.build_complex", "calls")),
        "bgg_homology.u_built_ratio": (
            "ratio",
            ["bgg_homology.build_complex", "bgg_homology.grade"],
            lambda: f("bgg_homology.build_complex", "calls") / (grade_calls * (math.factorial(n) - 1))
            if grade_calls
            else 0.0,
        ),
        "bgg_homology.build_complex_s": ("s", ["bgg_homology.build_complex"], lambda: f("bgg_homology.build_complex", "outer_s")),
        "bgg_homology.rank_calls": ("count", ["bgg_homology.integer_rank"], lambda: f("bgg_homology.integer_rank", "calls")),
        "bgg_homology.rank_cells": ("count", ["bgg_homology.integer_rank"], lambda: counts.get("bgg_homology.rank_cells", 0)),
        "bgg_homology.rank_s": ("s", ["bgg_homology.integer_rank"], lambda: f("bgg_homology.integer_rank", "outer_s")),
        "boolean_intersect.self_s": ("s", ["boolean_intersect"], lambda: self_s("boolean_intersect")),
        "boolean_intersect.closed_form_calls": (
            "count",
            ["boolean_intersect.intersection_maximal_closed_form"],
            lambda: f("boolean_intersect.intersection_maximal_closed_form", "calls"),
        ),
        "runs_matching.self_s": ("s", ["runs_matching"], lambda: self_s("runs_matching")),
        "runs_matching.check_matching_s": (
            "s",
            ["runs_matching.check_matching"],
            lambda: f("runs_matching.check_matching", "outer_s"),
        ),
        "runs_matching.matched_elems": (
            "count",
            ["runs_matching.build_matching"],
            lambda: counts.get("runs_matching.matched_elems", 0),
        ),
        "rs_afunction.self_s": ("s", ["rs_afunction"], lambda: self_s("rs_afunction")),
    }
    metrics, absent = {}, []
    for name, (unit, needs, value) in specs.items():
        broken = COUNTER_OF.get(name, name) in tracer.broken
        if broken or not any(q in tracer.present for q in needs):
            absent.append(name)
            continue
        measured = value()
        if unit == "s":
            measured *= setup_scale if name in FROM_SETUP else sweep_scale
        metrics[name] = {"value": measured, "unit": unit}
    return metrics, absent
