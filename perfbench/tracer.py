"""Outside-in per-layer tracer: wraps the library's public functions.

Each public function of the eight layer modules is replaced, at every
module-level alias (``oracle.forest_stats`` is the same function as
``forest.forest_stats``), by a wrapper that opens a span, so a call made
through any import path is counted.  A generator function is timed per
``next()``.  A span's self time is its duration minus the durations of the
spans it directly encloses; the time the benchmark spends outside every span
is the root span's self time, ``bench.self_s``.

The wrappers must not change what the program does, and deep inputs hit
Python's recursion limit, so:

* each wrapper raises the recursion limit by exactly the frames it adds
  (measured once at install) for as long as it is on the stack;
* a public function that calls itself (``serialize_tree``) is timed at its
  outermost call only: the wrapper calls a copy of the function whose own
  name resolves to the copy, so the recursion inside adds no frames.
"""

from __future__ import annotations

import dis
import functools
import importlib
import inspect
import math
import sys
import time

MODULES = ("polyx", "stirling", "forest", "bimap", "gfs", "pipeline", "oracle", "cli")

# Functions with their own per-layer metrics; see the README for the workload
# on which each should move.
FUNCTIONS = (
    "forest.forest_stats", "forest.removable_labels", "forest.node_classes",
    "forest.label_sets", "forest.validate_forest", "forest.parse_forest",
    "forest.serialize_tree", "forest.enumerate_forests", "forest.enumerate_trees",
    "gfs.phi", "gfs.phi_set", "gfs.theta", "gfs.theta_prime", "gfs.orbit",
    "bimap.xi", "bimap.xi_inv", "bimap.chi", "bimap.chi_inv", "bimap.zeta", "bimap.zeta_inv",
    "stirling.stirling_violation", "stirling.enumerate_k_stirling", "stirling.stat_ap",
    "stirling.word_class",
    "cli.build_parser",
    "oracle.distribution", "oracle.gamma_census_bar_hat", "oracle.run_suite",
    "pipeline.psi", "pipeline.alpha_step", "pipeline.beta_step", "pipeline.gamma_map",
    "pipeline.gamma_prime_map", "pipeline.main_bijection",
    "polyx.egf_one_over_k_eulerian", "polyx.symmetric_decompose", "polyx.gamma_expand",
    "polyx.gamma_compose", "polyx.shape_properties",
)

ROOT = "bench"
PACKAGE = "stirling_forests"


def _headroom() -> int:
    """Frames that still fit on the stack below the recursion limit."""

    def down(i: int) -> int:
        try:
            return down(i + 1)
        except RecursionError:
            return i

    return down(0)


def _calls_itself(fn) -> bool:
    """True when fn, or code nested in it, loads its own module-level name."""
    name = fn.__name__
    codes = [fn.__code__]
    while codes:
        code = codes.pop()
        if any(i.opname == "LOAD_GLOBAL" and i.argval == name for i in dis.get_instructions(code)):
            return fn.__globals__.get(name) is fn
        codes.extend(c for c in code.co_consts if inspect.iscode(c))
    return False


def _forest_count(n: int, k: int) -> int:
    """Forests on n labels: prod (ik + 1), the benchmark's own formula."""
    return math.prod(i * k + 1 for i in range(n))


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # key -> [calls, self seconds, errors, yields]
        self.parents: dict[tuple[str, str], int] = {}  # (parent key, key) -> calls
        self.forest_ranges: set[tuple[tuple[int, ...], int]] = set()
        self.stack = [[ROOT, 0.0]]  # open spans: [key, seconds of enclosed spans]
        self.started = self.stopped = 0.0

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES}
        namespaces = [vars(m) for m in modules.values()]
        namespaces.append(vars(importlib.import_module(PACKAGE)))
        functions = {}
        for layer, module in modules.items():
            for obj in vars(module).values():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not obj.__name__.startswith("_")):
                    functions[obj] = f"{layer}.{obj.__name__}"
        func_extra = self._measure_extra(generator=False)
        gen_extra = self._measure_extra(generator=True)
        wrappers, recursive = {}, []
        for fn, key in functions.items():
            if inspect.isgeneratorfunction(fn):
                wrappers[fn] = self._wrap_generator(fn, key, gen_extra)
            else:
                target = [fn]
                wrappers[fn] = self._wrap_function(target, key, func_extra)
                if _calls_itself(fn):
                    recursive.append((fn, target))
        for namespace in namespaces:
            for name, obj in list(namespace.items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    namespace[name] = wrappers[obj]
        for fn, target in recursive:
            # The copy sees the wrapped module namespace for every other
            # name, so the calls it makes into other functions stay traced.
            scope = dict(fn.__globals__)
            copy = type(fn)(fn.__code__, scope, fn.__name__, fn.__defaults__, fn.__closure__)
            copy.__kwdefaults__ = fn.__kwdefaults__
            scope[fn.__name__] = copy
            target[0] = copy

    def _measure_extra(self, generator: bool) -> int:
        """Frames one wrapper adds on the stack, measured with a probe."""

        def probe():
            yield _headroom()

        def plain():
            return _headroom()

        if generator:
            wrapped = self._wrap_generator(probe, "probe", 0)
            extra = next(probe()) - next(wrapped())
        else:
            extra = plain() - self._wrap_function([plain], "probe", 0)()
        del self.stats["probe"]
        self.parents.clear()
        return extra

    # -- wrappers ---------------------------------------------------------

    def _wrap_function(self, target: list, key: str, extra: int):
        stat = self.stats.setdefault(key, [0, 0.0, 0, 0])
        parents, stack = self.parents, self.stack
        clock, get_limit, set_limit = time.perf_counter, sys.getrecursionlimit, sys.setrecursionlimit

        @functools.wraps(target[0])
        def traced(*args, **kwargs):
            edge = (stack[-1][0], key)
            parents[edge] = parents.get(edge, 0) + 1
            stat[0] += 1
            span = [key, 0.0]
            stack.append(span)
            limit = get_limit()
            set_limit(limit + extra)
            start = clock()
            try:
                return target[0](*args, **kwargs)
            except BaseException:
                stat[2] += 1
                raise
            finally:
                spent = clock() - start
                set_limit(limit)
                stack.pop()
                stat[1] += spent - span[1]
                stack[-1][1] += spent

        return traced

    def _wrap_generator(self, fn, key: str, extra: int):
        stat = self.stats.setdefault(key, [0, 0.0, 0, 0])
        parents, stack = self.parents, self.stack
        clock, get_limit, set_limit = time.perf_counter, sys.getrecursionlimit, sys.setrecursionlimit
        signature = inspect.signature(fn)
        counts_forests = key == "forest.enumerate_forests"

        def drive(inner):
            try:
                while True:
                    span = [key, 0.0]
                    stack.append(span)
                    limit = get_limit()
                    set_limit(limit + extra)
                    start = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    except BaseException:
                        stat[2] += 1
                        raise
                    finally:
                        spent = clock() - start
                        set_limit(limit)
                        stack.pop()
                        stat[1] += spent - span[1]
                        stack[-1][1] += spent
                    stat[3] += 1
                    yield item
            finally:
                inner.close()

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            edge = (stack[-1][0], key)
            parents[edge] = parents.get(edge, 0) + 1
            stat[0] += 1
            if counts_forests:
                bound = signature.bind(*args, **kwargs).arguments
                self.forest_ranges.add((tuple(sorted(bound["labels"])), bound["k"]))
            return drive(fn(*args, **kwargs))

        return traced

    # -- the traced region ------------------------------------------------

    def start(self) -> None:
        self.stack[0][1] = 0.0  # drop the install-time probes' spans
        self.started = time.perf_counter()

    def stop(self) -> None:
        self.stopped = time.perf_counter()
        if len(self.stack) != 1:
            raise RuntimeError(f"tracer stopped with {len(self.stack) - 1} spans open")

    def report(self) -> dict:
        """Per-layer counts and self times, ratios, and the accounting check."""
        wall = self.stopped - self.started
        bench_self = wall - self.stack[0][1]
        out: dict[str, float] = {}
        for layer in MODULES:
            rows = [v for k, v in self.stats.items() if k.split(".")[0] == layer]
            out[f"{layer}.calls"] = sum(r[0] for r in rows)
            out[f"{layer}.self_s"] = sum(r[1] for r in rows)
            out[f"{layer}.errors"] = sum(r[2] for r in rows)
        for key in FUNCTIONS:
            calls, self_s, _, _ = self.stats[key]
            out[f"{key}.calls"] = calls
            out[f"{key}.self_s"] = self_s
        yielded = self.stats["forest.enumerate_forests"][3]
        distinct = sum(_forest_count(len(labels), k) for labels, k in self.forest_ranges)
        out["oracle.forest_passes"] = yielded / distinct if distinct else 0.0
        out["oracle.forest_passes.yielded"] = yielded
        out["oracle.forest_passes.distinct"] = distinct
        phi_calls = self.parents.get(("forest.removable_labels", "gfs.phi"), 0)
        rl_calls = self.stats["forest.removable_labels"][0]
        out["gfs.phi.per_removable_labels"] = phi_calls / rl_calls if rl_calls else 0.0
        out["gfs.phi.per_removable_labels.phi_calls"] = phi_calls
        out["gfs.phi.per_removable_labels.removable_labels_calls"] = rl_calls
        out["bench.self_s"] = bench_self
        layer_self = sum(v[1] for v in self.stats.values())
        return {
            "metrics": out,
            "wall_s": wall,
            "accounted_s": layer_self + bench_self,
            "top_parents_of_phi": sorted(
                ((n, p) for (p, k), n in self.parents.items() if k == "gfs.phi"), reverse=True
            )[:5],
        }


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name and its unit, in print order."""
    units: dict[str, str] = {}
    for layer in MODULES:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.errors"] = "count"
    for key in FUNCTIONS:
        units[f"{key}.calls"] = "count"
        units[f"{key}.self_s"] = "s"
    units.update({
        "oracle.forest_passes": "ratio",
        "oracle.forest_passes.yielded": "count",
        "oracle.forest_passes.distinct": "count",
        "gfs.phi.per_removable_labels": "ratio",
        "gfs.phi.per_removable_labels.phi_calls": "count",
        "gfs.phi.per_removable_labels.removable_labels_calls": "count",
        "bench.self_s": "s",
        "trace.overhead": "ratio",
        "trace.traced_s": "s",
        "trace.untraced_s": "s",
    })
    return units
