"""Run the nashlab CLI once with every layer traced from outside.

    python3 bench/trace_nashlab.py OUT_PATH CLI_ARGS...

With ``src`` on ``PYTHONPATH``, this wraps the functions in :data:`LAYERS` in
every ``nashlab`` module namespace that holds them (``from .intlinalg import
determinant`` binds a copy per importing module) and the methods on their
classes, wraps the ``multiprocessing.Pool`` that ``nashlab.iterate`` sees,
calls ``nashlab.cli.main(CLI_ARGS)``, and exits with its exit code.  After
the CLI returns it counts the isomorphism classes among each tree's nodes
(untraced) and writes the spans and counters to OUT_PATH.

Work done inside pool worker processes is not traced: with ``--jobs 2`` only
the pool's own start, map and shutdown times are visible.
"""
from __future__ import annotations

import importlib
import sys
import time
from collections import Counter

from tracer import Tracer

#: Traced functions per layer, in stack order; ``Class.method`` for methods.
LAYERS = {
    "intlinalg": ("determinant", "hermite_normal_form", "smith_normal_form", "kernel_basis",
                  "solve_rational"),
    "cones": ("dual_rays", "hilbert_basis", "Cone.contains"),
    "semigroups": ("AffineSemigroup.member", "AffineSemigroup.minimal_generators",
                   "unit_quotient", "is_smooth", "invariant_key", "isomorphic", "canonicalize"),
    "blowup": ("log_jacobian", "minimalize", "blowup_charts", "step_charts"),
    "iterate": ("run",),
    "cli": ("main",),
}

#: Spans of the pool's start-up and shutdown; ``iterate.pool.map`` is the rest.
POOL_SETUP_SPANS = ("iterate.pool.start", "iterate.pool.close", "iterate.pool.join")


def span_name(layer, function):
    return f"{layer}.{function.rpartition('.')[2]}"


class _PoolView:
    """Stands in for the ``multiprocessing`` module inside ``nashlab.iterate``:
    ``Pool`` is timed, every other attribute is the real one."""

    def __init__(self, real, tracer, counters):
        self._real = real
        self._tracer = tracer
        self._counters = counters

    def __getattr__(self, name):
        return getattr(self._real, name)

    def Pool(self, *args, **kwargs):  # noqa: N802  (mirrors multiprocessing.Pool)
        tracer, counters = self._tracer, self._counters
        pool = tracer.wrap("iterate.pool.start", self._real.Pool)(*args, **kwargs)

        class TimedPool:
            def map(self, fn, tasks):
                counters["pool_tasks"] += len(tasks)
                return tracer.wrap("iterate.pool.map", pool.map)(fn, tasks)

            def close(self):
                return tracer.wrap("iterate.pool.close", pool.close)()

            def join(self):
                return tracer.wrap("iterate.pool.join", pool.join)()

        return TimedPool()


def install(tracer: Tracer, counters: Counter, trees: list) -> None:
    """Trace every function of :data:`LAYERS` wherever ``nashlab`` bound it."""
    import nashlab.cli  # noqa: F401  (imports every layer)

    def after_charts(charts, args):
        counters["charts"] += len(charts)
        counters["vertex_charts"] += sum(1 for c in charts if c.vertex)

    def after_minimalize(ideal, args):
        counters["exponents_in"] += len(args[0].exponents)
        counters["exponents_out"] += len(ideal.exponents)

    def after_isomorphic(cert, args):
        counters["iso_hits"] += cert is not None

    hooks = {
        "blowup.blowup_charts": after_charts,
        "blowup.minimalize": after_minimalize,
        "semigroups.isomorphic": after_isomorphic,
        "iterate.run": lambda tree, args: trees.append(tree),
    }
    namespaces = [m for n, m in sorted(sys.modules.items())
                  if n == "nashlab" or n.startswith("nashlab.")]
    for layer, functions in LAYERS.items():
        home = importlib.import_module(f"nashlab.{layer}")
        for function in functions:
            name = span_name(layer, function)
            cls, _, attr = function.rpartition(".")
            if cls:
                tracer.patch(getattr(home, cls), attr, name, hooks.get(name))
                continue
            original = home.__dict__[attr]
            for ns in namespaces:
                if ns.__dict__.get(attr) is original:
                    tracer.patch(ns, attr, name, hooks.get(name))
    iterate = importlib.import_module("nashlab.iterate")
    tracer.replace(iterate, "multiprocessing", _PoolView(iterate.multiprocessing, tracer, counters))


def count_classes(tree) -> int:
    """Distinct isomorphism classes among a tree's nodes (call untraced)."""
    from nashlab.semigroups import invariant_key, isomorphic

    reps = {}
    for node in tree.nodes:
        sg = node.semigroup
        bucket = reps.setdefault(invariant_key(sg), [])
        if all(isomorphic(sg, r) is None for r in bucket):
            bucket.append(sg)
    return sum(len(b) for b in reps.values())


def main(out_path, argv) -> int:
    import nashlab.cli

    tracer, counters, trees = Tracer(), Counter(), []
    install(tracer, counters, trees)
    code = nashlab.cli.main(argv)
    sys.stdout.flush()
    done = time.perf_counter()
    tracer.unpatch()
    counters["nodes"] = sum(len(t.nodes) for t in trees)
    counters["classes"] = sum(count_classes(t) for t in trees)
    meta = {"counters": dict(counters), "post_s": time.perf_counter() - done}
    tracer.dump(out_path, meta)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
