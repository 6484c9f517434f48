"""nashlab benchmark: time to a certified verdict, end to end and per layer.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the program is the source under ``src``.
Every CLI call is a fresh ``python3 -m nashlab`` process fed through stdin
(see ``workloads.py`` for the workloads and their seeded inputs).  A run
repeats passes over the workload's CLI calls for ``--seconds`` (at least
three passes), times the set-up step between passes, checks every report
against ``reference.json`` and prints medians.

With ``--trace 0`` the metrics are the end-to-end ones: ``wall_s`` (time from
starting a CLI call to parsing its report, the median over the passes summed
over the calls), ``cpu_s`` (user + system CPU of the CLI process trees, the
same way), ``setup_s`` (median time of a fresh interpreter importing
``nashlab.cli`` and building the inputs) and ``peak_rss_mb`` (largest CLI
process).

The times are in seconds at a reference machine speed.  A shared machine's
speed drifts, by up to a factor of two within minutes, which would swamp a
change to nashlab.  So a fixed pure-Python loop that does not touch nashlab
is timed in this process just before and just after every process the
benchmark times, and that process's wall and CPU seconds are scaled by
``REFERENCE_LOOP_S / loop seconds``: a nashlab change moves them, a slow
spell of the machine mostly does not.

With ``--trace 1`` untraced and traced passes alternate, and the metrics are
per layer, taken by ``trace_nashlab.py``.  Either way the run also prints
``failed_frac`` (failed over attempted instance checks) and
``verdict_changes``, a per-instance report digest and the unscaled
seconds.  The last line of output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 0
only if every instance passed its checks.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from checks import check_nash, check_sweep, digest
from trace_nashlab import LAYERS, POOL_SETUP_SPANS, span_name
from tracer import Spans
from workloads import WORKLOADS, load_reference

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
TRACE_DIR = ROOT / ".bench_build" / "nashlab-bench"
MIN_PASSES = 3
SETUP_RUNS_FIRST = 3  # timed set-ups before the first pass ...
SETUP_RUNS_PER_PASS = 2  # ... and after every pass, so they see the same machine
LOOP_SAMPLES = 4  # calibration loops timed before and again after each process
REFERENCE_LOOP_S = 0.025  # the loop's time at the reference speed (see module docstring)

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict:
    units = {}
    for layer, functions in LAYERS.items():
        for f in functions:
            name = span_name(layer, f)
            units[f"{name}.calls"] = "count"
            units[f"{name}.self_s"] = "s"
        units[f"{layer}.self_s"] = "s"
    units.update({
        "blowup.charts": "count",
        "blowup.vertex_ratio": "ratio",
        "blowup.minimalize.exponents_in": "count",
        "blowup.minimalize.kept_ratio": "ratio",
        "semigroups.isomorphic.hit_ratio": "ratio",
        "iterate.nodes": "count",
        "iterate.expansions": "count",
        "iterate.classes": "count",
        "iterate.nodes_per_class": "ratio",
        "iterate.pool.starts": "count",
        "iterate.pool.setup_s": "s",
        "iterate.pool.map_s": "s",
        "trace.overhead_s": "s",
    })
    return units


def calibration_loop() -> float:
    """Seconds this process takes for a fixed pure-Python loop of integer
    arithmetic and dictionary updates."""
    t0 = time.perf_counter()
    s = 0
    for i in range(300_000):
        s += i * i
    d = {}
    for i in range(50_000):
        d[i % 1000] = d.get(i % 1000, 0) + i
    return time.perf_counter() - t0


@dataclass
class Process:
    code: int
    out: object  # the parsed JSON report, or None
    wall: float
    cpu: float
    rss_mb: float
    scale: float  # REFERENCE_LOOP_S / the calibration loop's median time around the process

    @property
    def wall_ref(self) -> float:
        return self.wall * self.scale

    @property
    def cpu_ref(self) -> float:
        return self.cpu * self.scale


def spawn(argv, env, stdin_text=None) -> Process:
    """Run one process to completion; its own rusage comes from ``wait4``,
    which includes the pool workers it joined."""
    loops = [calibration_loop() for _ in range(LOOP_SAMPLES)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
        stdin=subprocess.DEVNULL if stdin_text is None else subprocess.PIPE,
    )
    try:
        if stdin_text is not None:
            try:
                proc.stdin.write(stdin_text.encode("utf-8"))
                proc.stdin.close()
            except BrokenPipeError:
                pass  # the process quit early; its exit code tells why
        out = proc.stdout.read().decode("utf-8")
    except BaseException:
        proc.kill()
        raise
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        out = json.loads(out)
    except json.JSONDecodeError:
        out = None
    wall = time.perf_counter() - t0
    loops += [calibration_loop() for _ in range(LOOP_SAMPLES)]
    return Process(proc.returncode, out, wall, usage.ru_utime + usage.ru_stime,
                   usage.ru_maxrss / 1024, REFERENCE_LOOP_S / statistics.median(loops))


def set_up(argv, env, expected=None) -> Process:
    """Run the set-up step once; it must succeed and, when ``expected`` is
    given, print exactly those inputs again."""
    r = spawn(argv, env)
    if r.code != 0 or r.out is None or (expected is not None and r.out != expected):
        raise SystemExit(f"set-up {argv[-2:]} failed or printed other inputs than before")
    return r


class Pass:
    """One pass over a workload's instances, with every report checked."""

    def __init__(self, workload, inputs, env, references, trace_dir=None):
        self.outcomes = []
        self.digests = {}
        traces = []
        procs = []
        for k, inst in enumerate(WORKLOADS[workload]):
            if trace_dir is None:
                argv = [sys.executable, "-m", "nashlab", *inst.argv]
            else:
                path = trace_dir / f"{k}.trace"
                traces.append(path)
                argv = [sys.executable, str(BENCH / "trace_nashlab.py"), str(path), *inst.argv]
            procs.append(spawn(argv, env, inputs[inst.label]))
        self.procs = procs
        for inst, p in zip(WORKLOADS[workload], procs):
            ref = references[inst.label]
            if inst.preset is None:
                self.outcomes += check_sweep(p.code, p.out, ref)
            else:
                self.outcomes.append(check_nash(inst.label, p.code, p.out, ref))
            if isinstance(p.out, dict):
                self.digests[inst.label] = digest(p.out)
        if trace_dir is not None:
            self.layers = self._layer_metrics(traces)

    def _layer_metrics(self, traces) -> dict:
        """Per-layer numbers of a traced pass, summed over its processes, with
        self times scaled like ``wall_s``; the untraced class count after each
        CLI call leaves the wall times."""
        calls, self_s, counters = {}, {}, {}
        for path, proc in zip(traces, self.procs):
            if not path.exists():
                continue  # the CLI call crashed; its check already failed
            meta, spans = Spans.load(path)
            path.unlink()
            proc.wall -= meta["post_s"]
            for k, v in meta["counters"].items():
                counters[k] = counters.get(k, 0) + v
            for name, (n, s) in spans.self_times().items():
                calls[name] = calls.get(name, 0) + n
                self_s[name] = self_s.get(name, 0.0) + s * proc.scale
        m = {}
        for layer, functions in LAYERS.items():
            total = 0.0
            for f in functions:
                name = span_name(layer, f)
                m[f"{name}.calls"] = calls.get(name, 0)
                m[f"{name}.self_s"] = self_s.get(name, 0.0)
                total += m[f"{name}.self_s"]
            m[f"{layer}.self_s"] = total
        c = counters.get

        def ratio(a, b):
            return a / b if b else 0.0

        m.update({
            "blowup.charts": c("charts", 0),
            "blowup.vertex_ratio": ratio(c("vertex_charts", 0), c("charts", 0)),
            "blowup.minimalize.exponents_in": c("exponents_in", 0),
            "blowup.minimalize.kept_ratio": ratio(c("exponents_out", 0), c("exponents_in", 0)),
            "semigroups.isomorphic.hit_ratio": ratio(c("iso_hits", 0),
                                                     m["semigroups.isomorphic.calls"]),
            "iterate.nodes": c("nodes", 0),
            "iterate.expansions": m["blowup.step_charts.calls"] + c("pool_tasks", 0),
            "iterate.classes": c("classes", 0),
            "iterate.nodes_per_class": ratio(c("nodes", 0), c("classes", 0)),
            "iterate.pool.starts": calls.get("iterate.pool.start", 0),
            "iterate.pool.setup_s": sum(self_s.get(n, 0.0) for n in POOL_SETUP_SPANS),
            "iterate.pool.map_s": self_s.get("iterate.pool.map", 0.0),
        })
        return m


def instance_medians(passes, attribute, combine=sum):
    """Each CLI call's median over the passes, combined over the calls: a
    slow spell of the machine then moves one call's sample, not the run."""
    return combine(
        statistics.median(getattr(p.procs[i], attribute) for p in passes)
        for i in range(len(passes[0].procs))
    )


def run_workload(workload, seed, seconds, trace, env, references) -> dict:
    argv = [sys.executable, str(BENCH / "workloads.py"), workload, str(seed)]
    inputs = set_up(argv, env).out  # untimed: fills the bytecode cache
    setups = [set_up(argv, env, inputs) for _ in range(SETUP_RUNS_FIRST)]
    untraced, traced = [], []
    TRACE_DIR.mkdir(parents=True, exist_ok=True)
    started = last = time.perf_counter()
    pass_s = 0.0
    # Another pass starts while at least half of one still fits in ``seconds``,
    # so a run ends, on average, when its time is up.
    while (len(untraced) < (1 if trace else MIN_PASSES)
           or last - started + pass_s / 2 < seconds):
        variant = inputs[len(untraced) % len(inputs)]
        untraced.append(Pass(workload, variant, env, references))
        if trace:
            traced.append(Pass(workload, variant, env, references, trace_dir=TRACE_DIR))
        setups += [set_up(argv, env, inputs) for _ in range(SETUP_RUNS_PER_PASS)]
        now = time.perf_counter()
        pass_s, last = now - last, now
    setup_s = statistics.median(p.wall_ref for p in setups)
    passes = untraced + traced
    outcomes = [o for p in passes for o in p.outcomes]
    failed = [o for o in outcomes if not o.ok]

    print(f"== {workload}: seed {seed}, {len(untraced)} untraced and {len(traced)} traced passes"
          f" over {len(WORKLOADS[workload])} CLI call(s)")
    if all(inst.preset is None for inst in WORKLOADS[workload]):
        print("   family sweep: the CLI builds its own inputs, so the seed changes nothing")
    if trace:
        layers = [p.layers for p in traced]
        metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        metrics["trace.overhead_s"] = (instance_medians(traced, "wall_ref")
                                       - instance_medians(untraced, "wall_ref"))
        units = per_layer_units()
        for name, value in metrics.items():
            print(f"   {name:44s} {value:.6g} {units[name]}")
        if metrics["iterate.pool.starts"]:
            print("   (work inside the pool's worker processes is not traced)")
    else:
        metrics = {
            "wall_s": instance_medians(untraced, "wall_ref"),
            "cpu_s": instance_medians(untraced, "cpu_ref"),
            "setup_s": setup_s,
            "peak_rss_mb": instance_medians(untraced, "rss_mb", max),
        }
        units = END_TO_END
        scales = [p.scale for p in (*setups, *(q for u in untraced for q in u.procs))]
        print(f"   wall_s       {metrics['wall_s']:.4f} s   (sum of per-call medians over"
              f" {len(untraced)} passes; unscaled {instance_medians(untraced, 'wall'):.4f} s)")
        print(f"   cpu_s        {metrics['cpu_s']:.4f} s   (unscaled"
              f" {instance_medians(untraced, 'cpu'):.4f} s)")
        print(f"   setup_s      {setup_s:.4f} s   (median of {len(setups)} fresh set-ups; unscaled"
              f" {statistics.median(p.wall for p in setups):.4f} s)")
        print(f"   speed scale  {min(scales):.3f} to {max(scales):.3f}"
              f"  (reference loop {REFERENCE_LOOP_S} s / measured)")
        print(f"   peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB")
    print(f"   failed_frac  {len(failed) / len(outcomes):.4g}"
          f"  ({len(failed)} failed / {len(outcomes)} attempted)")
    print(f"   verdict_changes  {sum(o.changed for o in outcomes)}"
          "  (reference Inconclusive now definite; not a failure)")
    for o in failed[:20]:
        print(f"   FAILED {o.label}: {'; '.join(o.failures)}")
    for label, h in untraced[0].digests.items():
        print(f"   digest {h}  {label}  (first input set)")
    return {
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "nashlab" / "__init__.py").is_file():
        print(f"error: no nashlab source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    references = load_reference()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {w: run_workload(w, args.seed, args.seconds, args.trace, env, references)
               for w in names}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
