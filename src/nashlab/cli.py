"""Command-line front end: parse a semigroup (JSON or preset), run the
blowup iteration or a family sweep, and emit machine-readable reports.

Exit codes for ``nash``: 0 = Resolved, 2 = CounterexampleCycle,
3 = Inconclusive, 1 = error: :func:`main` prints any ``ValueError`` as
one ``error:`` line.  That covers bad arguments and input, a bound such as
``MAX_PARALLELEPIPED_POINTS``, and every other ``ValueError`` the library
raises, a library bug included; other exceptions keep their traceback.
A reader that closes stdout early (``| head``) changes no exit code and
leaves stderr empty.
"""
from __future__ import annotations

import argparse
import errno
import io
import json
import os
import sys
import time
from math import comb, gcd

from . import families
from .iterate import RunConfig, run, sweep
from .semigroups import from_json_dict, is_smooth

SCHEMA = "nashlab/1"
MAX_JOBS = 64  # the most worker processes --jobs may ask for

_EXIT_BY_VERDICT = {"Resolved": 0, "CounterexampleCycle": 2, "Inconclusive": 3}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


def _load_input(text: str):
    """A preset (``example:NAME``), a JSON file path, or ``-`` for stdin."""
    if text.startswith("example:"):
        return families.from_preset(text[len("example:"):])
    if text == "-":
        raw = sys.stdin.read()
        label = "<stdin>"
    else:
        try:
            with open(text, "r", encoding="utf-8") as fh:
                raw = fh.read()
        except (OSError, UnicodeDecodeError) as e:
            raise ValueError(f"cannot read {text!r}: {e}")
        label = text
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as e:
        raise ValueError(f"{label}: malformed JSON at line {e.lineno} column {e.colno}: {e.msg}")
    if isinstance(doc, dict) and "schema" in doc and doc["schema"] != SCHEMA:
        raise ValueError(f"{label}: unsupported schema {doc['schema']!r} (expected {SCHEMA!r})")
    try:
        return from_json_dict(doc)
    except ValueError as e:
        raise ValueError(f"{label}: {e}")


def _write(text: str) -> None:
    """Write and flush a command's whole output.  A reader that closes
    stdout early (``| head``) ends the write quietly: stdout is pointed at
    the null device, so the interpreter's flush at exit cannot raise again,
    and the command keeps its exit code."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _emit(doc, pretty: bool) -> None:
    _write(json.dumps(doc, indent=2 if pretty else None) + "\n")


def _run_config(args) -> RunConfig:
    return RunConfig(characteristic=args.char, normalized=args.normalized,
                     max_depth=args.max_depth, max_nodes=args.max_nodes)


def _check_writable(path: str) -> None:
    """Raise ``ValueError`` unless ``path`` can be written; the check creates and truncates nothing."""
    directory = os.path.dirname(path) or "."
    try:
        if os.path.exists(path):
            open(path, "a", encoding="utf-8").close()
        elif not os.access(directory, os.W_OK | os.X_OK):
            code = errno.EACCES if os.path.isdir(directory) else errno.ENOENT
            raise OSError(code, os.strerror(code), path)
    except OSError as e:
        raise ValueError(f"cannot write {path!r}: {e}")


def cmd_nash(args) -> int:
    root = _load_input(args.input)
    config = _run_config(args)
    if args.dot:  # checked before the run, so a bad path fails before any work
        _check_writable(args.dot)
    started = time.perf_counter()
    tree = run(root, config, jobs=args.jobs)
    elapsed = time.perf_counter() - started
    if args.dot:  # written only after the run: a failed run leaves the path as it was
        dot = tree.to_dot()
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(dot)
    report = {
        "schema": SCHEMA,
        "command": "nash",
        "input": {"rank": root.rank, "generators": [list(g) for g in root.generators]},
    }
    report.update(tree.to_json_dict(full=args.full_tree))
    report["timing_seconds"] = round(elapsed, 6)
    _emit(report, args.pretty)
    return _EXIT_BY_VERDICT[tree.verdict_summary]


def cmd_describe(args) -> int:
    s = _load_input(args.input)
    doc = {
        "schema": SCHEMA,
        "command": "describe",
        "rank": s.rank,
        "generators": [list(g) for g in s.generators],
        "pointed": s.is_pointed,
        "smooth": is_smooth(s),
    }
    doc["minimal_generators"] = (
        [list(g) for g in s.minimal_generators()] if s.is_pointed else None
    )
    if args.saturate:
        if not s.is_pointed:
            raise ValueError("--saturate requires a pointed semigroup")
        doc["hilbert_basis"] = [list(g) for g in s.saturation().generators]
    _emit(doc, args.pretty)
    return 0


def _sweep_instances(args):
    """Deterministic (label, parameters, semigroup) rows for one family."""
    fam = args.family
    rows = []
    if fam == "cyclic_quotient":
        if args.b_max < 2:
            raise ValueError("--b-max must be at least 2")
        for b in range(2, args.b_max + 1):
            for a in range(1, b):
                if gcd(a, b) == 1:
                    rows.append(((a, b), families.cyclic_quotient(a, b)))
    elif fam == "rebassoo":
        if args.max_entry < 1:
            raise ValueError("--max-entry must be at least 1")
        m = args.max_entry
        for p in range(1, m + 1):
            for q in range(1, m + 1):
                for r in range(1, m + 1):
                    if gcd(gcd(p, q), r) == 1:
                        rows.append(((p, q, r), families.rebassoo(p, q, r)))
    elif fam == "reeve":
        if args.q_max < 1:
            raise ValueError("--q-max must be at least 1")
        for q in range(1, args.q_max + 1):
            rows.append(((q,), families.reeve(q)))
    elif fam == "numerical":
        if args.count < 1 or args.gen_max < 3:
            raise ValueError("--count must be >= 1 and --gen-max >= 3")
        pool = range(2, args.gen_max + 1)
        k_max = min(4, len(pool))
        available = sum(comb(len(pool), k) for k in range(2, k_max + 1))
        if args.count > available:
            raise ValueError(f"--count {args.count} exceeds the {available} distinct generator "
                           f"sets of 2 to {k_max} integers in [2, {args.gen_max}]")
        import random  # only this family draws its instances
        rng = random.Random(args.seed)
        seen = set()
        while len(seen) < args.count:
            k = rng.randint(2, k_max)
            gens = tuple(sorted(rng.sample(pool, k)))
            seen.add(gens)
        for gens in sorted(seen):
            rows.append((gens, families.numerical(list(gens))))
    return rows


def cmd_sweep(args) -> int:
    """Tabulate :func:`~nashlab.iterate.sweep` of a family's instances:
    the verdict, depth and node count of each."""
    instances = _sweep_instances(args)
    config = _run_config(args)
    rows = sweep([s for _, s in instances], config, args.jobs)
    rows = [{"params": list(params), **row} for (params, _), row in zip(instances, rows)]
    if args.format == "csv":
        import csv  # only this format needs it
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["params", "verdict", "depth", "nodes"])
        for r in rows:
            writer.writerow([" ".join(str(p) for p in r["params"]), r["verdict"], r["depth"], r["nodes"]])
        _write(out.getvalue())
    else:
        _emit(
            {
                "schema": SCHEMA,
                "command": "sweep",
                "family": args.family,
                "config": config.to_json_dict(config.max_depth),
                "rows": rows,
            },
            args.pretty,
        )
    return 0


def _add_run_flags(p):
    p.add_argument("--char", type=int, default=0, help="field characteristic (0 or a prime)")
    p.add_argument("--normalized", action="store_true", help="saturate every chart (normalized blowup)")
    p.add_argument("--max-depth", type=int, default=None, help="iteration depth cap")
    p.add_argument("--max-nodes", type=int, default=500, help="total chart budget")
    p.add_argument("--jobs", type=int, default=1,
                   help=f"worker processes for fresh chart expansions (at most {MAX_JOBS}), "
                        "started when a run has one, never more than a level's fresh expansions; "
                        "each sweep instance starts its own pool, so on the family sweeps --jobs 2 "
                        "is several times slower than --jobs 1: it pays on large rank-4 nash runs")
    p.add_argument("--pretty", action="store_true", help="indent JSON output")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nashlab",
        description="Nash blowup iteration for affine toric varieties: "
                    "run one input, describe it, or sweep a family.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_nash = sub.add_parser("nash", help="iterate the (normalized) Nash blowup")
    p_nash.add_argument("input", help="JSON file, '-' for stdin, or example:NAME[:params]")
    _add_run_flags(p_nash)
    p_nash.add_argument("--dot", metavar="PATH", help="write the chart tree in DOT format")
    p_nash.add_argument("--full-tree", action="store_true", help="embed every node in the report")
    p_nash.set_defaults(func=cmd_nash)

    p_desc = sub.add_parser("describe", help="summarize one semigroup")
    p_desc.add_argument("input", help="JSON file, '-' for stdin, or example:NAME[:params]")
    p_desc.add_argument("--saturate", action="store_true", help="include the Hilbert basis")
    p_desc.add_argument("--pretty", action="store_true", help="indent JSON output")
    p_desc.set_defaults(func=cmd_describe)

    p_sweep = sub.add_parser("sweep", help="run a whole family and tabulate verdicts")
    p_sweep.add_argument("family", choices=["cyclic_quotient", "rebassoo", "reeve", "numerical"])
    _add_run_flags(p_sweep)
    p_sweep.add_argument("--b-max", type=int, default=12, help="cyclic_quotient: largest b")
    p_sweep.add_argument("--max-entry", type=int, default=4, help="rebassoo: largest entry")
    p_sweep.add_argument("--q-max", type=int, default=4, help="reeve: largest q")
    p_sweep.add_argument("--count", type=int, default=20, help="numerical: number of instances")
    p_sweep.add_argument("--gen-max", type=int, default=15, help="numerical: largest generator")
    p_sweep.add_argument("--seed", type=int, default=0, help="numerical: RNG seed")
    p_sweep.add_argument("--format", choices=["json", "csv"], default="json")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not 1 <= getattr(args, "jobs", 1) <= MAX_JOBS:
            raise ValueError(f"--jobs must be between 1 and MAX_JOBS = {MAX_JOBS}")
        return args.func(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
