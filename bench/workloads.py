"""The benchmark's workloads and their seeded inputs.

Run as a script (``python3 bench/workloads.py WORKLOAD SEED`` with ``src`` on
``PYTHONPATH``) it is the set-up step every run pays and times: a fresh
interpreter imports ``nashlab.cli``, builds the workload's inputs with
``nashlab.families`` and prints them as JSON, mapping each instance label to
the text the CLI reads on stdin (``null`` for a family sweep, which builds
its own inputs and has nothing to vary by seed).

A ``nash`` input is the preset's generators after a seeded unimodular change
of coordinates with small entries and a seeded shuffle, so a claim can be
re-checked on a seed never used before: verdicts must not depend on
coordinates or generator order.  The set-up prints a list of such input sets
that the passes of a run use in turn.
"""
from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

from checks import determinant

REFERENCE_FILE = Path(__file__).with_name("reference.json")
VARIANTS = 8


@dataclass(frozen=True)
class Instance:
    label: str
    preset: str | None  # nash: preset fed on stdin after the seeded transform
    argv: tuple  # CLI arguments


def _nash(label, preset, *flags):
    return Instance(label, preset, ("nash", "-") + flags)


_CQ_SWEEP = ("sweep", "cyclic_quotient", "--b-max", "24", "--normalized")

WORKLOADS = {
    "cdll_char0": (
        _nash("cdll char 0", "cdll", "--char", "0", "--max-depth", "2", "--max-nodes", "100"),
    ),
    "reeve_charp": tuple(
        _nash(f"reeve:{q} char {p}", f"reeve:{q}", "--char", str(p), "--max-depth", "3",
              "--max-nodes", "200")
        for q in (2, 3)
        for p in (2, 3, 5, 7)
    ),
    "cq_normalized": (
        Instance("cyclic_quotient b<=24 normalized", None, _CQ_SWEEP + ("--jobs", "1")),
    ),
    "cq_normalized_jobs2": (
        Instance("cyclic_quotient b<=24 normalized", None, _CQ_SWEEP + ("--jobs", "2")),
    ),
}


def load_reference() -> dict:
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)["verdicts"]


def unimodular(rng: random.Random, d: int) -> list:
    """A d x d integer matrix of determinant +-1: a signed permutation times
    d elementary row additions with coefficient +-1."""
    m = [[int(i == j) for j in range(d)] for i in range(d)]
    if d > 1:
        for _ in range(d):
            i, j = rng.sample(range(d), 2)
            c = rng.choice((-1, 1))
            m[i] = [x + c * y for x, y in zip(m[i], m[j])]
    rng.shuffle(m)
    m = [[-x for x in row] if rng.random() < 0.5 else row for row in m]
    if abs(determinant(m)) != 1:
        raise AssertionError("seeded coordinate change is not unimodular")
    return m


def transform(generators, seed, label) -> tuple:
    """``(U, shuffled U * g for g in generators)`` for the seed and label."""
    rng = random.Random(f"{seed}:{label}")
    d = len(generators[0])
    u = unimodular(rng, d)
    out = [[sum(a * b for a, b in zip(row, g)) for row in u] for g in generators]
    rng.shuffle(out)
    return u, out


def build_inputs(workload: str, seed: int) -> list:
    """``VARIANTS`` input sets, one per pass in turn: each pass draws fresh
    coordinates, so one unlucky draw does not set a run's median."""
    from nashlab import cli, families  # noqa: F401  (the CLI's import cost is set-up)

    variants = [{} for _ in range(VARIANTS)]
    for inst in WORKLOADS[workload]:
        s = None if inst.preset is None else families.from_preset(inst.preset)
        for k, inputs in enumerate(variants):
            if s is None:
                inputs[inst.label] = None
                continue
            _, gens = transform([list(g) for g in s.generators], f"{seed}.{k}", inst.label)
            inputs[inst.label] = json.dumps({"rank": s.rank, "generators": gens})
    return variants


if __name__ == "__main__":
    name, seed = sys.argv[1], int(sys.argv[2])
    sys.stdout.write(json.dumps(build_inputs(name, seed)) + "\n")
