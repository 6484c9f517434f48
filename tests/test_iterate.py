"""Iteration driver: verdicts on the class graph, budgets, determinism,
coordinate invariance, DOT and JSON serialization."""
import random

import pytest

import nashlab.blowup
import nashlab.cones
import nashlab.iterate
from nashlab.families import (
    counterexample_x,
    cyclic_quotient,
    from_preset,
    numerical,
    rebassoo,
    reeve,
)
from nashlab.iterate import (
    IterationNode,
    IterationTree,
    RunConfig,
    _mark_closed_cycles,
    default_max_depth,
    run,
)
from nashlab.semigroups import AffineSemigroup, canonicalize

from .helpers import scramble


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(characteristic=4)
    with pytest.raises(ValueError):
        RunConfig(max_depth=-1)
    with pytest.raises(ValueError):
        RunConfig(max_nodes=0)
    assert default_max_depth(2) == 25
    assert default_max_depth(4) == 10


def test_cusp_resolves_at_depth_one():
    tree = run(numerical([2, 3]), RunConfig(characteristic=0))
    assert tree.verdict_summary == "Resolved"
    assert tree.stats() == {
        "node_count": 2,
        "depth_reached": 1,
        "nodes_per_level": [1, 1],
        "verdict_counts": {"Smooth": 1, "Cycle": 0, "DepthLimit": 0},
    }
    assert tree.nodes[1].base_exponent == ((2,))


def test_cusp_cycles_at_depth_one_in_characteristic_two():
    tree = run(numerical([2, 3]), RunConfig(characteristic=2))
    assert tree.verdict_summary == "CounterexampleCycle"
    leaf = tree.nodes[1]
    assert leaf.verdict == "Cycle"
    assert leaf.cycle_target == 0
    assert leaf.closes_cycle
    assert leaf.certificate.verify(leaf.semigroup, tree.nodes[0].semigroup)


def test_smooth_root_is_a_single_smooth_node():
    tree = run(canonicalize([(1, 0), (0, 1)]), RunConfig())
    assert tree.verdict_summary == "Resolved"
    assert len(tree.nodes) == 1
    assert tree.nodes[0].verdict == "Smooth"


def test_root_with_units_gets_quotient_and_unit_rank():
    tree = run(AffineSemigroup(2, [(1, 0), (-1, 0), (0, 2), (0, 3)]), RunConfig())
    assert tree.nodes[0].unit_rank == 1
    assert tree.nodes[0].semigroup.rank == 1
    assert tree.verdict_summary == "Resolved"


@pytest.mark.parametrize(
    "preset, config, expected",
    [
        ("cdll", RunConfig(characteristic=0, max_depth=2), (72, 6)),
        ("cyclic_quotient:7,24", RunConfig(characteristic=0, normalized=True), (5, 1)),
    ],
)
def test_one_double_description_per_newton_cone(monkeypatch, preset, config, expected):
    """Each chart's one Cone inherits its facets from the Newton cone and is
    shared by its presentation, its Hilbert basis and its smoothness test, so
    a run computes one double description per expansion; pointed charts skip
    the unit search."""
    counts = {"dual_rays": 0, "contains": 0, "expanded": 0}
    dual_rays, contains = nashlab.cones.dual_rays, nashlab.cones.Cone.contains
    step_charts = nashlab.iterate.step_charts

    def counted_dual_rays(*args):
        counts["dual_rays"] += 1
        return dual_rays(*args)

    def counted_contains(self, x):
        counts["contains"] += 1
        return contains(self, x)

    def counted_step_charts(*args):
        counts["expanded"] += 1
        return step_charts(*args)

    root = from_preset(preset)
    root.cone.facets  # the root's cone is computed before the run
    monkeypatch.setattr(nashlab.cones, "dual_rays", counted_dual_rays)
    monkeypatch.setattr(nashlab.blowup, "dual_rays", counted_dual_rays)
    monkeypatch.setattr(nashlab.cones.Cone, "contains", counted_contains)
    monkeypatch.setattr(nashlab.iterate, "step_charts", counted_step_charts)
    tree = run(root, config)
    assert (len(tree.nodes), counts["expanded"]) == expected
    assert counts["dual_rays"] == counts["expanded"]
    assert counts["contains"] == 0


def test_charts_from_pool_workers_keep_their_facets(monkeypatch):
    """A chart pickled back from a pool worker carries its facets, so the
    calling process runs one double description, for the root."""
    calls = []
    dual_rays = nashlab.cones.dual_rays

    def counted_dual_rays(*args):
        calls.append(args)
        return dual_rays(*args)

    monkeypatch.setattr(nashlab.cones, "dual_rays", counted_dual_rays)
    tree = run(from_preset("cdll"), RunConfig(max_depth=2), jobs=2)
    assert len(tree.nodes) == 72
    assert len(calls) == 1


@pytest.mark.parametrize(
    "preset, config",
    [
        ("cdll", RunConfig(max_depth=2)),
        ("reeve:3", RunConfig(characteristic=2, max_depth=3, max_nodes=200)),
    ],
)
def test_one_isomorphism_call_per_cycle_leaf(monkeypatch, preset, config):
    """Equal invariant keys mean isomorphic charts, so ``run`` calls
    ``isomorphic`` once per Cycle leaf, and never in vain."""
    results = []
    isomorphic = nashlab.iterate.isomorphic

    def counted_isomorphic(a, b):
        results.append(isomorphic(a, b))
        return results[-1]

    monkeypatch.setattr(nashlab.iterate, "isomorphic", counted_isomorphic)
    tree = run(from_preset(preset), config)
    cycles = [n for n in tree.nodes if n.verdict == "Cycle"]
    assert cycles and len(results) == len(cycles)
    assert all(cert is not None for cert in results)


# Runs whose charts repeat across branches without closing a cycle.
CROSS_BRANCH_RUNS = [
    (cyclic_quotient(a, 9), RunConfig(characteristic=ch, normalized=True))
    for a in (4, 7, 8)
    for ch in (0, 2, 3, 5)
] + [
    (rebassoo(*params), RunConfig(characteristic=0, max_depth=25))
    for params in ((1, 4, 3), (4, 1, 3))
]


def test_repeated_cousin_charts_resolve():
    """A chart isomorphic to an earlier non-ancestor chart is a Cycle leaf
    into a class that resolves, so these runs are Resolved, with at least
    one such leaf each and every certificate verified."""
    for s, cfg in CROSS_BRANCH_RUNS:
        tree = run(s, cfg)
        assert tree.verdict_summary == "Resolved", (s.generators, cfg)
        cycles = [n for n in tree.nodes if n.verdict == "Cycle"]
        assert cycles and not any(n.closes_cycle for n in cycles)
        for n in cycles:
            assert n.certificate.verify(n.semigroup, tree.nodes[n.cycle_target].semigroup)


def _hand_graph(children, aliases):
    nodes = [IterationNode(id=i, semigroup=None, parent=None, depth=0) for i in range(len(children))]
    for i, kids in enumerate(children):
        nodes[i].children = list(kids)
        for k in kids:
            nodes[k].parent = i
    for leaf, target in aliases.items():
        nodes[leaf].verdict = "Cycle"
        nodes[leaf].cycle_target = target
    return nodes


def test_cycle_that_crosses_branches_is_closed():
    """0 -> {1, 2}, 1 -> 3, 2 -> 4, with 3 aliasing 2 and 4 aliasing 1: the
    only cycle, 1 -> 3 -> 2 -> 4 -> 1, runs through both branches.  Leaf 5
    aliases 2 as well but nothing leads back to it."""
    nodes = _hand_graph([[1, 2, 5], [3], [4], [], [], []], {3: 2, 4: 1, 5: 2})
    _mark_closed_cycles(nodes)
    assert [n.closes_cycle for n in nodes] == [False, False, False, True, True, False]
    nodes = _hand_graph([[1], [2], []], {2: 0})
    _mark_closed_cycles(nodes)
    assert nodes[2].closes_cycle


INVARIANCE_RUNS = CROSS_BRANCH_RUNS + [
    (numerical([2, 3]), RunConfig(characteristic=2)),
    (reeve(2), RunConfig(characteristic=2, max_depth=3, max_nodes=200)),
    (reeve(2), RunConfig(characteristic=3, max_depth=3, max_nodes=200)),
]


def test_verdicts_and_stats_do_not_depend_on_coordinates():
    """The first chart of a class becomes its representative; which chart
    that is must not change verdicts or stats under a change of lattice
    coordinates and a reordering of the generators."""
    rng = random.Random(907)
    for s, cfg in INVARIANCE_RUNS:
        tree = run(s, cfg)
        for _ in range(2):
            gens = list(scramble(s, rng).generators)
            rng.shuffle(gens)
            moved = run(canonicalize(gens), cfg)
            assert moved.verdict_summary == tree.verdict_summary, (s.generators, cfg)
            assert moved.stats() == tree.stats(), (s.generators, cfg)


def test_redundant_generators_change_nothing():
    """Adding sums of two generators presents the same semigroup, so the
    minimal generators, the verdict and the stats stay the same."""
    rng = random.Random(908)
    for s, cfg in INVARIANCE_RUNS:
        tree = run(s, cfg)
        gens = list(s.generators)
        sums = {tuple(a + b for a, b in zip(g, h)) for g in gens for h in gens}
        padded = AffineSemigroup(s.rank, gens + rng.sample(sorted(sums), 3))
        assert len(padded.generators) > len(gens)
        assert padded.minimal_generators() == s.minimal_generators()
        moved = run(padded, cfg)
        assert moved.verdict_summary == tree.verdict_summary, (s.generators, cfg)
        assert moved.stats() == tree.stats(), (s.generators, cfg)


def test_depth_limit_and_annotation():
    tree = run(cyclic_quotient(2, 5), RunConfig(characteristic=0, max_depth=0))
    assert tree.verdict_summary == "Inconclusive"
    assert tree.nodes[0].verdict == "DepthLimit"
    assert tree.nodes[0].annotation == "depth limit reached"


def test_node_budget_annotation():
    tree = run(counterexample_x(), RunConfig(characteristic=0, max_depth=3, max_nodes=12))
    assert tree.verdict_summary == "CounterexampleCycle"  # cycle found before the budget bites
    assert any(n.annotation == "node budget exhausted" for n in tree.nodes)
    assert len(tree.nodes) <= 12


def test_empty_log_jacobian_becomes_depth_limit():
    tree = run(AffineSemigroup(1, [(2,)]), RunConfig(characteristic=2))
    assert tree.verdict_summary == "Inconclusive"
    assert tree.nodes[0].verdict == "DepthLimit"
    assert "empty logarithmic Jacobian" in tree.nodes[0].annotation


def test_roots_are_reported_identically_across_runs_and_jobs():
    s = counterexample_x()
    cfg = RunConfig(characteristic=0, max_depth=2, max_nodes=80)
    import json

    a = json.dumps(run(s, cfg).to_json_dict(full=True), sort_keys=True)
    b = json.dumps(run(s, cfg).to_json_dict(full=True), sort_keys=True)
    c = json.dumps(run(s, cfg, jobs=2).to_json_dict(full=True), sort_keys=True)
    assert a == b == c


def test_tree_json_shape():
    tree = run(numerical([2, 3]), RunConfig(characteristic=2))
    doc = tree.to_json_dict(full=True)
    assert doc["verdict"] == "CounterexampleCycle"
    assert doc["config"]["characteristic"] == 2
    closing = [c for c in doc["cycles"] if c["closes_cycle"]]
    assert closing[0]["node"] == 1
    assert len(closing[0]["certificate"]) == 1
    nodes = doc["nodes"]
    assert nodes[0]["id"] == 0 and nodes[0]["parent"] is None
    assert nodes[1]["parent"] == 0 and nodes[1]["verdict"] == "Cycle"
    assert nodes[1]["closes_cycle"] is True and "vertex" not in nodes[1]
    assert set(doc["config"]) == {"characteristic", "normalized", "max_depth", "max_nodes"}
    slim = tree.to_json_dict(full=False)
    assert "nodes" not in slim


def test_dot_output_marks_verdicts_and_cycle_edges():
    tree = run(numerical([2, 3]), RunConfig(characteristic=2))
    dot = tree.to_dot()
    assert dot.startswith("digraph")
    assert "lightcoral" in dot  # cycle leaf
    assert "style=dashed, color=red" in dot
    smooth = run(numerical([2, 3]), RunConfig(characteristic=0)).to_dot()
    assert "palegreen" in smooth


def test_children_are_sorted_deterministically():
    rng = random.Random(501)
    s = cyclic_quotient(3, 7)
    t = scramble(s, rng)
    tree_s = run(s, RunConfig(characteristic=0, max_depth=2))
    tree_t = run(t, RunConfig(characteristic=0, max_depth=2))
    # same shape for isomorphic roots
    assert tree_s.stats()["nodes_per_level"] == tree_t.stats()["nodes_per_level"]
    for n in tree_s.nodes:
        assert n.children == sorted(n.children)


def test_verdict_priority_smooth_over_cycle():
    """A chart that is smooth is never reported as a cycle even when an
    isomorphic smooth chart was seen before."""
    tree = run(cyclic_quotient(1, 2), RunConfig(characteristic=0))
    smooth_nodes = [n for n in tree.nodes if n.verdict == "Smooth"]
    assert len(smooth_nodes) >= 2
    assert all(n.verdict != "Cycle" for n in tree.nodes if n.verdict == "Smooth")
    assert tree.verdict_summary == "Resolved"
