"""Iteration driver: verdicts on the class graph, budgets, determinism,
coordinate invariance, expansions shared across runs, the worker pool's
lifecycle, DOT and JSON serialization."""
import json
import multiprocessing
import pickle
import random
from collections import Counter
from math import gcd

import pytest

import nashlab.blowup
import nashlab.cones
import nashlab.iterate
import nashlab.semigroups
from nashlab.blowup import EmptyLogJacobian, step_charts
from nashlab.cli import MAX_JOBS, _run_config, _sweep_instances, build_parser, main
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
    sweep,
)
from nashlab.semigroups import AffineSemigroup, IsoCertificate, canonicalize

from .helpers import apply_matrix, chart_corpus, rand_unimodular, scramble, stopped_by_the_budget


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(characteristic=4)
    with pytest.raises(ValueError):
        RunConfig(max_depth=-1)
    with pytest.raises(ValueError):
        RunConfig(max_nodes=0)
    with pytest.raises(ValueError, match="normalized must be a bool"):
        RunConfig(normalized="no")
    with pytest.raises(ValueError, match="max_nodes must be a positive integer"):
        RunConfig(max_nodes=True)
    with pytest.raises(ValueError, match="max_nodes must be a positive integer"):
        RunConfig(max_nodes=2.5)
    with pytest.raises(ValueError, match="max_depth must be a nonnegative integer"):
        RunConfig(max_depth=1.5)
    with pytest.raises(ValueError, match="max_depth must be a nonnegative integer"):
        RunConfig(max_depth=False)
    cfg = RunConfig(3, True, 0, 1)
    assert (cfg.characteristic, cfg.normalized, cfg.max_depth, cfg.max_nodes) == (3, True, 0, 1)
    assert (RunConfig().normalized, RunConfig().max_depth, RunConfig().max_nodes) == (False, None, 500)
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
    a run computes one double description of generators per expansion, the
    Newton cone's, which ``blowup_charts`` takes with its incidence masks
    from ``_double_description``; pointed charts skip the unit search.
    Every Hilbert basis here is of a simplicial cone, whose rays are read
    off its square facet matrix, so no double description of facets runs."""
    counts = {"generator_side": 0, "facet_side": 0, "hilbert_basis": 0, "contains": 0, "expanded": 0}
    dual_rays, contains = nashlab.cones.dual_rays, nashlab.cones.Cone.contains
    double_description = nashlab.blowup._double_description
    extreme_rays, hilbert_basis = nashlab.cones.Cone.extreme_rays, nashlab.semigroups.hilbert_basis
    step_charts = nashlab.iterate.step_charts
    in_extreme_rays = []

    def counted_dual_rays(*args):
        counts["facet_side" if in_extreme_rays else "generator_side"] += 1
        return dual_rays(*args)

    def counted_double_description(*args):
        counts["facet_side" if in_extreme_rays else "generator_side"] += 1
        return double_description(*args)

    def counted_extreme_rays(self):
        in_extreme_rays.append(self)
        try:
            return extreme_rays(self)
        finally:
            in_extreme_rays.pop()

    def counted_hilbert_basis(cone):
        counts["hilbert_basis"] += 1
        return hilbert_basis(cone)

    def counted_contains(self, x):
        counts["contains"] += 1
        return contains(self, x)

    def counted_step_charts(*args):
        counts["expanded"] += 1
        return step_charts(*args)

    root = from_preset(preset)
    root.cone.facets  # the root's cone is computed before the run
    monkeypatch.setattr(nashlab.cones, "dual_rays", counted_dual_rays)
    monkeypatch.setattr(nashlab.blowup, "_double_description", counted_double_description)
    monkeypatch.setattr(nashlab.cones.Cone, "contains", counted_contains)
    monkeypatch.setattr(nashlab.cones.Cone, "extreme_rays", counted_extreme_rays)
    monkeypatch.setattr(nashlab.semigroups, "hilbert_basis", counted_hilbert_basis)
    monkeypatch.setattr(nashlab.iterate, "step_charts", counted_step_charts)
    tree = run(root, config)
    assert (len(tree.nodes), counts["expanded"]) == expected
    assert counts["generator_side"] == counts["expanded"]
    assert counts["facet_side"] == 0
    assert (counts["hilbert_basis"] > 0) == config.normalized
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


REUSE_RUNS = [(cyclic_quotient(a, b), RunConfig(normalized=True))
              for b in range(2, 10) for a in range(1, b) if gcd(a, b) == 1]
REUSE_RUNS += [(rebassoo(3, 1, 2), RunConfig())]
REUSE_RUNS += [(reeve(q), RunConfig(characteristic=ch, max_depth=3)) for q in (2, 3) for ch in (0, 3)]


def _row(tree):
    stats = tree.stats()
    return tree.verdict_summary, stats["depth_reached"], tuple(stats["nodes_per_level"])


def test_isomorphic_roots_give_one_row_unless_the_node_budget_stops_them():
    """A sweep reuses the row of an isomorphic root's run: when no node
    budget stops the run, each level expands one node per new class, in
    any id order, so the verdict, depth and nodes per level do not depend
    on coordinates.  When the budget binds they do: ``cdll`` at depth 3
    with 40 nodes stops at depth 2 or 3 with 36 to 39 nodes, so such a row
    must not be reused."""
    rng = random.Random(2301)
    for s, cfg in REUSE_RUNS:
        trees = [run(s, cfg)] + [run(scramble(s, rng), cfg) for _ in range(3)]
        assert not any(map(stopped_by_the_budget, trees)), s.generators
        assert len(set(map(_row, trees))) == 1, s.generators
    cdll, cfg = counterexample_x(), RunConfig(max_depth=3, max_nodes=40)
    trees = [run(cdll, cfg)] + [run(scramble(cdll, rng), cfg) for _ in range(5)]
    assert all(map(stopped_by_the_budget, trees))
    assert len({_row(t) for t in trees}) > 1
    assert {t.verdict_summary for t in trees} == {"CounterexampleCycle"}


def test_sweep_rejects_a_root_with_units():
    """The default depth counts a root's units, which its chart drops: the
    monomial curve t^2, t^23 resolves at depth 11, while times the torus
    (C*)^3 the rank-4 default depth of 10 stops it.  So a sweep, which runs
    charts, takes only pointed roots."""
    curve = numerical([2, 23])
    axes = [tuple(int(i == j) for j in range(4)) for i in (1, 2, 3)]
    gens = [(g[0], 0, 0, 0) for g in curve.generators] + axes + [tuple(-x for x in v) for v in axes]
    assert [r["depth"] for r in sweep([curve])] == [11]
    with pytest.raises(ValueError, match="pointed"):
        sweep([curve, AffineSemigroup(4, gens)])


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


def test_a_root_runs_on_the_lattice_it_generates():
    """<2> is the smooth curve N in index-2 coordinates, so it is Resolved
    in every characteristic, and the A1 singularity in index-2 coordinates
    resolves.  A root moved by an integer M with |det M| = 2 or 3 spans a
    sublattice: its run is the run of its canonical form, and has the
    verdict and stats of the unmoved root, in characteristics 2 and 3 as
    well."""
    for ch in (0, 2, 3):
        tree = run(AffineSemigroup(1, [(2,)]), RunConfig(characteristic=ch))
        assert tree.verdict_summary == "Resolved"
        assert [n.verdict for n in tree.nodes] == ["Smooth"]
    a1 = AffineSemigroup(2, [(2, 0), (1, 1), (0, 2)])  # the A1 singularity, index 2
    assert run(a1).verdict_summary == "Resolved"
    rng = random.Random(2103)
    for s, cfg in [(cyclic_quotient(1, 2), RunConfig(characteristic=ch)) for ch in (0, 2, 3)] + [
            (from_preset("cdll"), RunConfig(characteristic=ch, max_depth=1)) for ch in (0, 2)]:
        tree = run(s, cfg)
        for index in (2, 3):
            m = rand_unimodular(rng, s.rank)
            m[0] = [index * x for x in m[0]]
            moved = AffineSemigroup(s.rank, [apply_matrix(m, g) for g in s.generators])
            assert canonicalize(moved.generators) != moved
            moved_tree = run(moved, cfg)
            assert _report(moved_tree) == _report(run(canonicalize(moved.generators), cfg))
            assert moved_tree.verdict_summary == tree.verdict_summary, (s, cfg, index)
            assert moved_tree.stats() == tree.stats(), (s, cfg, index)


def test_charts_stopped_by_the_node_budget_are_not_expanded(monkeypatch, recorder):
    """reeve(4) in characteristic 3 with 300 nodes: 31 charts are stopped
    by the node budget and 42 get children.  At ``jobs=1`` a chart is
    expanded only when the tree can take children, so once the tree is
    full no chart is expanded; the two charts stopped before then, whose
    children would overflow the budget, cost one expansion each.  The
    report is the ``jobs=2`` one, whose pool maps no more of a level's
    fresh charts than the tree has room for nodes when the level starts:
    48 tasks, where mapping every fresh chart took 73."""
    cfg = RunConfig(characteristic=3, max_nodes=300)
    calls = []
    step = nashlab.iterate.step_charts

    def counted_step_charts(*args):
        calls.append(args[0])
        return step(*args)

    monkeypatch.setattr(nashlab.iterate, "step_charts", counted_step_charts)
    tree = run(reeve(4), cfg)
    stopped = [n.id for n in tree.nodes if n.annotation == "node budget exhausted"]
    parents = [n.id for n in tree.nodes if n.children]
    assert (len(tree.nodes), len(stopped), len(parents)) == (300, 31, 42)
    expanded = {id(sg) for sg in calls}
    assert len(calls) == len(expanded) == 44
    assert [n.id for n in tree.nodes if id(n.semigroup) in expanded] == sorted(parents + [152, 157])
    monkeypatch.setattr(nashlab.iterate, "step_charts", step)
    assert not recorder.pools
    assert _report(tree) == _report(run(reeve(4), cfg, jobs=2))
    assert len(recorder.tasks) == 48
    # a task's chart is a class representative, expanded or stopped by the budget
    depth_of = {n.semigroup.generators: n.depth for n in tree.nodes
                if n.children or n.annotation == "node budget exhausted"}
    tasks = iter(recorder.tasks)
    for _, maps in recorder.pools:
        for count in maps:
            depths = {depth_of[task[1]] for _, task in zip(range(count), tasks)}
            assert len(depths) == 1
            depth = depths.pop()
            assert count <= cfg.max_nodes - sum(n.depth <= depth for n in tree.nodes)


def test_roots_are_reported_identically_across_runs_and_jobs():
    s = counterexample_x()
    cfg = RunConfig(characteristic=0, max_depth=2, max_nodes=80)
    a = _report(run(s, cfg))
    b = _report(run(s, cfg))
    c = _report(run(s, cfg, jobs=2))
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


def _report(tree):
    return json.dumps(tree.to_json_dict(full=True), sort_keys=True)


def _sweep(*argv):
    """The instances and config of ``nashlab sweep argv``."""
    args = build_parser().parse_args(["sweep", *argv])
    return [s for _, s in _sweep_instances(args)], _run_config(args)


def _assert_same_charts(carried, direct):
    """``carried`` ``(base, semigroup)`` pairs equal ``step_charts`` output:
    base exponents in the same order, generators, facets and minimality."""
    assert [base for base, _ in carried] == [c.base_exponent for c in direct]
    for (_, sg), c in zip(carried, direct):
        assert sg.generators == c.semigroup.generators
        assert sg.cone.facets == c.semigroup.cone.facets
        assert sg._mingens == c.semigroup._mingens == sg.generators


def test_carried_expansions_equal_direct_ones(monkeypatch):
    """Charts of U·Γ are U times the charts of Γ: every expansion that a run
    carries from a stored class equals ``step_charts`` on the chart itself,
    over small sweeps in several characteristics, plain and normalized."""
    corpus = [_sweep("cyclic_quotient", "--b-max", "14", "--char", str(ch), *flag)
              for ch in (0, 2, 3) for flag in ((), ("--normalized",))]
    corpus.append(_sweep("rebassoo", "--max-entry", "3"))
    corpus += [_sweep("reeve", "--q-max", "3", "--max-depth", "3", "--char", str(ch))
               for ch in (0, 2)]
    hits = []
    carried = nashlab.iterate._carried

    def recorded(entry, sg):
        hits.append((sg, carried(entry, sg)))
        return hits[-1][1]

    monkeypatch.setattr(nashlab.iterate, "_carried", recorded)
    checked = 0
    for roots, cfg in corpus:
        shared = {}
        for root in roots:
            run(root, cfg, expansions=shared)
        for sg, payload in hits:
            _assert_same_charts(payload, step_charts(sg, cfg.characteristic, cfg.normalized))
        checked += len(hits)
        hits.clear()
    assert checked > 500


def test_charts_carry_through_unimodular_maps():
    """The cross-instance orbit test: a chart moved by a seeded unimodular U
    has the charts of the original, moved by U, in characteristics
    0/2/3/5, plain and normalized."""
    rng = random.Random(1301)
    parents = sorted({chart.semigroup for depth, chart in chart_corpus()
                      if depth == 1 and chart.semigroup.rank <= 3},
                     key=lambda s: (s.rank, s.generators))
    for chart in rng.sample(parents, 24):
        for normalized in (False, True):
            parent = chart.saturation() if normalized else chart.minimal_presentation()
            cert = IsoCertificate(matrix=tuple(map(tuple, rand_unimodular(rng, parent.rank))))
            moved = cert.image(parent.generators, parent.cone.facets)
            for ch in (0, 2, 3, 5):
                try:
                    direct = step_charts(parent, ch, normalized)
                except EmptyLogJacobian:
                    with pytest.raises(EmptyLogJacobian):
                        step_charts(moved, ch, normalized)
                    continue
                carried = sorted(((cert.apply(c.base_exponent),
                                   cert.image(c.semigroup.generators, c.semigroup.cone.facets))
                                  for c in direct), key=lambda c: c[0])
                _assert_same_charts(carried, step_charts(moved, ch, normalized))


@pytest.mark.parametrize("argv", [("cyclic_quotient", "--b-max", "12"),
                                  ("rebassoo", "--max-entry", "2")])
def test_shared_expansions_give_the_fresh_reports(argv):
    roots, cfg = _sweep(*argv)
    shared = {}
    for root in roots:
        assert _report(run(root, cfg, expansions=shared)) == _report(run(root, cfg))
    assert shared


def test_one_dict_serves_several_configs():
    """The stored key holds the characteristic and normalization, so one
    dict reused for char 0, then char 2, then normalized runs still gives
    every fresh report."""
    shared = {}
    for flags in ((), ("--char", "2"), ("--normalized",)):
        roots, cfg = _sweep("cyclic_quotient", "--b-max", "9", *flags)
        for root in roots:
            assert _report(run(root, cfg, expansions=shared)) == _report(run(root, cfg))
    assert {key[:2] for key in shared} == {(0, False), (2, False), (0, True)}


def test_a_sweep_expands_each_class_once(monkeypatch):
    """With one dict per sweep, each chart class is expanded once; every
    other expandable chart costs one verified isomorphism instead."""
    counts = {"expanded": 0, "isomorphic": 0}
    step, isomorphic = nashlab.iterate.step_charts, nashlab.iterate.isomorphic

    def counted_step_charts(*args):
        counts["expanded"] += 1
        return step(*args)

    def counted_isomorphic(a, b):
        counts["isomorphic"] += 1
        return isomorphic(a, b)

    monkeypatch.setattr(nashlab.iterate, "step_charts", counted_step_charts)
    monkeypatch.setattr(nashlab.iterate, "isomorphic", counted_isomorphic)
    roots, cfg = _sweep("cyclic_quotient", "--b-max", "24", "--normalized")
    shared = {}
    trees = [run(root, cfg, expansions=shared) for root in roots]
    cycles = sum(n.verdict == "Cycle" for t in trees for n in t.nodes)
    assert counts["expanded"] == len(shared) == 121
    assert counts["isomorphic"] - cycles == 512 - 121


def test_a_bad_certificate_or_stored_entry_fails_loudly(monkeypatch):
    """cyclic_quotient(3, 5) is cyclic_quotient(2, 5) with the axes swapped,
    so its root is carried from the other's stored expansion; a certificate
    that does not map the representative onto it, or stored facets that are
    negative on a generator, raise instead of giving a chart."""
    cfg = RunConfig()
    shared = {}
    run(cyclic_quotient(2, 5), cfg, expansions=shared)
    key = next(iter(shared))
    good = shared[key]
    with monkeypatch.context() as m:
        m.setattr(nashlab.iterate, "isomorphic", lambda a, b: IsoCertificate(((1, 0), (0, 1))))
        with pytest.raises(AssertionError, match="not verified isomorphic"):
            run(cyclic_quotient(3, 5), cfg, expansions=shared)
    with monkeypatch.context() as m:
        m.setattr(nashlab.iterate, "isomorphic", lambda a, b: IsoCertificate(((0, 2), (1, 0))))
        with pytest.raises(AssertionError, match="not verified isomorphic"):
            run(cyclic_quotient(3, 5), cfg, expansions=shared)
    form, ((base, gens, facets), *rest) = good
    negated = [tuple(-x for x in f) for f in facets]
    shared[key] = (form, [(base, gens, negated), *rest])
    with pytest.raises(AssertionError, match="facet is negative"):
        run(cyclic_quotient(3, 5), cfg, expansions=shared)
    shared[key] = good
    assert _report(run(cyclic_quotient(3, 5), cfg, expansions=shared)) == _report(
        run(cyclic_quotient(3, 5), cfg))


class _PoolRecorder:
    """Stands in for ``multiprocessing`` inside ``nashlab.iterate``: records
    each pool's start, maps, close and join, the tasks and results of its
    maps, which it runs in this process, and each pool's size with the task
    count of each of its maps."""

    def __init__(self):
        self.events, self.tasks, self.results, self.pools = [], [], [], []

    def Pool(self, processes):  # noqa: N802  (mirrors multiprocessing.Pool)
        recorder, events = self, self.events
        events.append(("start", processes))
        maps = []
        self.pools.append((processes, maps))

        class RecordingPool:
            def map(self, fn, tasks):
                events.append("map")
                maps.append(len(tasks))
                recorder.tasks += tasks
                recorder.results += [fn(t) for t in tasks]
                return recorder.results[-len(tasks):]

            def close(self):
                events.append("close")

            def join(self):
                events.append("join")

        return RecordingPool()


@pytest.fixture
def recorder(monkeypatch):
    counter = _PoolRecorder()
    monkeypatch.setattr(nashlab.iterate, "multiprocessing", counter)
    return counter


@pytest.fixture
def pools(recorder):
    return recorder.events


def test_multiprocessing_is_the_only_attribute_resolved_on_demand():
    assert not hasattr(nashlab.iterate, "no_such_name")
    assert nashlab.iterate.multiprocessing is multiprocessing


def test_a_run_pools_through_the_multiprocessing_set_on_the_module(recorder):
    """A ``jobs=2`` run takes its pools from whatever ``multiprocessing`` the
    module holds, and leaves that binding in place."""
    run(cyclic_quotient(11, 24), RunConfig(normalized=True), jobs=2)
    assert recorder.pools
    assert nashlab.iterate.multiprocessing is recorder


def test_pool_tasks_and_results_are_plain_data(recorder):
    """A worker gets a chart and returns its expansion as plain data, the
    stored form: no pickled task or result names a ``nashlab`` class, and
    the run's report is the ``jobs=1`` one."""
    cfg = RunConfig(normalized=True)
    tree = run(cyclic_quotient(11, 24), cfg, jobs=2)
    assert recorder.tasks and len(recorder.results) == len(recorder.tasks)
    assert b"nashlab" not in pickle.dumps(recorder.tasks)
    assert b"nashlab" not in pickle.dumps(recorder.results)
    assert _report(tree) == _report(run(cyclic_quotient(11, 24), cfg))


def test_a_pool_starts_once_at_the_first_fresh_expansion(pools):
    """The root needs an expansion, so the pool starts at level 0 and serves
    every later level; no level has two fresh expansions, so one worker
    does, and the pool is closed and joined once the run ends."""
    tree = run(cyclic_quotient(11, 24), RunConfig(normalized=True), jobs=2)
    maps = pools.count("map")
    assert pools == [("start", 1), *["map"] * maps, "close", "join"]
    assert 1 < maps <= tree.stats()["depth_reached"]


@pytest.mark.parametrize("jobs", [2, 4])
def test_a_pool_grows_to_the_fresh_expansions_of_a_level(recorder, jobs):
    """cdll's root is one fresh expansion, so its pool has one worker; the
    five fresh charts of level 1 replace it by a pool of min(jobs, 5)
    workers.  The report is the ``jobs=1`` one."""
    cfg = RunConfig(max_depth=2)
    tree = run(from_preset("cdll"), cfg, jobs=jobs)
    fresh = sum(1 for n in tree.nodes if n.depth == 1 and n.children)
    assert fresh == 5
    assert recorder.events == [("start", 1), "map", "close", "join",
                               ("start", min(jobs, fresh)), "map", "close", "join"]
    assert _report(tree) == _report(run(from_preset("cdll"), cfg))


def test_no_worker_waits_without_a_task(recorder):
    """At ``--jobs MAX_JOBS`` every pool of a sweep has as many workers as
    the level that starts it has tasks, and no later map of that pool has
    more; the recorder starts no process."""
    argv = ["sweep", "cyclic_quotient", "--b-max", "5", "--jobs", str(MAX_JOBS)]
    assert main(argv) == 0
    assert recorder.pools and max(p for p, _ in recorder.pools) > 1
    for processes, maps in recorder.pools:
        assert processes == maps[0] == max(maps) < MAX_JOBS


def test_no_pool_without_a_fresh_expansion(pools):
    """A smooth root, a run whose every class is already stored, and a
    ``jobs=1`` run start no pool."""
    run(canonicalize([(1, 0), (0, 1)]), RunConfig(), jobs=2)
    shared = {}
    run(cyclic_quotient(2, 5), RunConfig(), expansions=shared)
    tree = run(cyclic_quotient(3, 5), RunConfig(), jobs=2, expansions=shared)
    assert len(tree.nodes) > 1
    run(cyclic_quotient(11, 24), RunConfig(normalized=True), jobs=1)
    assert pools == []


def test_a_failing_run_still_closes_its_pool(pools, monkeypatch):
    """normalized cyclic_quotient(2, 3), after cyclic_quotient(1, 3) stored
    a child's class, expands its root in the pool and then carries that
    expansion like any stored one; a carry that raises still closes and
    joins the pool."""
    cfg = RunConfig(normalized=True)
    shared = {}
    run(cyclic_quotient(1, 3), cfg, expansions=shared)

    def failing_carry(entry, sg):
        raise RuntimeError("carry failed")

    monkeypatch.setattr(nashlab.iterate, "_carried", failing_carry)
    with pytest.raises(RuntimeError, match="carry failed"):
        run(cyclic_quotient(2, 3), cfg, jobs=2, expansions=shared)
    assert pools == [("start", 1), "map", "close", "join"]


def test_a_carry_builds_each_child_once(monkeypatch):
    """Carrying cyclic_quotient(2, 5)'s stored expansions onto
    cyclic_quotient(3, 5) builds each carried child once (one
    ``with_facets``) and inverts each certificate once (one ``adjugate``
    besides the one inside ``isomorphic``)."""
    counts = Counter()
    carrying = []
    carried, isomorphic = nashlab.iterate._carried, nashlab.iterate.isomorphic
    with_facets = AffineSemigroup.with_facets.__func__
    adjugate = nashlab.semigroups.adjugate

    def counted_carried(entry, sg):
        carrying.append(entry)
        try:
            payload = carried(entry, sg)
        finally:
            carrying.pop()
        counts["carries"] += 1
        counts["children"] += len(payload)
        return payload

    def counted(name, fn):
        def wrapper(*args):
            if carrying:
                counts[name] += 1
            return fn(*args)
        return wrapper

    shared = {}
    run(cyclic_quotient(2, 5), RunConfig(), expansions=shared)
    monkeypatch.setattr(nashlab.iterate, "_carried", counted_carried)
    monkeypatch.setattr(nashlab.iterate, "isomorphic", counted("isomorphic", isomorphic))
    monkeypatch.setattr(nashlab.semigroups, "adjugate", counted("adjugate", adjugate))
    monkeypatch.setattr(AffineSemigroup, "with_facets", classmethod(counted("with_facets", with_facets)))
    run(cyclic_quotient(3, 5), RunConfig(), expansions=shared)
    assert counts["carries"] == counts["isomorphic"] == 2
    assert counts["with_facets"] == counts["children"] == 5
    assert counts["adjugate"] - counts["isomorphic"] == counts["carries"]
