"""Iterated (normalized) Nash blowup over a chart tree.

Breadth-first expansion with three leaf verdicts: ``Smooth`` (chart is
nonsingular), ``Cycle`` (chart is equivariantly isomorphic to an earlier
chart, with a verified unimodular certificate), and ``DepthLimit`` (depth or
node budget exhausted).  A cycle back to a strict ancestor certifies that
the iteration never terminates along that branch.
"""
from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field

from .blowup import EmptyLogJacobian, step_charts, validate_characteristic
from .semigroups import (
    AffineSemigroup,
    invariant_key,
    is_smooth,
    isomorphic,
    to_json_dict,
    unit_quotient,
)

_VERDICTS = ("Smooth", "Cycle", "DepthLimit")


def default_max_depth(rank: int) -> int:
    """Deeper default search in low rank, where steps are cheap."""
    return 25 if rank <= 3 else 10


@dataclass(frozen=True)
class RunConfig:
    characteristic: int = 0
    normalized: bool = False
    max_depth: int | None = None
    cycle_scope: str = "all"
    max_nodes: int = 500

    def __post_init__(self):
        validate_characteristic(self.characteristic)
        if self.cycle_scope not in ("all", "ancestors"):
            raise ValueError("cycle_scope must be 'all' or 'ancestors'")
        if self.max_depth is not None and self.max_depth < 0:
            raise ValueError("max_depth must be nonnegative")
        if self.max_nodes < 1:
            raise ValueError("max_nodes must be positive")


@dataclass
class IterationNode:
    id: int
    semigroup: AffineSemigroup
    parent: int | None
    depth: int
    base_exponent: tuple | None = None
    unit_rank: int = 0
    vertex: bool | None = None
    verdict: str | None = None
    cycle_target: int | None = None
    is_ancestor_cycle: bool = False
    certificate: object = None
    annotation: str | None = None
    children: list = field(default_factory=list)


class IterationTree:
    """Result of :func:`run`: the explored chart tree plus its verdict."""

    def __init__(self, nodes, config, root_max_depth):
        self.nodes = nodes
        self.config = config
        self.max_depth = root_max_depth

    @property
    def verdict_summary(self) -> str:
        """``CounterexampleCycle`` when some chart cycles back to a strict
        ancestor, ``Resolved`` when every leaf is smooth, else
        ``Inconclusive``."""
        leaves = [n for n in self.nodes if n.verdict is not None]
        if any(n.verdict == "Cycle" and n.is_ancestor_cycle for n in leaves):
            return "CounterexampleCycle"
        if leaves and all(n.verdict == "Smooth" for n in leaves):
            return "Resolved"
        return "Inconclusive"

    def stats(self) -> dict:
        depth_reached = max(n.depth for n in self.nodes)
        per_level = [0] * (depth_reached + 1)
        for n in self.nodes:
            per_level[n.depth] += 1
        counts = {v: 0 for v in _VERDICTS}
        for n in self.nodes:
            if n.verdict is not None:
                counts[n.verdict] += 1
        return {
            "node_count": len(self.nodes),
            "depth_reached": depth_reached,
            "nodes_per_level": per_level,
            "verdict_counts": counts,
        }

    def to_json_dict(self, full: bool = False) -> dict:
        out = {
            "config": {
                "characteristic": self.config.characteristic,
                "normalized": self.config.normalized,
                "max_depth": self.max_depth,
                "cycle_scope": self.config.cycle_scope,
                "max_nodes": self.config.max_nodes,
            },
            "verdict": self.verdict_summary,
            "stats": self.stats(),
        }
        leaves = []
        for n in self.nodes:
            if n.verdict == "Cycle":
                leaves.append(
                    {
                        "node": n.id,
                        "verdict": n.verdict,
                        "depth": n.depth,
                        "cycle_target": n.cycle_target,
                        "target_depth": self.nodes[n.cycle_target].depth,
                        "ancestor": n.is_ancestor_cycle,
                        "certificate": [list(r) for r in n.certificate.matrix],
                    }
                )
        out["cycles"] = leaves
        if full:
            out["nodes"] = [self._node_json(n) for n in self.nodes]
        return out

    def _node_json(self, n) -> dict:
        rec = {
            "id": n.id,
            "parent": n.parent,
            "depth": n.depth,
            "semigroup": to_json_dict(n.semigroup),
            "children": list(n.children),
        }
        if n.base_exponent is not None:
            rec["base_exponent"] = list(n.base_exponent)
        if n.unit_rank:
            rec["unit_rank"] = n.unit_rank
        if n.vertex is not None:
            rec["vertex"] = n.vertex
        if n.verdict is not None:
            rec["verdict"] = n.verdict
        if n.cycle_target is not None:
            rec["cycle_target"] = n.cycle_target
            rec["ancestor_cycle"] = n.is_ancestor_cycle
            rec["certificate"] = [list(r) for r in n.certificate.matrix]
        if n.annotation is not None:
            rec["annotation"] = n.annotation
        return rec

    def to_dot(self) -> str:
        colors = {"Smooth": "palegreen", "Cycle": "lightcoral", "DepthLimit": "lightgray"}
        lines = ["digraph nash {", "  node [shape=box, style=filled, fillcolor=white];"]
        for n in self.nodes:
            sg = n.semigroup
            label = f"#{n.id} rank {sg.rank}, {len(sg.generators)} gens"
            if n.verdict:
                label += f"\\n{n.verdict}"
            attrs = f'label="{label}"'
            if n.verdict in colors:
                attrs += f', fillcolor="{colors[n.verdict]}"'
            lines.append(f"  n{n.id} [{attrs}];")
        for n in self.nodes:
            if n.parent is not None:
                attrs = ""
                if n.base_exponent is not None:
                    attrs = f' [label="{tuple(n.base_exponent)}"]'
                lines.append(f"  n{n.parent} -> n{n.id}{attrs};")
            if n.cycle_target is not None:
                lines.append(f"  n{n.id} -> n{n.cycle_target} [style=dashed, color=red];")
        lines.append("}")
        return "\n".join(lines) + "\n"


def _expand_worker(args):
    sg, ch, normalized = args
    try:
        charts = step_charts(sg, ch, normalized)
    except EmptyLogJacobian as e:
        return ("empty", str(e))
    return ("ok", [(c.base_exponent, c.semigroup) for c in charts])


def _ancestors(nodes, node):
    out = []
    cur = node.parent
    while cur is not None:
        out.append(cur)
        cur = nodes[cur].parent
    return out


def run(root: AffineSemigroup, config: RunConfig | None = None, jobs: int = 1) -> IterationTree:
    """Iterate the (normalized) Nash blowup from ``root`` breadth-first.

    Within each level, nodes are first classified (smooth / cycle / out of
    budget) and only then expanded, so sibling order never affects verdicts;
    cycle candidates are the strict ancestors nearest-first, followed (with
    ``cycle_scope='all'``) by all previously classified nodes in id order.
    Children enter the next level sorted by invariant key then generators.
    The result is byte-identical for any ``jobs`` value.
    """
    if config is None:
        config = RunConfig()
    max_depth = config.max_depth if config.max_depth is not None else default_max_depth(root.rank)

    pointed, unit_rank = unit_quotient(root)
    if pointed.rank > 0:
        pointed = AffineSemigroup(
            pointed.rank, pointed.minimal_generators(), _minimal=pointed.minimal_generators()
        )
    nodes = [IterationNode(id=0, semigroup=pointed, parent=None, depth=0, unit_rank=unit_rank)]
    level = [0]
    visited = []  # classified in earlier levels, for cycle_scope="all"
    pool = None
    if jobs > 1:
        pool = multiprocessing.Pool(processes=jobs)
    try:
        while level:
            expandable = []
            for nid in level:
                node = nodes[nid]
                sg = node.semigroup
                if is_smooth(sg):
                    node.verdict = "Smooth"
                    continue
                anc = _ancestors(nodes, node)
                targets = list(anc)
                if config.cycle_scope == "all":
                    targets += [v for v in visited if v not in set(anc)]
                key = invariant_key(sg)
                found = False
                for t in targets:
                    other = nodes[t].semigroup
                    if invariant_key(other) != key:
                        continue
                    cert = isomorphic(sg, other)
                    if cert is not None:
                        node.verdict = "Cycle"
                        node.cycle_target = t
                        node.is_ancestor_cycle = t in set(anc)
                        node.certificate = cert
                        found = True
                        break
                if found:
                    continue
                if node.depth >= max_depth:
                    node.verdict = "DepthLimit"
                    node.annotation = "depth limit reached"
                    continue
                expandable.append(nid)

            tasks = [
                (nodes[nid].semigroup, config.characteristic, config.normalized)
                for nid in expandable
            ]
            if pool is not None and tasks:
                results = pool.map(_expand_worker, tasks)
            else:
                results = [_expand_worker(t) for t in tasks]

            next_level = []
            for nid, (status, payload) in zip(expandable, results):
                node = nodes[nid]
                if status == "empty":
                    node.verdict = "DepthLimit"
                    node.annotation = f"empty logarithmic Jacobian ideal: {payload}"
                    continue
                if len(nodes) + len(payload) > config.max_nodes:
                    node.verdict = "DepthLimit"
                    node.annotation = "node budget exhausted"
                    continue
                payload = sorted(
                    payload, key=lambda c: (invariant_key(c[1]), c[1].generators, c[0])
                )
                for base, sg in payload:
                    # charts are pointed and sit at certified vertices
                    child = IterationNode(
                        id=len(nodes),
                        semigroup=sg,
                        parent=nid,
                        depth=node.depth + 1,
                        base_exponent=base,
                        vertex=True,
                    )
                    nodes.append(child)
                    node.children.append(child.id)
                    next_level.append(child.id)
            visited.extend(level)
            level = next_level
    finally:
        if pool is not None:
            pool.close()
            pool.join()

    for node in nodes:
        if node.verdict == "Cycle":
            target = nodes[node.cycle_target].semigroup
            if not node.certificate.verify(node.semigroup, target):
                raise AssertionError("stored cycle certificate failed re-verification")
    return IterationTree(nodes, config, max_depth)
