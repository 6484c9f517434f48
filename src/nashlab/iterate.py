"""Iterated (normalized) Nash blowup over the graph of chart isomorphism
classes.

Isomorphic charts have isomorphic futures, so only the first chart of each
isomorphism class is expanded.  Breadth-first expansion ends in three leaf
verdicts: ``Smooth`` (chart is nonsingular), ``Cycle`` (chart is
equivariantly isomorphic to an earlier chart, its class representative,
with a verified unimodular certificate), and ``DepthLimit`` (depth or node
budget exhausted, or an empty ideal).  The class graph has the edges
parent -> child plus Cycle leaf -> representative; a Cycle leaf that this
graph leads back to certifies that the iteration never terminates.

The same fact spans runs: :func:`run` keeps each class's expansion, as
plain data, in a dict that a sweep shares across its instances.  A later
chart of a stored class gets the stored children carried through its
verified :class:`~nashlab.semigroups.IsoCertificate` U: for a lattice
automorphism U, the charts of U·Γ are U times the charts of Γ, in every
characteristic, since U keeps every determinant up to sign.  Their vertex
certificates follow by the same equivariance (c·U⁻¹ for U·e) from those
checked when the representative was expanded.
"""
from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field

from .blowup import EmptyLogJacobian, step_charts, validate_characteristic
from .semigroups import (
    AffineSemigroup,
    canonical_form,
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
    max_nodes: int = 500

    def __post_init__(self):
        validate_characteristic(self.characteristic)
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
    verdict: str | None = None
    cycle_target: int | None = None
    closes_cycle: bool = False
    certificate: object = None
    annotation: str | None = None
    children: list = field(default_factory=list)


class IterationTree:
    """Result of :func:`run`: the explored chart tree, whose Cycle leaves
    point at their class representatives, plus its verdict."""

    def __init__(self, nodes, config, root_max_depth):
        self.nodes = nodes
        self.config = config
        self.max_depth = root_max_depth

    @property
    def verdict_summary(self) -> str:
        """``CounterexampleCycle`` when some Cycle leaf closes a cycle of the
        class graph, ``Resolved`` when every leaf is ``Smooth`` or ``Cycle``
        (the class graph is then acyclic with smooth sinks), else
        ``Inconclusive``."""
        leaves = [n for n in self.nodes if n.verdict is not None]
        if any(n.closes_cycle for n in leaves):
            return "CounterexampleCycle"
        if leaves and all(n.verdict in ("Smooth", "Cycle") for n in leaves):
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
                        "closes_cycle": n.closes_cycle,
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
        if n.verdict is not None:
            rec["verdict"] = n.verdict
        if n.cycle_target is not None:
            rec["cycle_target"] = n.cycle_target
            rec["closes_cycle"] = n.closes_cycle
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


def _presented(rank, generators, facets):
    """A chart from plain data: minimally generated by ``generators``, its
    cone given by its primitive facet normals ``facets``."""
    sg = AffineSemigroup.with_facets(rank, generators, facets)
    sg._mingens = sg.generators
    return sg


def _stored(sg, result):
    """The expansion ``result`` of the class representative ``sg`` as plain
    data: ``sg``'s canonical form, which holds its rank and minimal
    generators, and each child as ``(base, generators, facets)``.  No
    semigroup is kept, so the nodes and their caches stay collectable."""
    status, payload = result
    if status == "empty":
        return result
    return status, canonical_form(sg), [(base, c.generators, c.cone.facets) for base, c in payload]


def _carried(entry, sg):
    """The expansion of ``sg``, as :func:`_expand_worker` returns it, from
    the stored expansion ``entry`` of its class: the children carried by
    the verified certificate U from the representative onto ``sg``, at
    base exponents U·e, in base-exponent order like :func:`step_charts`."""
    if entry[0] == "empty":
        return entry
    _, form, children = entry
    (rank, _), gens = form
    rep = AffineSemigroup(rank, gens)
    rep._mingens, rep._key = rep.generators, form
    cert = isomorphic(rep, sg)
    if cert is None or not cert.verify(rep, sg):
        raise AssertionError("stored class representative not verified isomorphic to the chart")
    charts = [(cert.apply(base), cert.image(_presented(rank, g, f))) for base, g, f in children]
    return "ok", sorted(charts, key=lambda c: c[0])


def _mark_closed_cycles(nodes) -> None:
    """Set ``closes_cycle`` on every Cycle leaf whose target reaches the leaf
    again along the edges parent -> child and Cycle leaf -> target."""
    for leaf in nodes:
        if leaf.verdict != "Cycle":
            continue
        seen, stack = set(), [leaf.cycle_target]
        while stack and leaf.id not in seen:
            nid = stack.pop()
            if nid not in seen:
                seen.add(nid)
                stack.extend(nodes[nid].children)
                if nodes[nid].cycle_target is not None:
                    stack.append(nodes[nid].cycle_target)
        leaf.closes_cycle = leaf.id in seen


def run(
    root: AffineSemigroup,
    config: RunConfig | None = None,
    jobs: int = 1,
    expansions: dict | None = None,
) -> IterationTree:
    """Iterate the (normalized) Nash blowup from ``root`` breadth-first.

    Within each level, nodes are first classified in id order and only then
    expanded.  A smooth chart is a ``Smooth`` leaf.  A chart isomorphic to
    the representative of an earlier class (sibling, cousin or ancestor)
    is a ``Cycle`` leaf pointing at it and is not expanded.  Any other chart
    becomes its class's representative and is expanded unless a budget
    stops it.  Children enter the next level in ``step_charts`` order.

    ``expansions`` maps ``(characteristic, normalized, invariant_key)`` to a
    class's stored expansion; pass one dict to several runs to share them.
    Only a chart whose key is missing is expanded (in the pool when
    ``jobs > 1``) and stored; any other gets the stored children carried
    through a verified isomorphism from the stored representative.  The
    result is byte-identical for any ``jobs`` value and any ``expansions``.
    """
    if config is None:
        config = RunConfig()
    max_depth = config.max_depth if config.max_depth is not None else default_max_depth(root.rank)

    pointed, unit_rank = unit_quotient(root)
    pointed = pointed.minimal_presentation()
    nodes = [IterationNode(id=0, semigroup=pointed, parent=None, depth=0, unit_rank=unit_rank)]
    level = [0]
    classes = {}  # invariant_key -> id of the class representative
    if expansions is None:
        expansions = {}
    pool = None
    if jobs > 1:
        pool = multiprocessing.Pool(processes=jobs)
    try:
        while level:
            expandable = {}  # id -> key of its stored expansion, in id order
            for nid in level:
                node = nodes[nid]
                sg = node.semigroup
                if is_smooth(sg):
                    node.verdict = "Smooth"
                    continue
                key = invariant_key(sg)
                t = classes.setdefault(key, nid)
                if t != nid:
                    cert = isomorphic(sg, nodes[t].semigroup)
                    if cert is None:
                        raise AssertionError("equal invariant keys without an isomorphism")
                    node.verdict = "Cycle"
                    node.cycle_target = t
                    node.certificate = cert
                    continue
                if node.depth >= max_depth:
                    node.verdict = "DepthLimit"
                    node.annotation = "depth limit reached"
                    continue
                expandable[nid] = (config.characteristic, config.normalized, key)

            fresh = [nid for nid, key in expandable.items() if key not in expansions]
            tasks = [
                (nodes[nid].semigroup, config.characteristic, config.normalized)
                for nid in fresh
            ]
            if pool is not None and tasks:
                results = pool.map(_expand_worker, tasks)
            else:
                results = [_expand_worker(t) for t in tasks]
            results = dict(zip(fresh, results))
            for nid, result in results.items():
                expansions[expandable[nid]] = _stored(nodes[nid].semigroup, result)

            next_level = []
            for nid in expandable:
                node = nodes[nid]
                status, payload = results.get(nid) or _carried(expansions[expandable[nid]], node.semigroup)
                if status == "empty":
                    node.verdict = "DepthLimit"
                    node.annotation = f"empty logarithmic Jacobian ideal: {payload}"
                    continue
                if len(nodes) + len(payload) > config.max_nodes:
                    node.verdict = "DepthLimit"
                    node.annotation = "node budget exhausted"
                    continue
                for base, sg in payload:
                    # charts are pointed and sit at certified vertices (carried
                    # ones by equivariance from their representative's)
                    child = IterationNode(
                        id=len(nodes),
                        semigroup=sg,
                        parent=nid,
                        depth=node.depth + 1,
                        base_exponent=base,
                    )
                    nodes.append(child)
                    node.children.append(child.id)
                    next_level.append(child.id)
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
    _mark_closed_cycles(nodes)
    return IterationTree(nodes, config, max_depth)
