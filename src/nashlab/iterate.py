"""Iterated (normalized) Nash blowup over the graph of chart isomorphism
classes.

Isomorphic charts have isomorphic futures, so only the first chart of each
isomorphism class is expanded.  Breadth-first expansion ends in three leaf
verdicts: ``Smooth`` (chart is nonsingular), ``Cycle`` (chart is
equivariantly isomorphic to an earlier chart, its class representative,
with a verified unimodular certificate), and ``DepthLimit`` (depth or node
budget exhausted).  The class graph has the edges parent -> child plus
Cycle leaf -> representative; a Cycle leaf that this graph leads back to
certifies that the iteration never terminates.

A run starts on the lattice its root generates and a chart keeps its
parent's, so a chart's rank-size minors have gcd 1 (Newman, *Integral
Matrices*, 1972, ch. II): some survives in every characteristic.

The same fact spans runs and processes: :func:`run` keeps each class's
expansion, as plain data, in a dict that a sweep shares across its
instances, and a pool worker returns its expansion in that same form.  A
later chart of a stored class gets the stored children carried through its
verified :class:`~nashlab.semigroups.IsoCertificate` U: for a lattice
automorphism U, the charts of U·Γ are U times the charts of Γ, in every
characteristic, since U keeps every determinant up to sign.  Their vertex
certificates follow by the same equivariance (c·U⁻¹ for U·e) from those
checked when the representative was expanded.
"""
from __future__ import annotations

import sys

from .blowup import step_charts, validate_characteristic
from .intlinalg import hermite_normal_form, identity_matrix
from .semigroups import (
    AffineSemigroup,
    canonical_form,
    canonicalize,
    invariant_key,
    is_smooth,
    isomorphic,
    to_json_dict,
    unit_quotient,
)

_VERDICTS = ("Smooth", "Cycle", "DepthLimit")


def __getattr__(name):
    """Import ``multiprocessing`` on first access and bind it as a global."""
    if name != "multiprocessing":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import multiprocessing
    globals()[name] = multiprocessing
    return multiprocessing


def default_max_depth(rank: int) -> int:
    """Deeper default search in low rank, where steps are cheap."""
    return 25 if rank <= 3 else 10


class RunConfig:
    """Characteristic, blowup kind and budgets of a run, checked here:
    ``max_depth`` None takes :func:`default_max_depth` of the root's rank."""

    def __init__(self, characteristic: int = 0, normalized: bool = False,
                 max_depth: int | None = None, max_nodes: int = 500):
        validate_characteristic(characteristic)
        if type(normalized) is not bool:
            raise ValueError("normalized must be a bool")
        if max_depth is not None and not (type(max_depth) is int and max_depth >= 0):
            raise ValueError("max_depth must be a nonnegative integer")
        if not (type(max_nodes) is int and max_nodes >= 1):
            raise ValueError("max_nodes must be a positive integer")
        self.characteristic = characteristic
        self.normalized = normalized
        self.max_depth = max_depth
        self.max_nodes = max_nodes

    def to_json_dict(self, max_depth) -> dict:
        """The ``config`` block of a report, with the depth cap ``max_depth``."""
        return {"characteristic": self.characteristic, "normalized": self.normalized,
                "max_depth": max_depth, "max_nodes": self.max_nodes}


class IterationNode:
    """One chart of the tree: its place, and its leaf verdict once classified."""

    def __init__(self, id: int, semigroup: AffineSemigroup, parent: int | None, depth: int,
                 base_exponent: tuple | None = None, unit_rank: int = 0,
                 verdict: str | None = None, cycle_target: int | None = None,
                 closes_cycle: bool = False, certificate=None, annotation: str | None = None,
                 children=()):
        self.id, self.semigroup, self.parent, self.depth = id, semigroup, parent, depth
        self.base_exponent, self.unit_rank = base_exponent, unit_rank
        self.verdict, self.cycle_target, self.closes_cycle = verdict, cycle_target, closes_cycle
        self.certificate, self.annotation = certificate, annotation
        self.children = list(children)


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
            "config": self.config.to_json_dict(self.max_depth),
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


def _expand(sg, ch, normalized):
    """``[(base, chart), ...]`` in ``step_charts`` order."""
    return [(c.base_exponent, c.semigroup) for c in step_charts(sg, ch, normalized)]


def _plain(charts):
    """``charts`` with each child as plain ``(base, generators, facets)``,
    as a stored expansion holds it: no semigroup is kept, so the nodes and
    their caches stay collectable."""
    return [(base, c.generators, c.cone.facets) for base, c in charts]


def _expand_worker(task):
    """The :func:`_plain` expansion, in a pool worker, of the chart given as
    ``(rank, minimal generators, facets, characteristic, normalized)``."""
    rank, gens, facets, ch, normalized = task
    sg = AffineSemigroup.with_facets(rank, gens, facets)
    sg._mingens = sg.generators
    return _plain(_expand(sg, ch, normalized))


def _carried(entry, sg):
    """The expansion of ``sg``, as :func:`_expand` returns it, from the
    stored expansion ``entry`` of its class, ``(canonical form of the
    representative, plain expansion)``: the children carried by the
    verified certificate U from the representative onto ``sg``, at base
    exponents U·e, in base-exponent order like :func:`step_charts`."""
    form, children = entry
    (rank, _), gens = form
    rep = AffineSemigroup(rank, gens)
    rep._mingens, rep._key = rep.generators, form
    cert = isomorphic(rep, sg)
    if cert is None or not cert.verify(rep, sg):
        raise AssertionError("stored class representative not verified isomorphic to the chart")
    charts = [(cert.apply(base), cert.image(g, f)) for base, g, f in children]
    return sorted(charts, key=lambda c: c[0])


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


def _root_chart(root: AffineSemigroup):
    """``(chart, unit rank)``: the chart a run on ``root`` starts from.
    ``root`` is taken on the lattice it generates (by :func:`canonicalize`
    unless the Hermite form of its generators is already the identity),
    divided by its units, and minimally presented."""
    # canonical iff the generators span Z^rank, i.e. their Hermite form is I
    H, _ = hermite_normal_form(root.generators, transform=False)
    if root.rank and [row for row in H if any(row)] != identity_matrix(root.rank):
        root = canonicalize(root.generators)
    pointed, unit_rank = unit_quotient(root)
    return pointed.minimal_presentation(), unit_rank


def run(
    root: AffineSemigroup,
    config: RunConfig | None = None,
    jobs: int = 1,
    expansions: dict | None = None,
) -> IterationTree:
    """Iterate the (normalized) Nash blowup breadth-first from the chart
    that :func:`_root_chart` makes of ``root``; :func:`sweep` calls that
    helper too, and owns the rule by which isomorphic roots share one row.

    Within each level, nodes are first classified in id order and only then
    expanded, in id order, while the node budget can take children.  A
    smooth chart is a ``Smooth`` leaf.  A chart isomorphic to the
    representative of an earlier class (sibling, cousin or ancestor) is a
    ``Cycle`` leaf pointing at it and is not expanded.  Any other chart
    becomes its class's representative and is expanded unless a budget
    stops it.  Children enter the next level in ``step_charts`` order.

    ``expansions`` maps ``(characteristic, normalized, invariant_key)`` to a
    class's stored expansion; pass one dict to several runs to share them.
    Only a chart whose key is missing is expanded and stored; any other
    gets the stored children carried through a verified isomorphism from
    the stored representative.  With ``jobs > 1`` a level first maps its
    fresh expansions, the first in id order up to the room left in the tree
    (a step has at least one chart), to a pool of at most ``jobs``
    processes, never more than it maps: started at the first level that
    maps one, kept while it is large enough, and replaced by a larger one
    at a level that maps more than it has workers; a run that maps none
    starts no pool.  A worker takes and returns plain data, a stored expansion,
    whose children the run then carries like any other (by the identity
    map).  Only a run with ``jobs > 1`` imports :mod:`multiprocessing`, by
    looking up this module's ``multiprocessing`` (a replacement set there
    wins) at its entry: importing it at the first pool made every fork
    slower.  The result is byte-identical for any ``jobs`` value and any
    ``expansions``.
    """
    if config is None:
        config = RunConfig()
    chart, unit_rank = _root_chart(root)
    # the rank of the lattice the root generates
    max_depth = config.max_depth if config.max_depth is not None else default_max_depth(chart.rank + unit_rank)

    nodes = [IterationNode(id=0, semigroup=chart, parent=None, depth=0, unit_rank=unit_rank)]
    level = [0]
    classes = {}  # invariant_key -> id of the class representative
    step = (config.characteristic, config.normalized)
    if expansions is None:
        expansions = {}
    # resolved here, not at the first pool: importing it there made every fork slower
    mp = sys.modules[__name__].multiprocessing if jobs > 1 else None
    pool = None
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
                expandable[nid] = (*step, key)

            fresh = [nodes[nid] for nid, key in expandable.items() if key not in expansions] if jobs > 1 else []
            del fresh[config.max_nodes - len(nodes):]  # a step has at least one chart
            if fresh:
                want = min(jobs, len(fresh))
                if pool is not None and size < want:
                    pool.close()
                    pool.join()
                    pool = None
                if pool is None:
                    pool, size = mp.Pool(processes=want), want
                tasks = [(n.semigroup.rank, n.semigroup.generators, n.semigroup.cone.facets, *step)
                         for n in fresh]
                for node, plain in zip(fresh, pool.map(_expand_worker, tasks)):
                    expansions[expandable[node.id]] = canonical_form(node.semigroup), plain

            next_level = []
            for nid, key in expandable.items():
                node = nodes[nid]
                if len(nodes) == config.max_nodes:
                    payload = None  # a step has at least one chart, so none would fit
                elif key in expansions:
                    payload = _carried(expansions[key], node.semigroup)
                else:
                    payload = _expand(node.semigroup, *step)
                    expansions[key] = canonical_form(node.semigroup), _plain(payload)
                if payload is None or len(nodes) + len(payload) > config.max_nodes:
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


def sweep(roots, config: RunConfig | None = None, jobs: int = 1) -> list:
    """``{"verdict", "depth", "nodes"}`` of :func:`run` on each of the
    pointed ``roots``, in order; the one place that decides when a root
    needs no run of its own.

    Isomorphic charts have isomorphic futures, across roots too: the runs
    share one ``expansions`` dict, and a root whose chart (:func:`_root_chart`)
    is verified isomorphic to an earlier root's takes that run's row instead
    of running.  Without a binding node budget isomorphic roots give the
    same verdict, depth and nodes per level; a budget makes the row depend
    on coordinates, so a run that it stopped stores no row.
    """
    expansions = {}  # shared: each chart class is expanded once per sweep
    done = {}  # invariant key -> (root chart, row) of a run no budget stopped
    rows = []
    for root in roots:
        chart, unit_rank = _root_chart(root)
        if unit_rank:  # the default depth counts units, which the chart drops
            raise ValueError("sweep takes pointed roots")
        key = invariant_key(chart)
        if key in done:
            stored, row = done[key]
            if isomorphic(chart, stored) is None:
                raise AssertionError("equal invariant keys without an isomorphism")
        else:
            # the run starts from this chart, with its canonical form cached
            tree = run(chart, config, jobs=jobs, expansions=expansions)
            stats = tree.stats()
            row = {"verdict": tree.verdict_summary, "depth": stats["depth_reached"],
                   "nodes": stats["node_count"]}
            if all(n.annotation != "node budget exhausted" for n in tree.nodes):
                done[key] = chart, row
        rows.append(dict(row))
    return rows
