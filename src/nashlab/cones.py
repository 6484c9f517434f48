"""Rational polyhedral cones: generator/facet duality via the double
description method, lineality, extreme rays and Hilbert bases.

All cones live in an ambient lattice Z^rank and are represented exactly by
integer generator vectors; the facet description is computed lazily.
"""
from __future__ import annotations

from itertools import combinations
from operator import sub

from .intlinalg import (
    adjugate,
    determinant,
    dot,
    hermite_normal_form,
    kernel_basis,
    matrix_rank,
    primitive,
    smith_normal_form,
    vneg,
)


class DegenerateConeError(ValueError):
    """All generators are zero -- no geometric object to work with."""


def dual_rays(vecs, rank):
    """Double description of ``{y : v . y >= 0 for all v in vecs}``.

    Returns ``(rays, lineality)``: the extreme rays of the pointed part and a
    basis of the lineality space, both as sorted tuples of primitive integer
    vectors.  Inequalities are processed incrementally; adjacency of rays is
    decided by the combinatorial zero-set test on bitmasks of tight
    inequalities.
    """
    lin = [tuple(1 if i == j else 0 for j in range(rank)) for i in range(rank)]
    rays = []  # [vector, tight-bitmask] pairs
    nproc = 0
    for a in vecs:
        a = tuple(a)
        if len(a) != rank:
            raise ValueError("inequality has wrong dimension")
        if not any(a):
            continue
        lvals = [dot(a, l) for l in lin]
        if any(lvals):
            # the hyperplane a = 0 cuts the lineality space: one lineality
            # vector becomes a ray, the rest are projected into a = 0
            p = next(i for i, v in enumerate(lvals) if v != 0)
            l0, v0 = lin[p], lvals[p]
            if v0 < 0:
                l0, v0 = vneg(l0), -v0
            lin = [
                primitive(tuple(x * v0 - y * vl for x, y in zip(l, l0)))
                for i, (l, vl) in enumerate(zip(lin, lvals))
                if i != p
            ]
            new_rays = []
            for vec, mask in rays:
                vr = dot(a, vec)
                nvec = primitive(tuple(x * v0 - y * vr for x, y in zip(vec, l0)))
                new_rays.append([nvec, mask | (1 << nproc)])
            new_rays.append([l0, (1 << nproc) - 1])
            rays = new_rays
        else:
            vals = [dot(a, vec) for vec, _ in rays]
            if all(v >= 0 for v in vals):
                for i, v in enumerate(vals):
                    if v == 0:
                        rays[i][1] |= 1 << nproc
                nproc += 1
                continue
            keep = []
            for i, v in enumerate(vals):
                if v > 0:
                    keep.append(rays[i])
                elif v == 0:
                    keep.append([rays[i][0], rays[i][1] | (1 << nproc)])
            new = []
            for i, vi in enumerate(vals):
                if vi <= 0:
                    continue
                for j, vj in enumerate(vals):
                    if vj >= 0:
                        continue
                    common = rays[i][1] & rays[j][1]
                    adjacent = True
                    for k, (_, mk) in enumerate(rays):
                        if k != i and k != j and (mk & common) == common:
                            adjacent = False
                            break
                    if not adjacent:
                        continue
                    vec_i, vec_j = rays[i][0], rays[j][0]
                    nvec = primitive(
                        tuple(x * vi - y * vj for x, y in zip(vec_j, vec_i))
                    )
                    new.append([nvec, common | (1 << nproc)])
            rays = keep + new
        nproc += 1
    out_rays = tuple(sorted(vec for vec, _ in rays))
    if lin:
        H, _ = hermite_normal_form(lin)
        out_lin = tuple(tuple(r) for r in H if any(r))
    else:
        out_lin = ()
    return out_rays, out_lin


class Cone:
    """Cone spanned by integer generators, with lazy facet description.

    ``facets`` are the primitive inner normals of the pointed-part facets;
    ``span_equations`` cut out the linear span (empty for full-dimensional
    cones).  Together they give the exact inequality description.
    """

    def __init__(self, rank, generators):
        self.rank = rank
        self.generators = tuple(sorted({tuple(g) for g in generators if any(g)}))
        for g in self.generators:
            if len(g) != rank:
                raise ValueError("generator has wrong dimension")
        self._dual = None
        self._lineality = None

    def _dual_description(self):
        if self._dual is None:
            self._dual = dual_rays(self.generators, self.rank)
        return self._dual

    @property
    def facets(self):
        return self._dual_description()[0]

    @property
    def span_equations(self):
        return self._dual_description()[1]

    def slack(self, x):
        """Facet values ``(f·x for f in facets)``: x is in the cone iff all
        are ≥ 0 and x satisfies the span equations."""
        return tuple(dot(f, x) for f in self.facets)

    def contains(self, x):
        return all(dot(f, x) >= 0 for f in self.facets) and all(
            dot(e, x) == 0 for e in self.span_equations
        )

    def lineality_basis(self):
        """Saturated lattice basis of the lineality space (empty if pointed)."""
        if self._lineality is None:
            rows = list(self.facets) + list(self.span_equations)
            if rows:
                self._lineality = tuple(kernel_basis(rows))
            else:
                self._lineality = tuple(
                    tuple(1 if i == j else 0 for j in range(self.rank))
                    for i in range(self.rank)
                )
        return self._lineality

    @property
    def is_pointed(self):
        return not self.lineality_basis()

    def extreme_rays(self):
        """Primitive extreme rays of a pointed cone (error if not pointed)."""
        if not self.is_pointed:
            raise ValueError("extreme rays are only defined for pointed cones; quotient out the lineality first")
        eqs = list(self.span_equations)
        out = set()
        for g in self.generators:
            tight = [f for f in self.facets if dot(f, g) == 0] + eqs
            if matrix_rank(tight) == self.rank - 1:
                out.add(primitive(g))
        return tuple(sorted(out))


def _parallelepiped_points(rays, rank):
    """Nonzero lattice points of the half-open parallelepiped spanned by
    ``rank`` linearly independent rays, via Smith normal form of the ray
    matrix (one representative per residue class of Z^rank modulo the ray
    sublattice).

    A representative ``g`` is moved into the parallelepiped as
    ``g - V * floor(V^-1 g)``, with ``V^-1 = adj / det`` and ``det > 0``.
    """
    V = [[rays[j][i] for j in range(rank)] for i in range(rank)]  # columns = rays
    adj, det = adjugate(V)
    if det == 1:
        return []
    S, P, _ = smith_normal_form(V)
    Pinv, det_p = adjugate(P)
    if det_p != 1:
        raise AssertionError("Smith transform must be unimodular")
    points = set()
    reps = [[]]
    for i in range(rank):
        reps = [r + [c] for r in reps for c in range(S[i][i])]
    for rep in reps:
        g = [sum(Pinv[i][j] * rep[j] for j in range(rank)) for i in range(rank)]
        q = [dot(row, g) // det for row in adj]
        x = tuple(gi - dot(row, q) for gi, row in zip(g, V))
        if any(x):
            points.add(x)
    return sorted(points)


def hilbert_basis(cone):
    """Unique minimal generating set of cone ∩ Z^rank, for a pointed
    full-dimensional cone.

    Candidates are gathered from the half-open parallelepipeds of every
    linearly independent rank-subset of the extreme rays (every point of the
    cone lies in such a simplicial subcone), then reduced in order of
    degree (the sum of the facet values, positive on the cone minus 0): x
    is discarded when x - y lies in the cone for a kept candidate y of
    lower degree, which is a comparison of facet values.
    """
    if not cone.generators:
        raise DegenerateConeError("cone has no nonzero generators")
    if not cone.is_pointed:
        raise ValueError("hilbert_basis needs a pointed cone; quotient out the lineality first")
    if cone.span_equations:
        raise ValueError("hilbert_basis needs a full-dimensional cone")
    d = cone.rank
    rays = cone.extreme_rays()
    cands = set(rays)
    for subset in combinations(rays, d):
        M = [[subset[j][i] for j in range(d)] for i in range(d)]
        if determinant(M) == 0:
            continue
        cands.update(_parallelepiped_points(subset, d))
    slack = cone.slack
    kept = []  # x - y is in the cone iff slack(x) >= slack(y) entrywise
    for deg, x, sx in sorted((sum(s), x, s) for x, s in zip(cands, map(slack, cands))):
        if not any(dy < deg and min(map(sub, sx, sy)) >= 0 for dy, _, sy in kept):
            kept.append((deg, x, sx))
    return tuple(sorted(x for _, x, _ in kept))
