"""Rational polyhedral cones: generator/facet duality via the double
description method, lineality, extreme rays and Hilbert bases (walked along
the boundary in rank 2, reduced from Hermite boxes in higher ranks).

All cones live in an ambient lattice Z^rank and are represented exactly by
integer generator vectors; the facet description is computed lazily, unless
the caller already knows it.
"""
from __future__ import annotations

from itertools import combinations, product
from math import prod
from operator import mul, sub

from .intlinalg import (
    adjugate,
    determinant,
    dot,
    hermite_normal_form,
    kernel_basis,
    primitive,
    vneg,
)


#: Most lattice points a Hermite box in :func:`_parallelepiped_points` may
#: hold, or the parallelepiped of a rank-2 cone's rays in
#: :func:`_boundary_walk`; a larger one is rejected before any point is
#: listed.  Rank-2 cones build no box, and the boxes that the demos and the
#: benchmark workloads build, all of rank 4, hold at most 14.
MAX_PARALLELEPIPED_POINTS = 10**6


class DegenerateConeError(ValueError):
    """All generators are zero -- no geometric object to work with."""


def dual_rays(vecs, rank):
    """Double description of ``{y : v . y >= 0 for all v in vecs}``.

    Returns ``(rays, lineality)``: the extreme rays of the pointed part and a
    basis of the lineality space, both as sorted tuples of primitive integer
    vectors.  Inequalities are processed incrementally; adjacency of rays is
    decided by the combinatorial zero-set test on bitmasks of tight
    inequalities.  That test scans every other ray, so a pair reaches it only
    after the cardinality test: two adjacent rays span a face of dimension
    l + 2, with l the dimension of the current lineality space, and that
    face is the kernel of their common tight rows within the cone, so those
    rows have rank, and number, at least rank - l - 2 (Fukuda and Prodon,
    *Double description method revisited*, 1996).
    """
    rays, lineality = _double_description(vecs, rank)
    return tuple(vec for vec, _ in rays), lineality


def _double_description(vecs, rank, start=None):
    """:func:`dual_rays` with each ray's incidence: ``(rays, lineality)``
    with ``rays`` the sorted ``(vector, mask)`` pairs, where bit k of a mask
    is set iff the k-th nonzero input is 0 on the vector.  A zero input
    takes no bit.

    The method is incremental, so it resumes from any cone whose double
    description is known (Fukuda and Prodon, 1996): ``start`` is that
    cone's ``(rays, lineality, next bit)``, with ``(vector, mask)`` pairs
    for the extreme rays of its pointed part and the masks in the same bit
    layout, and the inputs cut it taking bits from ``next bit`` up.
    Without ``start`` they cut the whole space: no rays, the unit vectors
    as lineality and bit 1.
    """
    rays, lin, bit = start or (
        (), [tuple(1 if i == j else 0 for j in range(rank)) for i in range(rank)], 1
    )  # bit: the bit of the current input
    rays = [list(ray) for ray in rays]  # [vector, tight-bitmask] pairs
    for a in vecs:
        a = tuple(a)
        if len(a) != rank:
            raise ValueError("inequality has wrong dimension")
        if not any(a):
            continue
        lvals = [dot(a, l) for l in lin]
        if any(lvals):
            # the hyperplane a = 0 cuts the lineality space: one lineality
            # vector becomes a ray, tight on every earlier input, and the
            # rest are projected into a = 0
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
                new_rays.append([nvec, mask | bit])
            new_rays.append([l0, bit - 1])
            rays = new_rays
        else:
            kept, positive, negative = [], [], []
            for ray in rays:
                v = sum(map(mul, a, ray[0]))
                if v > 0:
                    kept.append(ray)
                    positive.append((ray[0], ray[1], v))
                elif v < 0:
                    negative.append((ray[0], ray[1], v))
                else:
                    ray[1] |= bit
                    kept.append(ray)
            least = rank - len(lin) - 2  # common tight rows of an adjacent pair
            for vec_i, mask_i, vi in positive:
                for vec_j, mask_j, vj in negative:
                    common = mask_i & mask_j
                    if common.bit_count() < least:
                        continue
                    # adjacent iff no third ray is tight on all of common
                    seen = 0
                    for _, mask in rays:
                        if mask & common == common:
                            seen += 1
                            if seen == 3:
                                break
                    if seen == 3:
                        continue
                    nvec = primitive(
                        tuple(x * vi - y * vj for x, y in zip(vec_j, vec_i))
                    )
                    kept.append([nvec, common | bit])
            rays = kept
        bit <<= 1
    if lin:
        H, _ = hermite_normal_form(lin, transform=False)
        out_lin = tuple(tuple(r) for r in H if any(r))
    else:
        out_lin = ()
    return tuple(sorted(map(tuple, rays))), out_lin


class Cone:
    """Cone spanned by integer generators, with lazy facet description.

    ``facets`` are the primitive inner normals of the pointed-part facets;
    ``span_equations`` cut out the linear span (empty for full-dimensional
    cones).  Together they give the exact inequality description.

    A caller that already knows the facets of a full-dimensional cone passes
    them as ``facets`` and no double description is run; each must be ≥ 0
    on every generator.
    """

    def __init__(self, rank, generators, facets=None):
        self.rank = rank
        self.generators = tuple(sorted({tuple(g) for g in generators if any(g)}))
        for g in self.generators:
            if len(g) != rank:
                raise ValueError("generator has wrong dimension")
        self._dual = None
        self._lineality = None
        if facets is not None:
            facets = tuple(sorted(tuple(f) for f in facets))
            if any(dot(f, g) < 0 for f in facets for g in self.generators):
                raise AssertionError("a given facet is negative on a generator")
            self._dual = (facets, ())

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
        """Saturated lattice basis of the lineality space (empty if pointed):
        the integer kernel of the facets and span equations, and empty at
        once when the facet matrix is square and nonsingular."""
        if self._lineality is None:
            F = self.facets
            rows = F + self.span_equations
            if len(F) == self.rank and determinant(F):
                self._lineality = ()
            elif rows:
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
        """Primitive extreme rays of a pointed cone (error if not pointed): the
        double description of its facets and both signs of its span equations."""
        if not self.is_pointed:
            raise ValueError("extreme rays are only defined for pointed cones; quotient out the lineality first")
        eqs = self.span_equations
        return dual_rays(self.facets + eqs + tuple(map(vneg, eqs)), self.rank)[0]


def _check_size(size):
    """Reject a parallelepiped of more than MAX_PARALLELEPIPED_POINTS points."""
    if size > MAX_PARALLELEPIPED_POINTS:
        raise ValueError(
            f"a parallelepiped of {size} lattice points exceeds the bound "
            f"MAX_PARALLELEPIPED_POINTS = {MAX_PARALLELEPIPED_POINTS}"
        )


def _bezout(a, b):
    """``(x, y)`` with x·a + y·b = gcd(a, b), by the extended Euclidean
    algorithm."""
    x, y, x1, y1 = 1, 0, 0, 1  # x·a0 + y·b0 = a and x1·a0 + y1·b0 = b
    while b:
        q, r = divmod(a, b)
        a, b, x, y, x1, y1 = b, r, x1, y1, x - q * x1, y - q * y1
    return (x, y) if a >= 0 else (-x, -y)


def _boundary_walk(u, v):
    """Hilbert basis of the rank-2 cone on the primitive rays u and v: the
    lattice points on the compact edges of conv(cone ∩ Z^2 minus 0), its
    Hirzebruch–Jung continued fraction (Cox, Little and Schenck, *Toric
    Varieties*, 2011, §10.2).  With det(u, v) = D > 0, det(u, w_1) = 1 and
    0 ≤ det(w_1, v) < D, the step w_{i+1} = a_i·w_i − w_{i−1} with
    a_i = ⌈det(w_{i−1}, v) / det(w_i, v)⌉ keeps det(w_i, w_{i+1}) = 1 and
    makes det(w, v) smaller, down to 0 at w = v.  w_1 is (−y, x) for the
    Bézout pair x·u_1 + y·u_2 = 1 of :func:`_bezout`, less the multiple of
    u that brings det(w_1, v) into [0, D).  D is the size of the rays'
    parallelepiped, so the same cones fail its bound."""
    D = u[0] * v[1] - u[1] * v[0]
    if D < 0:
        u, v, D = v, u, -D
    _check_size(D)
    x, y = _bezout(*u)  # x·u_1 + y·u_2 = 1
    k, c = divmod(-x * v[0] - y * v[1], D)  # det((-y, x), v) = k·D + c
    prev, w = u, (-y - k * u[0], x - k * u[1])  # det(u, w) = 1
    walk, c_prev = [u], D
    while c:  # c = det(w, v) and c_prev = det(prev, v)
        walk.append(w)
        a = -(-c_prev // c)
        prev, w = w, (a * w[0] - prev[0], a * w[1] - prev[1])
        c_prev, c = c, a * c - c_prev
    walk.append(w)  # w = v
    return tuple(sorted(walk))


def _parallelepiped_points(rays, rank):
    """Nonzero lattice points of the half-open parallelepiped spanned by
    ``rank`` rays; empty when the rays are dependent or unimodular.

    The Hermite form H of the rays (as rows) is upper triangular with
    |det| = H_11⋯H_dd, so the box ``0 ≤ x_i < H_ii`` holds one
    representative per residue class of Z^rank modulo the ray sublattice.
    A representative ``g`` is moved into the parallelepiped as
    ``g - V * floor(V^-1 g)``, with ``V^-1 = adj / det`` and ``det > 0``.
    """
    H, _ = hermite_normal_form(rays, transform=False)
    diagonal = [H[i][i] for i in range(rank)]
    size = prod(diagonal)
    if size <= 1:
        return []
    _check_size(size)
    V = [[rays[j][i] for j in range(rank)] for i in range(rank)]  # columns = rays
    adj, det = adjugate(V)
    points = []
    for g in product(*map(range, diagonal)):
        q = [dot(row, g) // det for row in adj]
        x = tuple(gi - dot(row, q) for gi, row in zip(g, V))
        if any(x):
            points.append(x)
    return sorted(points)


def hilbert_basis(cone):
    """Unique minimal generating set of cone ∩ Z^rank, for a pointed
    full-dimensional cone.

    In rank 3 and up, candidates are gathered from the half-open
    parallelepipeds of every rank-subset of the extreme rays (every point
    of the cone lies in a simplicial subcone; a dependent or unimodular
    subset adds none), then reduced in order of degree (the sum of the
    facet values, positive on the cone minus 0): x is discarded when x - y
    lies in the cone for a kept candidate y of lower degree, which is a
    comparison of facet values.

    A simplicial cone, whose facet matrix F is square, needs no double
    description: F·adj(F) = |det F|·I, so its rays are the primitive
    columns of adj(F), and when |det F| = 1 they are the whole Hilbert
    basis (Cox, Little and Schenck, *Toric Varieties*, 2011, §1.3).  A
    singular square F belongs to a cone with a line, rejected like any
    other that is not pointed.  A pointed full-dimensional cone of rank 2
    has a square F, and when |det F| > 1 its Hilbert basis is walked from
    one ray to the other by :func:`_boundary_walk`, with no box.
    """
    if not cone.generators:
        raise DegenerateConeError("cone has no nonzero generators")
    if cone.span_equations:
        raise ValueError("hilbert_basis needs a full-dimensional cone")
    d = cone.rank
    F = cone.facets
    if len(F) == d:
        try:
            adj, det = adjugate(F)
        except ValueError:
            raise ValueError("hilbert_basis needs a pointed cone") from None
        rays = tuple(sorted(map(primitive, zip(*adj))))
        if det == 1:
            return rays
        if d == 2:
            return _boundary_walk(*rays)
    else:
        rays = cone.extreme_rays()  # raises ValueError unless pointed
    cands = set(rays)
    for subset in combinations(rays, d):
        cands.update(_parallelepiped_points(subset, d))
    slack = cone.slack
    kept = []  # x - y is in the cone iff slack(x) >= slack(y) entrywise
    for deg, x, sx in sorted((sum(s), x, s) for x, s in zip(cands, map(slack, cands))):
        if not any(dy < deg and min(map(sub, sx, sy)) >= 0 for dy, _, sy in kept):
            kept.append((deg, x, sx))
    return tuple(sorted(x for _, x, _ in kept))
