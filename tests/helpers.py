"""Brute-force oracles and corpus builders shared by the test modules.

Everything here favors transparent enumeration over cleverness: Gaussian
elimination on Fractions, ray candidates from subset kernels, lattice points
from boxes.  Production code paths are only reused where the oracle needs a
ground-level primitive (Hermite form), never for the logic under test.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import gcd

from nashlab.intlinalg import hermite_normal_form
from nashlab.semigroups import AffineSemigroup, canonicalize, isomorphic, unit_quotient


def frac_rref(rows):
    """Row-reduce a matrix of Fractions; returns (rref rows, pivot columns)."""
    m = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    r = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def frac_nullspace(rows, cols):
    """Basis of the rational nullspace, cleared to primitive integer vectors."""
    if not rows:
        return [tuple(1 if j == i else 0 for j in range(cols)) for i in range(cols)]
    red, pivots = frac_rref(rows)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -red[i][f]
        basis.append(primitive_int(v))
    return basis


def primitive_int(v):
    """Clear denominators and divide by the gcd, keeping the direction."""
    den = 1
    for x in v:
        den = den * Fraction(x).denominator // gcd(den, Fraction(x).denominator)
    ints = [int(Fraction(x) * den) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g > 1:
        ints = [x // g for x in ints]
    return tuple(ints)


def frac_det(m):
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if a[i][c] != 0), None)
        if pr is None:
            return Fraction(0)
        if pr != c:
            a[c], a[pr] = a[pr], a[c]
            det = -det
        det *= a[c][c]
        inv = a[c][c]
        for i in range(c + 1, n):
            if a[i][c] != 0:
                f = a[i][c] / inv
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return det


def brute_parallelepiped_points(rays, rank):
    """Nonzero lattice points ``sum t_j rays[j]`` with every ``t_j`` in
    [0, 1): every point of the rays' bounding box is solved for ``t`` with a
    Fraction inverse of the ray matrix."""
    aug = [
        [rays[j][i] for j in range(rank)] + [int(i == k) for k in range(rank)]
        for i in range(rank)
    ]
    inverse = [row[rank:] for row in frac_rref(aug)[0]]
    box = [
        range(sum(min(0, r[i]) for r in rays), sum(max(0, r[i]) for r in rays) + 1)
        for i in range(rank)
    ]
    points = []
    for x in product(*box):
        t = [sum(a * b for a, b in zip(row, x)) for row in inverse]
        if any(x) and all(0 <= c < 1 for c in t):
            points.append(x)
    return points


def brute_dual_rays(vecs, rank):
    """Generators of {x : v.x >= 0 for all v}, by subset enumeration.

    Returns (rays, lineality_basis); rays are primitive, sorted, and reduced
    to the pointed part only when the lineality is zero (the exact-equality
    tests compare pointed cases; lineality cases check spanning properties).
    """
    vecs = [tuple(v) for v in vecs if any(v)]
    if not vecs:
        return (), tuple(frac_nullspace([], rank))
    lin = frac_nullspace(vecs, rank)
    l = len(lin)
    k = rank - l
    if k == 0:
        return (), tuple(sorted(lin))
    # complete the lineality to a coordinate system: lineality rows first
    if l:
        H, _ = hermite_normal_form([list(v) for v in lin])
        hrows = [tuple(r) for r in H if any(r)]
        pivs = [next(j for j, x in enumerate(r) if x) for r in hrows]
        comp = [j for j in range(rank) if j not in pivs][:k]
        basis = [list(r) for r in hrows] + [
            [1 if j == c else 0 for j in range(rank)] for c in comp
        ]
    else:
        basis = [[1 if i == j else 0 for j in range(rank)] for i in range(rank)]
    proj = [[sum(v[t] * basis[j][t] for t in range(rank)) for j in range(l, rank)] for v in vecs]
    cands = set()
    if k == 1:
        if all(r[0] >= 0 for r in proj):
            cands.add((1,))
        if all(r[0] <= 0 for r in proj):
            cands.add((-1,))
    else:
        for sub in combinations(range(len(proj)), k - 1):
            kb = frac_nullspace([proj[i] for i in sub], k)
            if len(kb) != 1:
                continue
            for w in (kb[0], tuple(-x for x in kb[0])):
                if all(sum(r[j] * w[j] for j in range(k)) >= 0 for r in proj):
                    cands.add(w)
    rays = set()
    for z in cands:
        x = tuple(sum(z[j] * basis[l + j][t] for j in range(k)) for t in range(rank))
        if any(x):
            rays.add(primitive_int(x))
    return tuple(sorted(rays)), tuple(sorted(lin))


def brute_cone_points(generators, rank, bound):
    """All integer points of cone(generators) with coordinates in
    [-bound, bound], via the brute facet description."""
    facets, equations = brute_dual_rays(generators, rank)
    pts = []

    def rec(prefix):
        if len(prefix) == rank:
            v = tuple(prefix)
            if all(sum(f[i] * v[i] for i in range(rank)) >= 0 for f in facets) and all(
                sum(e[i] * v[i] for i in range(rank)) == 0 for e in equations
            ):
                pts.append(v)
            return
        for c in range(-bound, bound + 1):
            rec(prefix + [c])

    rec([])
    return pts


def brute_hilbert_basis(generators, rank, bound):
    """Irreducible nonzero cone points in the box: x with no decomposition
    x = y + z into nonzero cone points."""
    pts = set(brute_cone_points(generators, rank, bound))
    pts.discard(tuple([0] * rank))
    basis = []
    for x in sorted(pts):
        reducible = False
        for y in pts:
            if y != x:
                z = tuple(a - b for a, b in zip(x, y))
                if z in pts and any(z):
                    reducible = True
                    break
        if not reducible:
            basis.append(x)
    return sorted(basis)


class BruteSemigroup:
    """Membership by memoized descent, independent of the production search:
    the positive functional comes from the brute facet oracle."""

    def __init__(self, generators, rank):
        self.rank = rank
        self.gens = sorted(set(tuple(g) for g in generators if any(g)))
        facets, equations = brute_dual_rays(self.gens, rank)
        self.facets = facets
        self.equations = equations
        ell = [0] * rank
        for f in facets:
            ell = [a + b for a, b in zip(ell, f)]
        self.ell = tuple(ell)
        for g in self.gens:
            if sum(a * b for a, b in zip(self.ell, g)) <= 0:
                raise ValueError("brute membership needs a pointed semigroup")
        self.memo = {}

    def member(self, v):
        v = tuple(v)
        if not any(v):
            return True
        if v in self.memo:
            return self.memo[v]
        if any(sum(f[i] * v[i] for i in range(self.rank)) < 0 for f in self.facets) or any(
            sum(e[i] * v[i] for i in range(self.rank)) != 0 for e in self.equations
        ):
            self.memo[v] = False
            return False
        ev = sum(a * b for a, b in zip(self.ell, v))
        res = False
        for g in self.gens:
            if sum(a * b for a, b in zip(self.ell, g)) <= ev and self.member(
                tuple(a - b for a, b in zip(v, g))
            ):
                res = True
                break
        self.memo[v] = res
        return res

    def minimal_generators(self):
        return sorted(
            g
            for g in self.gens
            if not BruteSemigroup([h for h in self.gens if h != g], self.rank).member(g)
        )


def numerical_gap_semigroup(gens, limit):
    """Bitset of representable integers up to limit for a numerical
    semigroup: ground truth for rank-1 membership."""
    reach = [False] * (limit + 1)
    reach[0] = True
    for n in range(1, limit + 1):
        reach[n] = any(n >= g and reach[n - g] for g in gens)
    return reach

def rand_unimodular(rng, d, steps=12):
    """Random element of GL_d(Z) via elementary row operations."""
    m = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    for _ in range(steps):
        i, j = rng.sample(range(d), 2) if d > 1 else (0, 0)
        if i == j:
            continue
        c = rng.choice([-2, -1, 1, 2])
        for t in range(d):
            m[i][t] += c * m[j][t]
        if rng.random() < 0.3:
            m[i], m[j] = m[j], m[i]
    return m


def apply_matrix(m, v):
    return tuple(sum(m[i][j] * v[j] for j in range(len(v))) for i in range(len(m)))


def scramble(s, rng):
    """Same semigroup in a random unimodular coordinate change."""
    u = rand_unimodular(rng, s.rank)
    return canonicalize([apply_matrix(u, g) for g in s.generators])


def _lattice_contains(vectors, v):
    """Integer membership of v in the lattice spanned by the vectors."""
    if not any(v):
        return True
    if not vectors:
        return False
    H, _ = hermite_normal_form([list(x) for x in vectors])
    rows = [tuple(r) for r in H if any(r)]
    w = list(v)
    for row in rows:
        p = next(j for j, x in enumerate(row) if x)
        if w[p] % row[p] != 0:
            return False
        c = w[p] // row[p]
        for j in range(p, len(w)):
            w[j] -= c * row[j]
    return not any(w)


def brute_charts(s, characteristic, normalized=False):
    """``(base exponent, chart semigroup)`` for each chart of one blowup
    step, computed the slow way: every exponent of the logarithmic Jacobian
    ideal (no minimalization), no vertex analysis, absorption straight from
    the definition (both exponent differences land in the chart's unit
    lattice)."""
    d = s.rank
    exps = set()
    for sub in combinations(s.generators, d):
        dv = frac_det([list(g) for g in sub])
        if (dv != 0) if characteristic == 0 else (int(dv) % characteristic != 0):
            exps.add(tuple(sum(g[i] for g in sub) for i in range(d)))
    exps = sorted(exps)
    n = len(exps)
    charts = []
    units = []
    for e in exps:
        gens = list(s.generators) + [
            tuple(a - b for a, b in zip(o, e)) for o in exps if o != e
        ]
        gens = sorted(set(g for g in gens if any(g)))
        facets, equations = brute_dual_rays(gens, d)
        ug = [
            g
            for g in gens
            if all(sum(f[i] * g[i] for i in range(d)) == 0 for f in facets)
            and all(sum(q[i] * g[i] for i in range(d)) == 0 for q in equations)
        ]
        charts.append(gens)
        units.append(ug)

    def absorbed(j, i):
        diff = tuple(a - b for a, b in zip(exps[j], exps[i]))
        return _lattice_contains(units[j], diff)

    out = []
    for j in range(n):
        strict = any(absorbed(j, i) and not absorbed(i, j) for i in range(n) if i != j)
        mutual = any(absorbed(j, i) and absorbed(i, j) for i in range(j))
        if strict or mutual:
            continue
        sg = AffineSemigroup(d, charts[j])
        pointed, _ = unit_quotient(sg)
        if pointed.rank > 0:
            if normalized:
                from nashlab.cones import Cone, hilbert_basis

                basis = hilbert_basis(Cone(pointed.rank, pointed.generators))
                pointed = AffineSemigroup(pointed.rank, basis)
            else:
                pointed = AffineSemigroup(pointed.rank, pointed.minimal_generators())
        out.append((exps[j], pointed))
    return out


def iso_class_multisets_equal(left, right):
    """Match the two chart lists up to equivariant isomorphism."""
    if len(left) != len(right):
        return False
    remaining = list(right)
    for a in left:
        for idx, b in enumerate(remaining):
            if a.rank == b.rank and isomorphic(a, b) is not None:
                remaining.pop(idx)
                break
        else:
            return False
    return True


def smooth_corpus(rng, count=15):
    """Smooth semigroups: unimodular scrambles of N^d, sometimes padded with
    a redundant generator."""
    out = []
    while len(out) < count:
        d = rng.randint(1, 4)
        basis = [tuple(1 if j == i else 0 for j in range(d)) for i in range(d)]
        gens = list(basis)
        if d >= 2 and rng.random() < 0.5:
            gens.append(tuple(a + b for a, b in zip(basis[0], basis[1])))
        u = rand_unimodular(rng, d)
        out.append(canonicalize([apply_matrix(u, g) for g in gens]))
    return out


def singular_saturated_corpus(rng, count=15):
    """Singular saturated semigroups: cyclic quotients and Reeve cones,
    freely rescrambled (saturation is coordinate-independent)."""
    from nashlab.families import cyclic_quotient, reeve

    pool = []
    for b in range(2, 10):
        for a in range(1, b):
            if gcd(a, b) == 1:
                pool.append(cyclic_quotient(a, b))
    pool.extend(reeve(q) for q in (2, 3, 4))
    out = []
    while len(out) < count:
        s = pool[rng.randrange(len(pool))]
        out.append(scramble(s, rng) if rng.random() < 0.5 else s)
    return out
