"""Brute-force oracles and corpus builders shared by the test modules.

Everything here favors transparent enumeration over cleverness: Gaussian
elimination on Fractions, ray candidates from subset kernels, lattice points
from boxes.  Production code paths are only reused where the oracle needs a
ground-level primitive (Hermite form), never for the logic under test.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations, permutations, product
from math import gcd

from nashlab.blowup import blowup_charts, log_jacobian, minimalize
from nashlab.intlinalg import determinant, dot, hermite_normal_form, primitive
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


def matrix_rank(m) -> int:
    """Rank of an integer matrix (0 for a matrix with no rows), from its
    Hermite form."""
    H, _ = hermite_normal_form(m)
    return sum(1 for row in H if any(row))


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
    the positive functional comes from the brute facet oracle, or from
    ``dual = (facets, equations)`` of a cone that contains the generators."""

    def __init__(self, generators, rank, dual=None):
        self.rank = rank
        self.gens = sorted(set(tuple(g) for g in generators if any(g)))
        facets, equations = dual or brute_dual_rays(self.gens, rank)
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
        """The generators outside the semigroup of the others, searched
        within this cone (it contains theirs)."""
        dual = (self.facets, self.equations)
        return sorted(
            g
            for g in self.gens
            if not BruteSemigroup([h for h in self.gens if h != g], self.rank, dual).member(g)
        )


def smooth_by_definition(s):
    """Toric smoothness by its definition: the pointed part has rank many
    minimal generators (brute, searched in its cone) of determinant ±1."""
    pointed, _ = unit_quotient(s)
    cone = pointed.cone
    mg = BruteSemigroup(pointed.generators, pointed.rank, (cone.facets, cone.span_equations)).minimal_generators()
    return len(mg) == pointed.rank and abs(determinant(mg)) == 1


def rays_by_definition(cone):
    """Primitive extreme rays of a pointed cone by their definition: the
    generators whose tight rows (facets and span equations) have rank
    rank - 1."""
    eqs = list(cone.span_equations)
    return tuple(sorted({
        primitive(g)
        for g in cone.generators
        if matrix_rank([f for f in cone.facets if dot(f, g) == 0] + eqs) == cone.rank - 1
    }))


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


def stopped_by_the_budget(tree):
    """Whether the node budget stopped some chart of a run's tree."""
    return any(n.annotation == "node budget exhausted" for n in tree.nodes)


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


def brute_isomorphic(a, b):
    """Whether a unimodular map carries the generators of ``a`` bijectively
    onto those of ``b``: ``rank`` independent generators of ``a`` are fixed,
    and every tuple of distinct generators of ``b`` is tried as their
    images, through the adjugate of the fixed ones."""
    d = a.rank
    if d != b.rank or len(a.generators) != len(b.generators):
        return False
    anchor = []
    for g in a.generators:
        if len(anchor) < d and len(frac_rref(anchor + [g])[0]) == len(anchor) + 1:
            anchor.append(g)
    cols = [[anchor[j][i] for j in range(d)] for i in range(d)]
    aug = [row + [int(i == k) for k in range(d)] for i, row in enumerate(cols)]
    det = int(frac_det(cols))
    adj = [[int(x * det) for x in row[d:]] for row in frac_rref(aug)[0]]
    target = set(b.generators)
    for images in permutations(b.generators, d):
        u = []
        for t in range(d):
            row = [sum(images[j][t] * adj[j][k] for j in range(d)) for k in range(d)]
            if any(x % det for x in row):
                break
            u.append([x // det for x in row])
        else:
            if all(apply_matrix(u, g) in target for g in a.generators) and abs(frac_det(u)) == 1:
                return True
    return False


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


@cache
def _corpus():
    from nashlab.families import cyclic_quotient, from_preset, rebassoo, reeve

    runs = [(from_preset("cdll"), 0, False), (rebassoo(3, 1, 2), 0, False)]
    runs += [(reeve(q), ch, False) for q in (2, 3, 4) for ch in (0, 2, 3, 5)]
    runs += [
        (cyclic_quotient(a, b), ch, True)
        for b in range(2, 14)
        for a in range(1, b)
        if gcd(a, b) == 1
        for ch in (0, 2, 3)
    ]
    out, parents = [], {}
    for root, ch, normalized in runs:
        level = [root]
        for depth in (1, 2):
            nxt = []
            for s in level:
                parents.setdefault(s, normalized)
                for chart in blowup_charts(minimalize(log_jacobian(s, ch))):
                    out.append((depth, chart))
                    if depth == 1:
                        sg = chart.semigroup
                        child = sg.saturation() if normalized else sg.minimal_presentation()
                        if child not in nxt:
                            nxt.append(child)
            level = nxt
    return tuple(out), tuple(parents.items())


def chart_corpus():
    """``(depth, chart)`` for every chart, straight from ``blowup_charts``,
    of the first two blowup steps of ``cdll`` in characteristic 0,
    reeve(2..4) in characteristics 0/2/3/5, the normalized cyclic quotients
    with b <= 13 in characteristics 0/2/3 and rebassoo(3, 1, 2).  Cached,
    so the test modules share the charts and their caches."""
    return _corpus()[0]


def corpus_parents():
    """``(semigroup, normalized)`` for each distinct semigroup that
    :func:`chart_corpus` blows up: its roots and their depth-1 charts,
    presented as their run presents them, in first-seen order."""
    return _corpus()[1]


def least_form_by_full_refinement(S):
    """``_least_form`` as it was before refinement stopped early: every
    search node refines, a discrete colouring included, until a round
    returns the very colours it was given, however many classes it added."""
    def ranks(signatures):
        rank = {sig: i for i, sig in enumerate(sorted(set(signatures)))}
        return [rank[sig] for sig in signatures]

    leaves = {}

    def search(colours, fixed):
        while True:
            ccol = ranks([tuple(sorted(zip(colours, col))) for col in zip(*S)])
            refined = ranks([(c, tuple(sorted(zip(ccol, row)))) for c, row in zip(colours, S)])
            if refined == colours:
                break
            colours = refined
        tied = min((c for c in colours if colours.count(c) > 1), default=None)
        if tied is None:
            columns = list(zip(*(row for _, row in sorted(zip(colours, S)))))
            cols = sorted(range(len(columns)), key=columns.__getitem__)
            first = leaves.setdefault(tuple(columns[j] for j in cols), (fixed, cols))[0]
            return next((k for k, (a, b) in enumerate(zip(first, fixed)) if a != b), len(fixed))
        for i in [k for k, c in enumerate(colours) if c == tied]:
            split = [2 * c + (c == tied and k != i) for k, c in enumerate(colours)]
            back = search(split, fixed + [i])
            if back < len(fixed):
                return back
        return len(fixed)

    search(ranks([tuple(sorted(row)) for row in S]), [])
    return min((leaf, cols) for leaf, (_, cols) in leaves.items())
