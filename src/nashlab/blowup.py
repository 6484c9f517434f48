"""The logarithmic Jacobian ideal and its blowup charts, in any
characteristic, plus the composite Nash / normalized-Nash step.

The exponent set of the ideal collects sums of rank-many generators whose
determinant survives in the base field: the bases of the generators' linear
matroid over that field.  Each vertex of its Newton polyhedron yields a
pointed affine chart, optionally saturated, presented by the single basis
exchanges of a basis that sums to the vertex.
"""
from __future__ import annotations

from collections import namedtuple
from itertools import combinations

from .cones import _double_description
from .intlinalg import determinant, dot, vsub
from .semigroups import AffineSemigroup, NotPointedError


class EmptyLogJacobian(ValueError):
    """No rank-subset of the generators has nonzero determinant in the base
    field; the blowup is undefined."""


#: Characteristics at or above this are rejected before the primality test,
#: which is trial division and so costs at most about 46k divisions.
MAX_CHARACTERISTIC = 2**31


def validate_characteristic(ch) -> int:
    """Characteristics are 0 or a prime number below ``MAX_CHARACTERISTIC``."""
    if isinstance(ch, bool) or not isinstance(ch, int):
        raise ValueError("characteristic must be an integer (0 or a prime)")
    if ch == 0:
        return 0
    if ch < 2:
        raise ValueError(f"characteristic must be 0 or a prime, got {ch}")
    if ch >= MAX_CHARACTERISTIC:
        raise ValueError(
            f"characteristic {ch} is at or above the bound "
            f"MAX_CHARACTERISTIC = {MAX_CHARACTERISTIC}"
        )
    k = 2
    while k * k <= ch:
        if ch % k == 0:
            raise ValueError(f"characteristic must be 0 or a prime, got {ch}")
        k += 1
    return ch


class MonomialIdeal:
    """Finite exponent set inside an ambient semigroup, sorted and
    duplicate-free.

    ``bases``, left out of equality, is the basis table of a logarithmic
    Jacobian ideal: each rank-subset of ``ambient.generators`` with
    determinant nonzero in the base field, as a sorted index tuple, mapped
    to its sum, the exponent it gives.  ``None`` for any other ideal.
    """

    def __init__(self, ambient: AffineSemigroup, exponents, bases: dict | None = None):
        self.ambient = ambient
        self.exponents = tuple(sorted(set(exponents)))
        self.bases = bases

    def __eq__(self, other):
        return (isinstance(other, MonomialIdeal)
                and (self.ambient, self.exponents) == (other.ambient, other.exponents))

    def __hash__(self):
        return hash((self.ambient, self.exponents))


class Chart(namedtuple("Chart", "base_exponent semigroup vertex_certificate")):
    """One affine chart of a monomial-ideal blowup, at a vertex of the
    Newton polyhedron.

    ``semigroup`` is generated by the ambient generators together with the
    single basis exchanges g_j − g_i of a basis summing to ``base_exponent``
    (same lattice as the ambient); they generate the same semigroup as all
    exponent differences against ``base_exponent`` (see
    :func:`blowup_charts`).  ``vertex_certificate`` is a functional
    minimized on the Newton polyhedron exactly at ``base_exponent`` and
    strictly positive on every chart generator.
    """

    __slots__ = ()
    vertex = True  # charts are only built at certified vertices


def log_jacobian(s: AffineSemigroup, ch) -> MonomialIdeal:
    """Exponents ``a_{i1} + ... + a_{id}`` over rank-subsets of the
    generators with ``det(a_{i1}, ..., a_{id})`` nonzero in characteristic
    ``ch`` (nonzero in Z for ch = 0, nonzero mod p for ch = p); those
    subsets are recorded as the ideal's ``bases``."""
    ch = validate_characteristic(ch)
    if not s.is_pointed:
        raise NotPointedError("log_jacobian expects a pointed semigroup")
    d = s.rank
    bases = {}
    subsets = zip(combinations(range(len(s.generators)), d), combinations(s.generators, d))
    for index, sub in subsets:
        dv = determinant(sub)
        if (dv != 0) if ch == 0 else (dv % ch != 0):
            bases[index] = tuple(map(sum, zip(*sub)))
    if not bases:
        raise EmptyLogJacobian(
            f"every rank-subset determinant vanishes in characteristic {ch}"
        )
    return MonomialIdeal(ambient=s, exponents=tuple(bases.values()), bases=bases)


def minimalize(ideal: MonomialIdeal) -> MonomialIdeal:
    """Inclusion-minimal exponent set generating the same monomial ideal:
    drop m whenever m ∈ m' + Γ for another exponent m'.  The blowup step
    does not need it: such an m is never a Newton-polyhedron vertex."""
    return MonomialIdeal(ideal.ambient, ideal.ambient.minimal_elements(ideal.exponents), ideal.bases)


def blowup_charts(ideal: MonomialIdeal) -> list:
    """One chart per vertex of the Newton polyhedron, ordered by base
    exponent.

    Vertices come from a single double description of the homogenized
    Newton cone (exponents at height 1, recession generators at height 0),
    resumed from the cone the recession lifts cut out, (dual cone of Γ) × R,
    whose extreme rays are Γ's facets at height 0, so only the exponent
    lifts are fed to it.  An exponent is a vertex iff its lift is an
    extreme ray, and the sum of its tight facet normals is a strict
    separating functional, checked before the chart is built.  That
    certificate is strictly positive on every chart generator, so each
    chart is pointed.

    The double description records which lifts each facet is tight on, so
    no facet value is computed here.  The lifts tight on every facet
    through (e, 1) are those of its least face; the Newton cone is pointed
    and generated by the lifts, and no other lift is parallel to (e, 1), so
    that face is the ray of (e, 1) iff (e, 1) is its only lift.

    A non-vertex exponent lies in the relative interior of a face through
    some vertex; its chart is a localization of that vertex's chart, so it
    adds nothing to the blowup and is not built.  An exponent in o′ + Γ
    for another exponent o′ is never a vertex, so the ideal need not be
    passed through :func:`minimalize`: the vertices, facets and charts stay
    the same.

    The chart at a vertex e is the tangent cone of the Newton polyhedron at
    e, so its facets are the Newton-cone facets (f, c) tight at (e, 1), cut
    to f; each is primitive, since c = -f·e makes gcd(f) = gcd(f, c).  The
    chart's cone starts with them and runs no double description of its own.

    Its generators are those of Γ plus the exchanges g_j − g_i, for i in B
    and j not in B with B − i + j a basis, where B is a basis in
    ``ideal.bases`` summing to e: at most n + d(n − d) of them.  B needs no
    greedy pass (Edmonds, 1971): its weight c·e is the least over all bases.
    Each exchange is o − e for the exponent o of B − i + j; and any basis
    B′ is reached from B by a bijection σ: B∖B′ → B′∖B with each
    B − x + σ(x) a basis (Brualdi, 1969), so Σ B′ − e = Σ (σ(x) − x).  So
    they generate the same semigroup as Γ and all differences o − e.
    """
    if ideal.bases is None:
        raise ValueError("blowup_charts needs the basis table (bases) that log_jacobian records")
    s = ideal.ambient
    d = s.rank
    exps = ideal.exponents

    # the recession lifts (g, 0) cut the cone down to (dual cone of Γ) × R,
    # which the chart already knows: its facets f are that cone's extreme
    # rays (f, 0), tight on the lifts of the generators g_k with f·g_k = 0,
    # and its lineality is the last axis; the double description resumes
    # there and takes only the exponent lifts (e, 1)
    if s.cone.span_equations:
        raise AssertionError("Newton cone of a full-rank semigroup must be full-dimensional")
    n = len(s.generators)
    start = (
        [(f + (0,), sum(1 << k for k, g in enumerate(s.generators) if not dot(f, g)))
         for f in s.cone.facets],
        [(0,) * d + (1,)],
        1 << n,
    )
    facets, _ = _double_description([e + (1,) for e in exps], d + 1, start)
    basis_of = {o: b for b, o in ideal.bases.items()}
    charts = []
    # bit k is the lift of generator k, and bit n + p that of exponent p
    for p, e in enumerate(exps, n):
        bit = 1 << p
        tight, face = [], -1  # face: the lifts on every tight facet
        for f, mask in facets:
            if mask & bit:
                tight.append(f)
                face &= mask
        if face != bit:
            continue
        cert = tuple(sum(f[i] for f in tight) for i in range(d))
        least = dot(cert, e)
        for other in exps:
            if other != e and not least < dot(cert, other):
                raise AssertionError("vertex certificate failed verification")
        for g in s.generators:
            if not dot(cert, g) > 0:
                raise AssertionError("vertex certificate failed verification")
        # differences of lattice points: same ambient lattice, already canonical
        gens = list(s.generators)
        B = basis_of[e]
        for k, i in enumerate(B):
            rest = B[:k] + B[k + 1:]
            for j, g in enumerate(s.generators):
                if j not in B and tuple(sorted(rest + (j,))) in ideal.bases:
                    gens.append(vsub(g, s.generators[i]))
        sg = AffineSemigroup.with_facets(d, gens, [f[:d] for f in tight])
        charts.append(Chart(base_exponent=e, semigroup=sg, vertex_certificate=cert))
    return charts


def step_charts(s: AffineSemigroup, ch, normalized: bool) -> list:
    """Charts of one (normalized) Nash blowup step, each presented by its
    minimal generators (its Hilbert basis when ``normalized``); ordered by
    base exponent."""
    out = []
    for chart in blowup_charts(log_jacobian(s, ch)):
        sg = chart.semigroup
        sg = sg.saturation() if normalized else sg.minimal_presentation()
        out.append(chart._replace(semigroup=sg))
    return out

