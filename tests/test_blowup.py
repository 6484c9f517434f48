"""Blowup core: logarithmic Jacobian ideals, minimalization, vertex charts
and their certificates, and the composed step."""
import random
from itertools import combinations
from unittest import mock

import pytest

import nashlab.blowup
from nashlab.blowup import (
    MAX_CHARACTERISTIC,
    EmptyLogJacobian,
    MonomialIdeal,
    blowup_charts,
    log_jacobian,
    minimalize,
    step_charts,
    validate_characteristic,
)
from nashlab.cones import Cone, _double_description, dual_rays, hilbert_basis
from nashlab.families import cyclic_quotient, from_preset, numerical, rebassoo, reeve
from nashlab.intlinalg import dot, vsub
from nashlab.iterate import RunConfig, run
from nashlab.semigroups import AffineSemigroup, NotPointedError, canonicalize, is_smooth, isomorphic

from .helpers import (
    apply_matrix,
    brute_charts,
    chart_corpus,
    corpus_parents,
    frac_det,
    matrix_rank,
    rand_unimodular,
    scramble,
    smooth_corpus,
)


def test_validate_characteristic():
    for ch in (0, 2, 3, 5, 7, 97):
        assert validate_characteristic(ch) == ch
    for bad in (1, 4, 6, -3, 2.5, True, "2"):
        with pytest.raises(ValueError):
            validate_characteristic(bad)


def test_huge_characteristic_fails_fast():
    # rejected before trial division, which would take minutes on 2**61 - 1
    for big in (MAX_CHARACTERISTIC, 2**61 - 1):
        with pytest.raises(ValueError, match="MAX_CHARACTERISTIC"):
            validate_characteristic(big)
    # the largest prime below the bound is still accepted
    assert validate_characteristic(2**31 - 1) == 2**31 - 1


def test_log_jacobian_of_the_cusp():
    s = canonicalize([(2,), (3,)])
    ideal = log_jacobian(s, 0)
    assert ideal.exponents == ((2,), (3,))
    # characteristic 2 kills the even generator's determinant
    ideal2 = log_jacobian(s, 2)
    assert ideal2.exponents == ((3,),)
    ideal3 = log_jacobian(s, 3)
    assert ideal3.exponents == ((2,),)


def test_log_jacobian_quadric_surface():
    s = canonicalize([(1, 0), (1, 1), (1, 2)])
    ideal = log_jacobian(s, 0)
    # dets: (1,0),(1,1) -> 1; (1,0),(1,2) -> 2; (1,1),(1,2) -> 1
    assert ideal.exponents == ((2, 1), (2, 2), (2, 3))
    ideal2 = log_jacobian(s, 2)
    assert ideal2.exponents == ((2, 1), (2, 3))


def test_log_jacobian_requires_pointed():
    with pytest.raises(NotPointedError):
        log_jacobian(AffineSemigroup(1, [(1,), (-1,)]), 0)


def test_log_jacobian_empty_in_characteristic_dividing_all_minors():
    # deliberately non-canonical: the index-2 sublattice 2Z inside Z
    s = AffineSemigroup(1, [(2,)])
    with pytest.raises(EmptyLogJacobian):
        log_jacobian(s, 2)
    assert log_jacobian(s, 3).exponents == ((2,),)


def test_minimalize_drops_ideal_redundant_exponents():
    s = canonicalize([(1, 0), (0, 1)])
    ideal = MonomialIdeal(ambient=s, exponents=((1, 0), (2, 0), (1, 1)))
    assert minimalize(ideal).exponents == ((1, 0),)
    # incomparable exponents all stay
    ideal2 = MonomialIdeal(ambient=s, exponents=((2, 0), (0, 3)))
    assert minimalize(ideal2).exponents == ((0, 3), (2, 0))


def test_minimalize_cusp_keeps_both():
    s = canonicalize([(2,), (3,)])
    ideal = log_jacobian(s, 0)
    # (3)-(2) = 1 is not in the semigroup, so both exponents are minimal
    assert minimalize(ideal).exponents == ((2,), (3,))


def test_blowup_charts_of_the_cusp():
    s = canonicalize([(2,), (3,)])
    charts = blowup_charts(minimalize(log_jacobian(s, 0)))
    # Newton polyhedron of {2,3} on N: 2 is the only vertex, and the chart
    # at 2 is {2,3,1} = N
    assert [c.base_exponent for c in charts] == [(2,)]
    assert charts[0].semigroup.generators == ((1,), (2,), (3,))
    assert charts[0].vertex is True
    cert = charts[0].vertex_certificate
    assert dot(cert, (2,)) < dot(cert, (3,))
    assert all(dot(cert, g) > 0 for g in charts[0].semigroup.generators)


def test_vertex_certificates_strictly_separate():
    rng = random.Random(401)
    for s in smooth_corpus(rng, 4) + [canonicalize([(1, 0), (1, 1), (1, 2)])]:
        ideal = minimalize(log_jacobian(s, 0))
        charts = blowup_charts(ideal)
        assert charts and all(c.vertex for c in charts)
        for c in charts:
            w = c.vertex_certificate
            for other in ideal.exponents:
                if other != c.base_exponent:
                    assert dot(w, other) > dot(w, c.base_exponent)
            for g in s.generators:
                assert dot(w, g) > 0


def test_charts_sit_exactly_at_the_oracle_survivors():
    """Building charts only at vertices loses nothing: the base exponents of
    ``step_charts`` are exactly the charts that survive brute-force
    absorption (all exponents, no minimalization, unit lattices from the
    definition), and every vertex certificate is strictly positive on its
    chart, which is therefore pointed.  Rank <= 3 roots bring their depth-1
    children; the rank-4 Reeve cones come alone, since the brute-force dual
    rays of their children take tens of seconds."""
    roots = [cyclic_quotient(a, b) for a, b in ((2, 5), (3, 7), (4, 9))]
    roots += [rebassoo(3, 1, 2), from_preset("a1"), numerical([3, 4, 5])]
    roots.append(canonicalize([(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)]))  # conifold
    roots.append(canonicalize([(1, 0, 0), (1, 1, 0), (1, 2, 0), (0, 0, 1)]))  # A1 x line
    roots.append(canonicalize([(1, 0, 0), (1, 1, 0), (1, 1, 2), (1, 0, 2)]))
    checked = 0
    for ch in (0, 2, 3):
        corpus = [reeve(2), reeve(3)]
        for s in roots:
            corpus += [s] + [c.semigroup for c in step_charts(s, ch, False)]
        for s in corpus:
            if is_smooth(s):
                continue
            charts = step_charts(s, ch, False)
            survivors = [base for base, _ in brute_charts(s, ch)]
            assert [c.base_exponent for c in charts] == survivors, (s.generators, ch)
            for c in charts:
                assert all(dot(c.vertex_certificate, g) > 0 for g in c.semigroup.generators)
            checked += 1
    assert checked == 61


def test_inherited_chart_facets_are_the_double_description():
    """Each chart's cone carries the facets it inherits from the Newton cone
    (no double description of its own), and they are exactly the facets
    ``dual_rays`` finds from the chart generators, which span: no span
    equations.  The depth-2 charts include rank-4 children of ``cdll`` and
    the Reeve cones."""
    ranks = set()
    for depth, chart in chart_corpus():
        sg = chart.semigroup
        facets, equations = dual_rays(sg.generators, sg.rank)
        assert sg.cone.facets == facets and not equations, (sg.generators, depth)
        assert sg.cone.span_equations == ()
        ranks.add((depth, sg.rank))
    assert (2, 4) in ranks and (2, 2) in ranks


def _check_resumed_newton_cone(s, ch):
    """``blowup_charts`` on the log Jacobian of s runs one double
    description, of the exponent lifts only, resumed from (dual cone of Γ)
    × R; that start is the double description of the recession lifts, and
    the result, rays with their masks and lineality, is the one from
    scratch over the recession and exponent lifts."""
    calls = []

    def recorded(*args):
        calls.append((args, _double_description(*args)))
        return calls[-1][1]

    ideal = log_jacobian(s, ch)
    with mock.patch.object(nashlab.blowup, "_double_description", recorded):
        blowup_charts(ideal)
    [((vecs, rank, (rays, lin, bit)), resumed)] = calls
    recession = [g + (0,) for g in s.generators]
    assert rank == s.rank + 1 and list(vecs) == [e + (1,) for e in ideal.exponents]
    assert (tuple(sorted(rays)), tuple(lin)) == _double_description(recession, rank)
    assert bit == 1 << len(recession)
    assert resumed == _double_description(recession + list(vecs), rank), (s.generators, ch)


def test_resumed_newton_cone_is_the_double_description_from_scratch():
    """On every ``chart_corpus()`` parent in chars 0/2/3/5, the parents of a
    depth-4 ``reeve(5)`` run (depths 0 to 3) and seeded random pointed
    full-dimensional cones of rank 2 to 4."""
    checked = 0
    for s, _ in corpus_parents():
        for ch in (0, 2, 3, 5):
            _check_resumed_newton_cone(s, ch)
            checked += 1
    tree = run(reeve(5), RunConfig(characteristic=0, max_depth=4))
    parents = [n for n in tree.nodes if n.children]
    assert {n.depth for n in parents} == {0, 1, 2, 3}
    for n in parents:
        _check_resumed_newton_cone(n.semigroup, 0)
        checked += 1
    rng = random.Random(2801)
    randoms = 0
    while randoms < 60:
        d = rng.randint(2, 4)
        gens = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(rng.randint(d, d + 3))]
        if matrix_rank(gens) < d or not Cone(d, gens).is_pointed:
            continue
        try:
            _check_resumed_newton_cone(AffineSemigroup(d, gens), rng.choice((0, 2, 3)))
        except EmptyLogJacobian:
            continue
        randoms += 1
    assert checked >= 700, checked


def test_newton_cone_of_a_lower_dimensional_ambient_is_rejected():
    """(dual cone of Γ) × R is a cone with extreme rays (f, 0) only when Γ
    is full-dimensional; otherwise the resumed double description would
    start from a wrong cone, so ``blowup_charts`` refuses it."""
    s = AffineSemigroup(2, [(1, 0), (2, 0)])
    ideal = MonomialIdeal(s, [(3, 0)], bases={(0, 1): (3, 0)})
    with pytest.raises(AssertionError, match="must be full-dimensional"):
        blowup_charts(ideal)


def test_given_facets_must_be_valid_on_the_generators():
    with pytest.raises(AssertionError):
        Cone(2, [(1, 0), (0, 1)], [(1, -1), (0, 1)])
    cone = Cone(2, [(0, 1), (1, 0)], [(1, 0), (0, 1)])
    assert cone.facets == ((0, 1), (1, 0)) and cone.span_equations == ()
    assert cone.is_pointed


def test_nash_step_resolves_cusp_in_characteristic_zero():
    s = canonicalize([(2,), (3,)])
    charts = [c.semigroup for c in step_charts(s, 0, False)]
    assert len(charts) == 1
    assert is_smooth(charts[0])


def test_nash_step_is_identity_on_cusp_in_characteristic_two():
    s = canonicalize([(2,), (3,)])
    charts = [c.semigroup for c in step_charts(s, 2, False)]
    assert len(charts) == 1
    assert isomorphic(charts[0], s) is not None


def test_nash_step_single_iso_chart_on_smooth_inputs():
    rng = random.Random(403)
    for s in smooth_corpus(rng, 6):
        charts = [c.semigroup for c in step_charts(s, 0, False)]
        assert len(charts) == 1
        assert isomorphic(charts[0], s) is not None


def test_step_charts_metadata_and_normalization():
    s = canonicalize([(1, 0), (1, 1), (1, 2)])  # A1
    plain = step_charts(s, 0, False)
    assert [c.base_exponent for c in plain] == sorted(c.base_exponent for c in plain)
    norm = step_charts(s, 0, True)
    for c in norm:
        if c.semigroup.rank > 0:
            sg = c.semigroup
            assert sg.generators == hilbert_basis(Cone(sg.rank, sg.generators))


def test_nash_step_invariant_under_scrambling():
    """Charts of a scrambled copy are the scrambles of the charts."""
    rng = random.Random(404)
    s = canonicalize([(1, 0), (1, 1), (1, 2)])
    t = scramble(s, rng)
    cs = [c.semigroup for c in step_charts(s, 0, False)]
    ct = [c.semigroup for c in step_charts(t, 0, False)]
    assert len(cs) == len(ct)
    matched = set()
    for a in cs:
        hit = next(
            i for i, b in enumerate(ct) if i not in matched and isomorphic(a, b) is not None
        )
        matched.add(hit)


def test_blowup_charts_are_exactly_the_vertices():
    s = canonicalize([(1, 0), (1, 1), (1, 2)])
    ideal = minimalize(log_jacobian(s, 0))
    # the Newton polyhedron of (2,1), (2,2), (2,3) over the A1 cone has the
    # two ends as vertices; (2,2) is their midpoint
    assert ideal.exponents == ((2, 1), (2, 2), (2, 3))
    charts = blowup_charts(ideal)
    assert [c.base_exponent for c in charts] == [(2, 1), (2, 3)]


def _vertex_facets_by_rank(ideal):
    """``{vertex: its tight facets cut to rank d}`` by the rank definition:
    e is a vertex iff the Newton-cone facets tight at (e, 1) have rank d."""
    s, d = ideal.ambient, ideal.ambient.rank
    lifted = [g + (0,) for g in s.generators] + [e + (1,) for e in ideal.exponents]
    facets, _ = dual_rays(lifted, d + 1)
    out = {}
    for e in ideal.exponents:
        tight = [f for f in facets if dot(f, e + (1,)) == 0]
        if tight and matrix_rank(tight) == d:
            out[e] = tuple(sorted(f[:d] for f in tight))
    return out


def test_mask_vertices_and_tight_facets_are_the_rank_definition():
    """The vertices that ``blowup_charts`` reads off the incidence masks, and
    the facets each chart inherits, are those of the rank definition, on
    the Newton cone of every ``chart_corpus()`` parent in chars 0/2/3/5 and
    of every chart that a char-0 run of reeve(5) expands up to depth 4."""
    parents = [(s, ch) for s, _ in corpus_parents() for ch in (0, 2, 3, 5)]
    tree = run(reeve(5), RunConfig(characteristic=0, max_depth=5))
    expanded = sorted({n.parent for n in tree.nodes if n.parent is not None})
    assert max(tree.nodes[i].depth for i in expanded) == 4
    parents += [(tree.nodes[i].semigroup, 0) for i in expanded]
    vertices = non_vertices = 0
    for s, ch in parents:
        try:
            ideal = log_jacobian(s, ch)
        except EmptyLogJacobian:
            continue
        want = _vertex_facets_by_rank(ideal)
        got = {c.base_exponent: c.semigroup.cone.facets for c in blowup_charts(ideal)}
        assert got == want, (s, ch)
        vertices += len(want)
        non_vertices += len(ideal.exponents) - len(want)
    assert vertices >= 1000 and non_vertices >= 1000, (vertices, non_vertices)


def test_log_jacobian_records_every_basis_with_its_exponent():
    """The basis table of each ``chart_corpus()`` parent in chars 0/2/3/5 is
    every rank-subset of generator indices whose determinant (over Q, by
    Fractions) is nonzero in the characteristic, each mapped to its sum; its
    sums are the exponents, and ``minimalize`` keeps the table."""
    checked = 0
    for s, _ in corpus_parents():
        d, gens = s.rank, s.generators
        for ch in (0, 2, 3, 5):
            expected = {}
            for index in combinations(range(len(gens)), d):
                sub = [gens[i] for i in index]
                det = frac_det(sub)
                if det % ch if ch else det:
                    expected[index] = tuple(map(sum, zip(*sub)))
            if not expected:
                with pytest.raises(EmptyLogJacobian):
                    log_jacobian(s, ch)
                continue
            ideal = log_jacobian(s, ch)
            assert ideal.bases == expected, (s, ch)
            assert ideal.exponents == tuple(sorted(set(expected.values())))
            assert minimalize(ideal).bases is ideal.bases
            checked += 1
    assert checked > 700


def test_the_lattice_index_decides_an_empty_log_jacobian():
    """The gcd of the rank-size minors is the index of the generated lattice
    (Newman, *Integral Matrices*, 1972, ch. II).  So on every canonical
    ``corpus_parents()`` semigroup the logarithmic Jacobian is nonempty in
    chars 2/3/5/7; moved by an integer M of known |det M|, every minor is
    multiplied by det M, and the ideal is empty exactly when p divides it."""
    rng = random.Random(2104)
    for s, _ in corpus_parents():
        d = s.rank
        for ch in (2, 3, 5, 7):
            assert log_jacobian(s, ch).exponents
        index = rng.choice((2, 3, 5, 6, 7, 10, 21))
        m, r = rand_unimodular(rng, d), rng.randrange(d)
        m[r] = [index * x for x in m[r]]
        assert abs(frac_det(m)) == index
        moved = AffineSemigroup(d, [apply_matrix(m, g) for g in s.generators])
        for ch in (2, 3, 5, 7):
            if index % ch == 0:
                with pytest.raises(EmptyLogJacobian):
                    log_jacobian(moved, ch)
            else:
                assert log_jacobian(moved, ch).exponents


def test_blowup_charts_needs_the_basis_table():
    s = canonicalize([(2,), (3,)])
    bare = MonomialIdeal(ambient=s, exponents=((2,), (3,)))
    with pytest.raises(ValueError, match="basis table"):
        blowup_charts(bare)
    # the table is left out of equality
    assert bare == log_jacobian(s, 0) and minimalize(bare).bases is None


def test_blowup_charts_need_no_minimalization():
    """An exponent in o′ + Γ for another exponent o′ is never a vertex, so
    the charts of the whole ideal are those of its minimalization, on every
    ``chart_corpus()`` parent in chars 0/2/3/5: base exponents, generators,
    facets and vertex certificates."""
    def charts(ideal):
        return [(c.base_exponent, c.semigroup.generators, c.semigroup.cone.facets,
                 c.vertex_certificate) for c in blowup_charts(ideal)]

    checked = shrunk = 0
    for s, _ in corpus_parents():
        for ch in (0, 2, 3, 5):
            try:
                ideal = log_jacobian(s, ch)
            except EmptyLogJacobian:
                continue
            minimal = minimalize(ideal)
            assert charts(ideal) == charts(minimal), (s, ch)
            checked += 1
            shrunk += minimal.exponents != ideal.exponents
    assert checked > 700 and shrunk > 100


def _checked_exchange_charts(s, ch, normalized):
    """Charts of ``s`` in characteristic ``ch``, each checked against the
    chart built from Γ and every minimal exponent difference, with its own
    double description: equal minimal generators, equal Hilbert bases when
    ``normalized``, and at most n + d(n − d) chart generators."""
    try:
        ideal = minimalize(log_jacobian(s, ch))
    except EmptyLogJacobian:
        return []
    n, d = len(s.generators), s.rank
    charts = blowup_charts(ideal)
    for c in charts:
        e = c.base_exponent
        full = AffineSemigroup(d, list(s.generators) + [vsub(o, e) for o in ideal.exponents])
        sg = c.semigroup
        assert sg.minimal_generators() == full.minimal_generators(), (s, ch, e)
        if normalized:
            assert sg.saturation().generators == hilbert_basis(full.cone), (s, ch, e)
        assert len(sg.generators) <= n + d * (n - d)
    return charts


def test_exchange_charts_match_the_all_differences_charts():
    """Presenting a chart by the single basis exchanges of its vertex's
    basis gives the chart of all exponent differences, on every
    ``chart_corpus()`` parent in chars 0/2/3/5."""
    ranks = set()
    for s, normalized in corpus_parents():
        for ch in (0, 2, 3, 5):
            if _checked_exchange_charts(s, ch, normalized):
                ranks.add((s.rank, ch))
    assert {(r, ch) for r in (2, 4) for ch in (0, 2, 3, 5)} <= ranks


def test_exchange_charts_follow_a_change_of_coordinates():
    """After a seeded unimodular change of coordinates U and a shuffle of the
    generators, which reorders the generator indices of the basis table,
    the charts still match the all-differences charts, and each is the
    image under U of the original chart at the original vertex."""
    rng = random.Random(1703)
    for s, normalized in corpus_parents():
        u = rand_unimodular(rng, s.rank)
        gens = [apply_matrix(u, g) for g in s.generators]
        rng.shuffle(gens)
        t = AffineSemigroup(s.rank, gens)
        for ch in (0, 2, 3, 5):
            try:
                charts = blowup_charts(minimalize(log_jacobian(s, ch)))
            except EmptyLogJacobian:
                charts = []
            images = {
                apply_matrix(u, c.base_exponent): sorted(
                    apply_matrix(u, g) for g in c.semigroup.minimal_generators()
                )
                for c in charts
            }
            moved = _checked_exchange_charts(t, ch, normalized)
            assert {c.base_exponent: list(c.semigroup.minimal_generators()) for c in moved} == images
