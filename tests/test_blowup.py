"""Blowup core: logarithmic Jacobian ideals, minimalization, vertex charts
and their certificates, and the composed step."""
import random

import pytest

from nashlab.blowup import (
    MAX_CHARACTERISTIC,
    EmptyLogJacobian,
    MonomialIdeal,
    blowup_charts,
    log_jacobian,
    minimalize,
    nash_step,
    step_charts,
    validate_characteristic,
)
from nashlab.cones import Cone, hilbert_basis
from nashlab.families import cyclic_quotient, from_preset, numerical, rebassoo, reeve
from nashlab.intlinalg import dot
from nashlab.semigroups import AffineSemigroup, NotPointedError, canonicalize, is_smooth, isomorphic

from .helpers import brute_charts, scramble, smooth_corpus


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


def test_nash_step_resolves_cusp_in_characteristic_zero():
    s = canonicalize([(2,), (3,)])
    charts = nash_step(s, 0, False)
    assert len(charts) == 1
    assert is_smooth(charts[0])


def test_nash_step_is_identity_on_cusp_in_characteristic_two():
    s = canonicalize([(2,), (3,)])
    charts = nash_step(s, 2, False)
    assert len(charts) == 1
    assert isomorphic(charts[0], s) is not None


def test_nash_step_single_iso_chart_on_smooth_inputs():
    rng = random.Random(403)
    for s in smooth_corpus(rng, 6):
        charts = nash_step(s, 0, False)
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
    cs = nash_step(s, 0, False)
    ct = nash_step(t, 0, False)
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
