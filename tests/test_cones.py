"""Polyhedral layer: double description, cone predicates, Hilbert bases,
saturation."""
import random
from math import comb
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nashlab.cones
from nashlab.blowup import log_jacobian
from nashlab.cones import (
    Cone,
    DegenerateConeError,
    _bezout,
    _double_description,
    _parallelepiped_points,
    dual_rays,
    hilbert_basis,
)
from nashlab.families import reeve
from nashlab.intlinalg import dot, kernel_basis, primitive

from .helpers import (
    _lattice_contains,
    brute_dual_rays,
    brute_hilbert_basis,
    brute_parallelepiped_points,
    corpus_parents,
    frac_det,
    frac_nullspace,
    frac_rref,
    matrix_rank,
    primitive_int,
    rand_unimodular,
    apply_matrix,
    rays_by_definition,
)


def test_dual_rays_hand_cases():
    # octant dual to itself
    rays, lin = dual_rays([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
    assert rays == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    assert lin == ()
    # single halfspace: one ray plus a lineality plane
    rays, lin = dual_rays([(1, 0, 0)], 3)
    assert rays == ((1, 0, 0),)
    assert len(lin) == 2
    for l in lin:
        assert dot(l, (1, 0, 0)) == 0
    # opposite halfspaces: a hyperplane (pure lineality)
    rays, lin = dual_rays([(1, 0), (-1, 0)], 2)
    assert rays == ()
    assert lin == ((0, 1),)
    # no constraints: all of space
    rays, lin = dual_rays([], 2)
    assert rays == ()
    assert len(lin) == 2


def test_dual_rays_matches_brute_oracle_when_pointed():
    """Exact ray-set equality against subset-kernel enumeration whenever the
    solution cone is pointed, in either order of the inequalities."""
    rng = random.Random(201)
    checked = 0
    for _ in range(120):
        d = rng.randint(2, 4)
        n = rng.randint(d, d + 4)
        vecs = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(n)]
        rays, lin = dual_rays(vecs, d)
        brays, blin = brute_dual_rays(vecs, d)
        assert len(lin) == len(blin)
        if blin:
            # mutual lattice containment of the two lineality bases
            for v in lin:
                for w in vecs:
                    assert dot(w, v) == 0
            continue
        checked += 1
        assert rays == brays
        assert dual_rays(vecs[::-1], d) == (brays, ())
    assert checked >= 40


def test_dual_rays_match_brute_oracle_modulo_lineality():
    """Inputs that span a proper subspace in ranks 3-5, so the dual has
    lineality and the cardinality test's bound rank - len(lin) - 2 counts
    it: the rays, read through a fixed integer basis W of the lineality's
    orthogonal complement (x -> W x kills the lineality), are the brute
    oracle's, in either order of the inputs."""
    rng = random.Random(212)
    done = {d: 0 for d in (3, 4, 5)}
    while min(done.values()) < 15:
        d = rng.choice((3, 4, 5))
        span = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(d - rng.randint(1, 2))]
        vecs = [
            tuple(sum(c * v[i] for c, v in zip(coeffs, span)) for i in range(d))
            for coeffs in ([rng.randint(-2, 2) for _ in span] for _ in range(rng.randint(d, d + 4)))
        ]
        rays, lin = dual_rays(vecs, d)
        brays, blin = brute_dual_rays(vecs, d)
        if not blin or len(blin) == d or done[d] == 15:
            continue
        assert len(lin) == len(blin)
        W = frac_nullspace(blin, d)

        def modulo_lineality(rs):
            return sorted(primitive_int([dot(w, r) for w in W]) for r in rs)

        assert modulo_lineality(rays) == modulo_lineality(brays)
        assert modulo_lineality(dual_rays(vecs[::-1], d)[0]) == modulo_lineality(brays)
        done[d] += 1


def test_dual_rays_on_newton_cones_of_corpus_parents():
    """The Newton cone of every ``chart_corpus()`` parent in chars 0/2/3/5
    (ranks 3 and 5), the double description that every blowup step runs:
    equal to the brute oracle when it has at most 1000 subsets to try, and
    otherwise facets by definition (nonnegative on every input, tight rows
    of rank rank - 1) whose own double description has only input
    directions as rays, so nothing is missing; the same in reverse order."""
    small = large = 0
    for s, _ in corpus_parents():
        d = s.rank + 1
        for ch in (0, 2, 3, 5):
            exps = log_jacobian(s, ch).exponents
            lifted = [g + (0,) for g in s.generators] + [e + (1,) for e in exps]
            facets, lin = dual_rays(lifted, d)
            assert lin == () and dual_rays(lifted[::-1], d) == (facets, ())
            if comb(len(lifted), d - 1) <= 1000:
                assert facets == brute_dual_rays(lifted, d)[0]
                small += 1
                continue
            for f in facets:
                assert min(dot(f, v) for v in lifted) >= 0
                assert matrix_rank([v for v in lifted if dot(f, v) == 0]) == d - 1
            rays, lin = dual_rays(facets, d)
            assert lin == () and set(rays) <= set(map(primitive, lifted))
            large += 1
    assert small >= 500 and large >= 100


def test_double_description_masks_are_the_brute_incidence():
    """Bit k of a ray's mask is set iff the k-th nonzero input is 0 on the
    ray, and the rays and lineality are those of ``dual_rays``.  Seeded
    inputs of rank 2 to 4 with zero vectors anywhere, which take no bit,
    and duplicates; every input not orthogonal to the lineality left by the
    earlier ones cuts it, and some runs end with lineality."""
    rng = random.Random(2706)
    seen = {"rays": 0, "zero before a nonzero": 0, "duplicates": 0, "lineality": 0, "cuts": 0}
    for _ in range(600):
        d = rng.randint(2, 4)
        vecs = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(rng.randint(1, 7))]
        for _ in range(rng.randint(0, 2)):
            vecs.insert(rng.randrange(len(vecs) + 1), rng.choice(vecs))
            vecs.insert(rng.randrange(len(vecs) + 1), (0,) * d)
        rays, lin = _double_description(vecs, d)
        assert (tuple(v for v, _ in rays), lin) == dual_rays(vecs, d)
        assert [v for v, _ in rays] == sorted(v for v, _ in rays)
        nonzero = [v for v in vecs if any(v)]
        for vec, mask in rays:
            assert mask == sum(1 << k for k, v in enumerate(nonzero) if dot(v, vec) == 0), vecs
        seen["rays"] += len(rays)
        seen["zero before a nonzero"] += any(not any(v) for v in vecs[:vecs.index(nonzero[-1])]) if nonzero else 0
        seen["duplicates"] += len(set(nonzero)) < len(nonzero)
        seen["lineality"] += bool(lin) and bool(rays)
        # the inputs that cut the lineality space are the pivots of their span
        seen["cuts"] += matrix_rank(nonzero) > 1 if nonzero else 0
    assert min(seen.values()) >= 100, seen


def test_dual_rays_lineality_lattice_is_saturated_kernel():
    rng = random.Random(202)
    for _ in range(40):
        d = rng.randint(2, 4)
        vecs = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(rng.randint(1, 3))]
        _, lin = dual_rays(vecs, d)
        _, blin = brute_dual_rays(vecs, d)
        assert len(lin) == len(blin)
        for v in blin:
            assert _lattice_contains(lin, v) if lin else not any(v)
        for v in lin:
            for w in vecs:
                assert dot(w, v) == 0


def test_cone_contains_and_facets():
    c = Cone(2, [(2, 1), (1, 2), (1, 1)])
    assert c.facets == ((-1, 2), (2, -1))
    assert c.contains((1, 1))
    assert c.contains((0, 0))
    assert c.contains((3, 3))
    assert not c.contains((1, 0))
    assert not c.contains((-1, -1))


def test_cone_span_equations_for_lower_dimensional_cone():
    c = Cone(3, [(1, 0, 0), (0, 1, 0)])
    assert c.span_equations  # the plane z = 0 shows up as an equation
    for e in c.span_equations:
        assert dot(e, (1, 0, 0)) == 0 and dot(e, (0, 1, 0)) == 0
    assert c.contains((2, 3, 0))
    assert not c.contains((2, 3, 1))


def test_cone_lineality_and_pointedness():
    pointed = Cone(2, [(1, 0), (1, 2)])
    assert pointed.is_pointed
    line = Cone(2, [(1, 0), (-1, 0), (0, 1)])
    assert not line.is_pointed


def test_extreme_rays_drop_interior_generators():
    c = Cone(2, [(2, 1), (1, 2), (1, 1), (3, 3)])
    assert c.extreme_rays() == ((1, 2), (2, 1))
    octant = Cone(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
    assert octant.extreme_rays() == ((0, 0, 1), (0, 1, 0), (1, 0, 0))


def test_extreme_rays_random_scrambled_orthant():
    rng = random.Random(203)
    for _ in range(25):
        d = rng.randint(1, 4)
        u = rand_unimodular(rng, d)
        basis = [apply_matrix(u, tuple(1 if j == i else 0 for j in range(d))) for i in range(d)]
        extras = [
            tuple(a + b for a, b in zip(basis[i], basis[j]))
            for i in range(d)
            for j in range(i, d)
            if rng.random() < 0.3
        ]
        c = Cone(d, basis + extras)
        assert c.extreme_rays() == tuple(sorted(basis))


def test_extreme_rays_are_the_generators_tight_on_rank_minus_one_rows():
    """The rays that the double description of the facets finds are those of
    the plain definition (tight rows of rank rank - 1) on random pointed
    cones of ranks 2-4."""
    rng = random.Random(211)
    done = 0
    while done < 30:
        d = rng.randint(2, 4)
        c = Cone(d, [tuple(rng.randint(0, 3) for _ in range(d)) for _ in range(d + 3)])
        if not c.generators or not c.is_pointed:
            continue
        assert c.extreme_rays() == rays_by_definition(c)
        done += 1


def test_hilbert_basis_known_surfaces():
    # quadric cone: one interior generator needed
    assert hilbert_basis(Cone(2, [(1, 0), (1, 2)])) == ((1, 0), (1, 1), (1, 2))
    assert hilbert_basis(Cone(2, [(1, 0), (1, 3)])) == ((1, 0), (1, 1), (1, 2), (1, 3))
    # smooth cone: generators only
    assert hilbert_basis(Cone(2, [(1, 0), (0, 1)])) == ((0, 1), (1, 0))
    assert hilbert_basis(Cone(1, [(2,)])) == ((1,),)


def test_hilbert_basis_matches_box_oracle():
    rng = random.Random(204)
    done = 0
    while done < 25:
        d = rng.randint(2, 3)
        gens = [tuple(rng.randint(-2, 3) for _ in range(d)) for _ in range(rng.randint(d, d + 1))]
        c = Cone(d, gens)
        if not c.generators or not c.is_pointed or c.span_equations:
            continue
        hb = hilbert_basis(c)
        bound = max(3, d * max(abs(x) for g in c.generators for x in g) + 1)
        if bound > 8:
            continue
        oracle = brute_hilbert_basis(c.generators, d, bound)
        # guard: the box really contains everything the library returned
        assert all(all(abs(x) <= bound for x in h) for h in hb)
        assert list(hb) == oracle
        done += 1


def test_parallelepiped_points_match_fraction_oracle():
    """Eight dependent, unimodular and other ray sets in each rank 2-4:
    the first two give no point, the others match the box oracle."""
    rng = random.Random(405)
    kinds = ("dependent", "unimodular", "other")
    done = {(d, kind): 0 for d in (2, 3, 4) for kind in kinds}
    while min(done.values()) < 8:
        d = rng.choice([2, 3, 4])
        rays = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(d)]
        det = frac_det([[r[i] for r in rays] for i in range(d)])
        kind = kinds[min(abs(int(det)), 2)]
        if abs(det) > 30 or done[d, kind] == 8:
            continue
        swapped = [rays[1], rays[0]] + rays[2:]  # the opposite sign of the determinant
        for order in (rays, swapped):
            points = _parallelepiped_points(order, d)
            if det == 0:
                assert points == []
                continue
            assert points == brute_parallelepiped_points(order, d)
            assert len(points) == abs(det) - 1
        done[d, kind] += 1


def test_simplicial_cones_match_box_oracle():
    """Seeded simplicial cones in ranks 1-4, unimodular and not, whose
    Hilbert basis and lineality are read off their square facet matrix:
    the Hilbert basis is the box oracle's (the box holds the closed
    parallelepiped of the rays, where every Hilbert basis element lies) and
    the lineality is the kernel of the facets, which is zero."""
    rng = random.Random(213)
    entry = {1: 4, 2: 3, 3: 2, 4: 1}
    limit = {1: 9, 2: 8, 3: 5, 4: 4}
    done = {(d, unimodular): 0 for d in (1, 2, 3, 4) for unimodular in (True, False)}
    while min(done.values()) < 4:
        d = rng.randint(1, 4)
        rays = [tuple(rng.randint(-entry[d], entry[d]) for _ in range(d)) for _ in range(d)]
        det = abs(frac_det([list(r) for r in rays]))
        bound = max(sum(abs(r[i]) for r in rays) for i in range(d))
        if det == 0 or bound > limit[d] or done[d, det == 1] == 4:
            continue
        c = Cone(d, rays)
        assert len(c.facets) == d
        assert c.lineality_basis() == tuple(kernel_basis(c.facets)) == ()
        assert list(hilbert_basis(Cone(d, rays))) == brute_hilbert_basis(c.generators, d, bound)
        done[d, det == 1] += 1


def test_a_square_facet_matrix_with_a_line_is_not_pointed():
    """A rank-4 cone over a square times a line has four facets, a singular
    square facet matrix: its lineality is the line, and it has no Hilbert
    basis."""
    c = Cone(4, [(1, 0, 0, 0), (-1, 0, 0, 0), (0, 1, 0, 1), (0, 0, 1, 1), (0, -1, 0, 1), (0, 0, -1, 1)])
    assert len(c.facets) == 4 and not c.span_equations
    assert c.lineality_basis() == ((1, 0, 0, 0),)
    with pytest.raises(ValueError):
        hilbert_basis(c)


def test_hilbert_basis_rejects_a_parallelepiped_above_its_bound(monkeypatch):
    """reeve(50)'s simplex spans a parallelepiped of 50 points, and so do
    the rays of cone((1, 0), (1, 50)), whose basis is walked without a box:
    with the bound set to 49 both are rejected, by name, before any point
    is listed; at 50 they have 4 + 49 and 51 points."""
    plane = Cone(2, [(1, 0), (1, 50)])
    monkeypatch.setattr(nashlab.cones, "MAX_PARALLELEPIPED_POINTS", 49)
    with pytest.raises(ValueError, match="MAX_PARALLELEPIPED_POINTS = 49"):
        reeve(50)
    with pytest.raises(ValueError, match="MAX_PARALLELEPIPED_POINTS = 49"):
        hilbert_basis(plane)
    monkeypatch.setattr(nashlab.cones, "MAX_PARALLELEPIPED_POINTS", 50)
    assert len(reeve(50).generators) == 4 + 49  # the rays and the nonzero box points
    assert hilbert_basis(plane) == tuple((1, j) for j in range(51))


def _rank_two_expectation(gens):
    """What ``hilbert_basis`` must do on ``cone(gens)`` in Z^2, by brute
    force: ``(error kind, message)``, or ``(basis, D)`` with D the size of
    the rays' parallelepiped.  The Hilbert basis lies in that closed
    parallelepiped, so in the box of twice the largest entry."""
    gens = [g for g in gens if any(g)]
    if not gens:
        return DegenerateConeError, "no nonzero generators"
    if len(frac_rref(gens)[0]) < 2:
        return ValueError, "full-dimensional"
    facets = brute_dual_rays(gens, 2)[0]
    if len(facets) < 2:
        return ValueError, "pointed"
    rays = brute_dual_rays(facets, 2)[0]
    bound = 2 * max(abs(x) for g in gens for x in g)
    return tuple(brute_hilbert_basis(gens, 2, bound)), abs(int(frac_det(rays)))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), max_size=4),
    st.randoms(use_true_random=False),
)
@example([(1, 2), (-1, -2)], random.Random(0))  # a line
@example([(1, 0), (-1, 0), (0, 1)], random.Random(1))  # a half-plane
@example([(2, 4)], random.Random(2))  # a ray
@example([(0, 0)], random.Random(3))  # no nonzero generator
@example([(1, 0), (1, 4)], random.Random(4))
@example([(3, -4), (-2, 3)], random.Random(5))
@example([(0, 1), (2, 1)], random.Random(6))  # det((0, 1), (2, 1)) < 0
@example([(-3, 5), (5, -3)], random.Random(7))  # both rays with entries of either sign
def test_rank_two_hilbert_basis_is_the_brute_basis_in_any_coordinates(gens, rng):
    """On random rank-2 generator sets, ``hilbert_basis`` is the box
    oracle's, or fails with the oracle's kind of error; it moves with a
    unimodular change of coordinates and a shuffle of the generators; and a
    bound just below the rays' parallelepiped rejects it, by name."""
    expected, detail = _rank_two_expectation(gens)
    u = rand_unimodular(rng, 2)
    moved = [apply_matrix(u, g) for g in gens]
    rng.shuffle(moved)
    if not isinstance(expected, tuple):
        for g in (gens, moved):
            with pytest.raises(expected, match=detail):
                hilbert_basis(Cone(2, g))
        return
    assert hilbert_basis(Cone(2, gens)) == expected
    assert hilbert_basis(Cone(2, moved)) == tuple(sorted(apply_matrix(u, h) for h in expected))
    if detail > 1:
        with mock.patch.object(nashlab.cones, "MAX_PARALLELEPIPED_POINTS", detail - 1):
            with pytest.raises(ValueError, match=f"MAX_PARALLELEPIPED_POINTS = {detail - 1}"):
                hilbert_basis(Cone(2, moved))


def test_bezout_pair_of_a_primitive_vector():
    """The pair ``_boundary_walk`` starts from: x·u_1 + y·u_2 = 1 on the
    unit vectors, on vectors with entries of either sign and on seeded
    primitive vectors."""
    rng = random.Random(2802)
    vectors = [(0, 1), (1, 0), (0, -1), (-1, 0), (-3, 5), (5, -3), (-3, -5), (1, 1), (7, 3)]
    while len(vectors) < 200:
        u = (rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6))
        if primitive(u) == u and any(u):
            vectors.append(u)
    for u in vectors:
        x, y = _bezout(*u)
        assert x * u[0] + y * u[1] == 1, u


def test_hilbert_basis_rejects_bad_cones():
    with pytest.raises(DegenerateConeError):
        hilbert_basis(Cone(2, []))
    with pytest.raises(ValueError):
        hilbert_basis(Cone(2, [(1, 0), (-1, 0), (0, 1)]))  # not pointed
    with pytest.raises(ValueError):
        hilbert_basis(Cone(3, [(1, 0, 0), (0, 1, 0)]))  # not full-dimensional


def test_saturate_idempotent_and_examples():
    assert hilbert_basis(Cone(1, [(2,), (3,)])) == ((1,),)
    hb = hilbert_basis(Cone(2, [(1, 0), (1, 2)]))
    assert hb == ((1, 0), (1, 1), (1, 2))
    assert hilbert_basis(Cone(2, hb)) == hb
    rng = random.Random(205)
    for _ in range(10):
        u = rand_unimodular(rng, 2)
        gens = [apply_matrix(u, g) for g in [(1, 0), (2, 3)]]
        hb = hilbert_basis(Cone(2, gens))
        assert hilbert_basis(Cone(2, hb)) == hb


def test_saturate_contains_generators():
    rng = random.Random(206)
    done = 0
    while done < 15:
        d = rng.randint(2, 3)
        gens = [tuple(rng.randint(0, 3) for _ in range(d)) for _ in range(d)]
        c = Cone(d, gens)
        if not c.generators or not c.is_pointed or c.span_equations:
            continue
        hb = hilbert_basis(Cone(d, c.generators))
        sat = Cone(d, hb)
        for g in c.generators:
            assert sat.contains(g)
        done += 1
