"""Polyhedral layer: double description, cone predicates, Hilbert bases,
saturation."""
import random

import pytest

from nashlab.cones import (
    Cone,
    DegenerateConeError,
    _parallelepiped_points,
    dual_rays,
    hilbert_basis,
)
from nashlab.intlinalg import dot

from .helpers import (
    _lattice_contains,
    brute_dual_rays,
    brute_hilbert_basis,
    brute_parallelepiped_points,
    frac_det,
    rand_unimodular,
    apply_matrix,
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
    solution cone is pointed."""
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
    assert checked >= 40


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
    rng = random.Random(405)
    done = {2: 0, 3: 0, 4: 0}
    while min(done.values()) < 8:
        d = rng.choice([k for k, n in done.items() if n < 8])
        rays = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(d)]
        det = frac_det([[r[i] for r in rays] for i in range(d)])
        if det == 0 or abs(det) > 30:
            continue
        swapped = [rays[1], rays[0]] + rays[2:]  # the opposite sign of the determinant
        for order in (rays, swapped):
            points = _parallelepiped_points(order, d)
            assert points == brute_parallelepiped_points(order, d)
            assert len(points) == abs(det) - 1
        done[d] += 1


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
