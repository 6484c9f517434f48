"""Semigroup layer: canonical form, membership, minimal generators, unit
quotients, smoothness, and unimodular isomorphism with certificates."""
import pickle
import random

import pytest

import nashlab.cones
from nashlab.blowup import blowup_charts, log_jacobian, minimalize
from nashlab.cones import Cone, hilbert_basis
from nashlab.families import from_preset
from nashlab.intlinalg import kernel_basis
from nashlab.semigroups import (
    AffineSemigroup,
    IsoCertificate,
    NotPointedError,
    canonicalize,
    from_json_dict,
    invariant_key,
    is_smooth,
    isomorphic,
    to_json_dict,
    unit_quotient,
)

from .helpers import (
    BruteSemigroup,
    apply_matrix,
    numerical_gap_semigroup,
    rand_unimodular,
    scramble,
)


def test_canonicalize_rescales_numerical_lattice():
    s = canonicalize([(4,), (6,)])
    assert s.rank == 1
    assert s.generators == ((2,), (3,))
    t = canonicalize([(2,), (3,)])
    assert t.generators == ((2,), (3,))


def test_canonicalize_flattens_rank_deficient_input():
    s = canonicalize([(1, 1), (2, 2)])
    assert s.rank == 1
    assert s.generators == ((1,), (2,))
    diag = canonicalize([(2, 0, 2), (0, 3, 3)])
    assert diag.rank == 2


def test_canonicalize_idempotent_on_scrambles():
    rng = random.Random(301)
    for _ in range(20):
        d = rng.randint(1, 4)
        u = rand_unimodular(rng, d)
        gens = [apply_matrix(u, tuple(rng.randint(0, 3) for _ in range(d))) for _ in range(d + 2)]
        if all(not any(g) for g in gens):
            continue
        s = canonicalize(gens)
        again = canonicalize(s.generators)
        assert again.rank == s.rank
        assert again.generators == s.generators


def test_canonicalize_rejects_bad_input():
    with pytest.raises(ValueError):
        canonicalize([])
    with pytest.raises(ValueError):
        canonicalize([(1, 0), (1,)])
    with pytest.raises(ValueError):
        canonicalize([(0, 0), (0, 0)])


def test_constructor_normalizes_and_validates():
    s = AffineSemigroup(2, [(1, 0), (1, 0), (0, 0), (0, 1)])
    assert s.generators == ((0, 1), (1, 0))
    with pytest.raises(ValueError):
        AffineSemigroup(2, [(0, 0)])
    trivial = AffineSemigroup(0, [])
    assert trivial.generators == ()


def test_member_matches_numerical_dp():
    rng = random.Random(302)
    for _ in range(15):
        k = rng.randint(2, 4)
        gens = sorted(rng.sample(range(2, 14), k))
        s = AffineSemigroup(1, [(g,) for g in gens])
        reach = numerical_gap_semigroup(gens, 60)
        for n in range(61):
            assert s.member((n,)) == reach[n], (gens, n)
        assert not s.member((-1,))


def test_member_matches_brute_descent_rank2():
    rng = random.Random(303)
    done = 0
    while done < 12:
        u = rand_unimodular(rng, 2)
        raw = [tuple(rng.randint(0, 3) for _ in range(2)) for _ in range(3)]
        gens = [apply_matrix(u, v) for v in raw if any(v)]
        if not gens:
            continue
        s = canonicalize(gens)
        if not s.is_pointed or s.rank != 2:
            continue
        brute = BruteSemigroup(s.generators, 2)
        for _ in range(40):
            v = tuple(rng.randint(-6, 6) for _ in range(2))
            assert s.member(v) == brute.member(v), (s.generators, v)
        done += 1


def _random_pointed(rng, d):
    """Canonical pointed semigroup of rank d: d + 2 random vectors with
    entries in [0, 3], moved by a random unimodular matrix."""
    while True:
        u = rand_unimodular(rng, d)
        raw = [tuple(rng.randint(0, 3) for _ in range(d)) for _ in range(d + 2)]
        s = canonicalize([apply_matrix(u, v) for v in raw if any(v)] or [(1,) * d])
        if s.rank == d and s.is_pointed:
            return s


def _probes(s, facets, rng):
    """Points inside the cone (sums of generators, and the same minus one
    more generator), outside it (negated sums) and on its facets (sums of
    generators tight at a facet, moved inside the facet hyperplane)."""
    gens = s.generators
    probes = []
    for _ in range(12):
        x = tuple(map(sum, zip(*rng.choices(gens, k=rng.randint(1, 4)))))
        probes.append(x)
        probes.append(tuple(a - b for a, b in zip(x, rng.choice(gens))))
        probes.append(tuple(-a for a in x))
    for f in facets:
        tight = [g for g in gens if sum(a * b for a, b in zip(f, g)) == 0]
        moves = kernel_basis([f])
        for _ in range(4):
            x = [0] * s.rank
            for g in rng.choices(tight, k=rng.randint(1, 3)):
                x = [a + b for a, b in zip(x, g)]
            for m in moves:
                c = rng.randint(-1, 1)
                x = [a + c * b for a, b in zip(x, m)]
            probes.append(tuple(x))
    return probes


def test_member_matches_brute_descent_ranks_3_and_4():
    rng = random.Random(310)
    inside = outside = on_facet = 0
    for d in (3, 4):
        for _ in range(6):
            s = _random_pointed(rng, d)
            brute = BruteSemigroup(s.generators, d)
            for v in _probes(s, brute.facets, rng):
                assert s.member(v) == brute.member(v), (s.generators, v)
                slack = min(sum(a * b for a, b in zip(f, v)) for f in brute.facets)
                inside += slack > 0
                outside += slack < 0
                on_facet += slack == 0 and any(v)
    assert min(inside, outside, on_facet) > 20


def test_member_off_the_span_of_a_lower_dimensional_semigroup():
    s = AffineSemigroup(3, [(1, 0, 0), (1, 1, 0), (1, 2, 0)])
    assert s.cone.span_equations
    brute = BruteSemigroup(s.generators, 3)
    box = [(a, b, c) for a in range(-1, 5) for b in range(-1, 5) for c in (-1, 0, 1)]
    assert [s.member(v) for v in box] == [brute.member(v) for v in box]
    assert s.member((3, 4, 0)) and not s.member((3, 4, 1)) and not s.member((1, 3, 0))


def test_member_requires_pointed():
    s = AffineSemigroup(1, [(1,), (-1,)])
    with pytest.raises(NotPointedError):
        s.member((5,))


def test_minimal_generators_hand_and_brute():
    s = AffineSemigroup(1, [(2,), (3,), (4,), (5,), (7,)])
    assert s.minimal_generators() == ((2,), (3,))
    t = AffineSemigroup(2, [(1, 0), (0, 1), (1, 1)])
    assert t.minimal_generators() == ((0, 1), (1, 0))
    # (rank, generators drawn, largest entry, seed)
    for d, count, top, seed in ((2, 4, 4, 304), (3, 6, 3, 311)):
        rng = random.Random(seed)
        done = 0
        while done < 10:
            gens = [tuple(rng.randint(0, top) for _ in range(d)) for _ in range(count)]
            gens = [g for g in gens if any(g)]
            if not gens:
                continue
            s = AffineSemigroup(d, gens)
            if not s.is_pointed:
                continue
            brute = BruteSemigroup(s.generators, d)
            assert list(s.minimal_generators()) == brute.minimal_generators()
            done += 1


def test_unit_quotient_splits_torus_factor():
    s = AffineSemigroup(2, [(1, 0), (-1, 0), (0, 1)])
    image, u = unit_quotient(s)
    assert u == 1
    assert image.rank == 1
    assert image.generators == ((1,),)
    pointed = AffineSemigroup(2, [(1, 0), (1, 2)])
    image, u = unit_quotient(pointed)
    assert u == 0
    assert image.generators == pointed.generators
    assert unit_quotient(pointed)[0] is pointed


def test_unit_quotient_full_torus():
    s = AffineSemigroup(1, [(1,), (-1,)])
    image, u = unit_quotient(s)
    assert u == 1
    assert image.rank == 0


def test_is_smooth_on_scrambled_orthants_and_singular_cones():
    rng = random.Random(305)
    for _ in range(15):
        d = rng.randint(1, 4)
        u = rand_unimodular(rng, d)
        basis = [apply_matrix(u, tuple(1 if j == i else 0 for j in range(d))) for i in range(d)]
        s = canonicalize(basis)
        assert is_smooth(s)
        padded = canonicalize(basis + [tuple(a + b for a, b in zip(basis[0], basis[-1]))])
        assert is_smooth(padded)
    assert not is_smooth(canonicalize([(2,), (3,)]))
    assert not is_smooth(canonicalize([(1, 0), (1, 1), (1, 2)]))
    # smooth with units: a cylinder
    assert is_smooth(AffineSemigroup(2, [(1, 0), (-1, 0), (0, 1)]))


def test_isomorphic_finds_scrambles_and_verifies():
    rng = random.Random(306)
    for _ in range(12):
        d = rng.randint(1, 4)
        gens = [tuple(rng.randint(0, 3) for _ in range(d)) for _ in range(d + 2)]
        gens = [g for g in gens if any(g)]
        if not gens:
            continue
        s = canonicalize(gens)
        if not s.is_pointed:
            continue
        t = scramble(s, rng)
        cert = isomorphic(s, t)
        assert cert is not None
        assert cert.verify(s, t)
        assert abs(_det(cert.matrix)) == 1
        back = isomorphic(t, s)
        assert back is not None and back.verify(t, s)


def _det(m):
    from nashlab.intlinalg import determinant

    return determinant([list(r) for r in m])


def test_isomorphic_distinguishes_quadric_orders():
    a = canonicalize([(1, 0), (1, 1), (1, 2)])
    b = canonicalize([(1, 0), (1, 1), (1, 2), (1, 3)])
    assert isomorphic(a, b) is None
    assert isomorphic(a, a) is not None


def test_isomorphic_rank_mismatch_and_trivial():
    a = canonicalize([(2,), (3,)])
    b = canonicalize([(1, 0), (1, 2)])
    assert isomorphic(a, b) is None
    t = AffineSemigroup(0, [])
    cert = isomorphic(t, t)
    assert cert is not None and cert.verify(t, t)


def test_certificate_tampering_fails_verification():
    s = canonicalize([(1, 0), (1, 1), (1, 2)])
    rng = random.Random(307)
    t = scramble(s, rng)
    cert = isomorphic(s, t)
    bad = IsoCertificate(matrix=((1, 0), (0, 1)), mapping=cert.mapping)
    if bad.matrix != cert.matrix:
        assert not bad.verify(s, t)


def test_invariant_key_is_an_isomorphism_invariant():
    rng = random.Random(308)
    for _ in range(10):
        s = canonicalize([(1, 0), (1, 1), (1, 2)])
        t = scramble(s, rng)
        assert invariant_key(s) == invariant_key(t)
    assert invariant_key(canonicalize([(1, 0), (1, 1), (1, 2)])) != invariant_key(
        canonicalize([(1, 0), (1, 1), (1, 2), (1, 3)])
    )


def test_json_round_trip_and_validation():
    s = canonicalize([(1, 0), (1, 1), (1, 2)])
    doc = to_json_dict(s)
    t = from_json_dict(doc)
    assert t.rank == s.rank and t.generators == s.generators
    with pytest.raises(ValueError):
        from_json_dict({"generators": "nope"})
    with pytest.raises(ValueError):
        from_json_dict({"generators": [[1, 0], [1]]})
    with pytest.raises(ValueError):
        from_json_dict([1, 2, 3])
    with pytest.raises(ValueError):
        from_json_dict({"generators": [[1, 0]], "rank": 7})


def test_pickle_round_trip_preserves_value():
    s = canonicalize([(1, 0), (1, 1), (1, 2)])
    s.minimal_generators()
    t = pickle.loads(pickle.dumps(s))
    assert t == s
    assert t.minimal_generators() == s.minimal_generators()
    assert t.member((2, 2)) == s.member((2, 2))


def test_lineality_and_graded_generators_are_computed_once(monkeypatch):
    kernels, cones = [], []
    kernel_basis, cone_init = nashlab.cones.kernel_basis, nashlab.cones.Cone.__init__

    def counted_kernel_basis(m):
        kernels.append(m)
        return kernel_basis(m)

    def counted_init(self, *args):
        cones.append(self)
        cone_init(self, *args)

    monkeypatch.setattr(nashlab.cones, "kernel_basis", counted_kernel_basis)
    monkeypatch.setattr(nashlab.cones.Cone, "__init__", counted_init)
    s = from_preset("cdll")
    s.minimal_generators()
    assert cones and len(kernels) <= len(cones)
    # the caches are not pickled: a loaded copy rebuilds them
    probes = [tuple(a + b for a, b in zip(g, h)) for g in s.generators for h in s.generators]
    probes += [tuple(a - b for a, b in zip(g, h)) for g in s.generators for h in s.generators]
    expected = [s.member(v) for v in probes]
    t = pickle.loads(pickle.dumps(s))
    assert [t.member(v) for v in probes] == expected
    assert any(expected) and not all(expected)


def test_membership_search_makes_no_containment_calls(monkeypatch):
    """The search prunes on slack vectors; no frame asks Cone.contains."""
    contains_calls, member_calls = [], []
    contains, member = nashlab.cones.Cone.contains, AffineSemigroup.member

    def counted_contains(self, x):
        contains_calls.append(x)
        return contains(self, x)

    def counted_member(self, v):
        member_calls.append(v)
        return member(self, v)

    charts = blowup_charts(minimalize(log_jacobian(from_preset("cdll"), 0)))
    monkeypatch.setattr(nashlab.cones.Cone, "contains", counted_contains)
    monkeypatch.setattr(AffineSemigroup, "member", counted_member)
    for chart in charts:
        AffineSemigroup(chart.semigroup.rank, chart.semigroup.generators).minimal_generators()
    assert len(charts) > 5 and member_calls
    assert contains_calls == []


def test_presentations_share_the_cone():
    s = AffineSemigroup(2, [(1, 0), (2, 1), (1, 2), (3, 3)])
    m = s.minimal_presentation()
    assert m.generators == m.minimal_generators() == s.minimal_generators()
    assert m.generators == ((1, 0), (1, 2), (2, 1))
    sat = s.saturation()
    assert sat.generators == sat.minimal_generators() == hilbert_basis(Cone(2, s.generators))
    assert sat.generators == ((1, 0), (1, 1), (1, 2))
    assert m.cone is sat.cone is s.cone
    assert all(m.member(g) for g in s.generators)
    assert not m.member((1, 1)) and sat.member((1, 1))
    # the minimal generators survive a pickle round trip
    t = pickle.loads(pickle.dumps(m))
    assert t._mingens == m.generators
    trivial = AffineSemigroup(0, [])
    assert trivial.minimal_presentation() == trivial.saturation() == trivial


def test_positive_functional_separates():
    rng = random.Random(309)
    for _ in range(10):
        gens = [tuple(rng.randint(0, 3) for _ in range(3)) for _ in range(4)]
        gens = [g for g in gens if any(g)]
        if not gens:
            continue
        s = AffineSemigroup(3, gens)
        if not s.is_pointed:
            continue
        ell = s.positive_functional()
        for g in s.generators:
            assert sum(a * b for a, b in zip(ell, g)) > 0
