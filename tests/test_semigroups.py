"""Semigroup layer: canonical form, membership, minimal generators, unit
quotients, smoothness, and unimodular isomorphism with certificates."""
import pickle
import random
from operator import sub

import pytest

import nashlab.cones
from nashlab.blowup import blowup_charts, log_jacobian, minimalize
from nashlab.cones import Cone, hilbert_basis
from nashlab.families import from_preset
from nashlab.intlinalg import hermite_normal_form, identity_matrix, kernel_basis, matrix_rank
from nashlab.semigroups import (
    AffineSemigroup,
    IsoCertificate,
    NotCanonicalError,
    NotPointedError,
    _least_form,
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
    brute_isomorphic,
    chart_corpus,
    numerical_gap_semigroup,
    rand_unimodular,
    scramble,
    singular_saturated_corpus,
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


def _generates_the_lattice(vectors, r):
    H, _ = hermite_normal_form(vectors)
    return [row for row in H if any(row)] == identity_matrix(r)


def _linear_pairing(inputs, outputs):
    """Whether some bijection pairs each input with an output so that one
    linear map carries every input to its partner: the rows (output, input)
    then have the rank of the inputs alone.  Backtracking over partners."""

    def extend(pairs, rest):
        if not rest:
            return True
        i = len(pairs)
        want = matrix_rank([g for _, g in pairs] + [inputs[i]])
        return any(
            matrix_rank([o + g for o, g in pairs] + [rest[k] + inputs[i]]) == want
            and extend(pairs + [(rest[k], inputs[i])], rest[:k] + rest[k + 1:])
            for k in range(len(rest))
        )

    return len(inputs) == len(outputs) and extend([], list(outputs))


def test_canonicalize_on_sublattices_and_lower_dimensional_spans():
    """Random generators of a rank-r sublattice of Z^dim (dims 1-5, often of
    index > 1 in its saturation): the output generates Z^r and pairs with
    the input under one linear map, so the same linear relations hold."""
    rng = random.Random(311)
    done = 0
    while done < 40:
        dim = rng.randint(1, 5)
        r = rng.randint(1, dim)
        basis = [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(r)]
        gens = {
            tuple(sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(dim))
            for coeffs in ([rng.randint(-2, 2) for _ in range(r)] for _ in range(r + 2))
        }
        gens = sorted(g for g in gens if any(g))
        if not gens or matrix_rank(gens) != r:
            continue
        s = canonicalize(gens)
        assert s.rank == r
        assert _generates_the_lattice(s.generators, r)
        assert _linear_pairing(gens, s.generators)
        done += 1


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


def test_minimal_elements_requires_pointed():
    s = AffineSemigroup(2, [(1, 0), (-1, 0), (0, 1)])
    with pytest.raises(NotPointedError):
        s.minimal_elements([(0, 1), (1, 1)])


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


def test_unit_quotient_of_units_filling_a_proper_subspace_is_a_named_error():
    """The units of a line in Z^2 fill the generators' span but not the
    lattice: a named error, not a constructor failure; canonicalized, the
    line is a torus."""
    line = AffineSemigroup(2, [(1, 0), (-1, 0)])
    with pytest.raises(NotCanonicalError, match="canonicalize"):
        unit_quotient(line)
    with pytest.raises(NotCanonicalError, match="canonicalize"):
        is_smooth(line)
    image, u = unit_quotient(canonicalize(line.generators))
    assert (image.rank, u) == (0, 1)
    assert is_smooth(canonicalize(line.generators))


def test_unit_quotient_of_a_moved_product_with_a_torus():
    """P ⊕ Z^u in a random unimodular frame, ranks 2-5, with unit parts
    added to P's generators: the unit rank is u, the image generates
    Z^(rank - u), and its minimal presentation is isomorphic to P's."""
    rng = random.Random(312)
    for _ in range(24):
        d = rng.randint(2, 5)
        u = rng.randint(1, d - 1)
        p = _random_pointed(rng, d - u)
        gens = [g + tuple(rng.randint(-2, 2) for _ in range(u)) for g in p.generators]
        for i in range(u):
            unit = tuple(int(j == i) for j in range(u))
            gens += [(0,) * (d - u) + unit, (0,) * (d - u) + tuple(-x for x in unit)]
        m = rand_unimodular(rng, d)
        image, unit_rank = unit_quotient(AffineSemigroup(d, [apply_matrix(m, g) for g in gens]))
        assert unit_rank == u and image.rank == d - u
        assert _generates_the_lattice(image.generators, d - u)
        assert isomorphic(image.minimal_presentation(), p.minimal_presentation()) is not None


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
    bad = IsoCertificate(matrix=((1, 0), (0, 1)))
    if bad.matrix != cert.matrix:
        assert not bad.verify(s, t)


def test_image_carries_generators_facets_and_minimality():
    """``image`` maps a minimally presented chart onto U·Γ: its facets
    (the rows of F·U⁻¹) are the ones a double description of the moved
    generators finds, and the moved generators are minimal."""
    rng = random.Random(309)
    charts = [chart.semigroup.minimal_presentation() for _, chart in chart_corpus()]
    for s in rng.sample(charts, 30):
        cert = IsoCertificate(matrix=tuple(map(tuple, rand_unimodular(rng, s.rank))))
        t = cert.image(s)
        assert t.generators == tuple(sorted(cert.apply(g) for g in s.generators))
        assert t.cone.facets == Cone(t.rank, t.generators).facets
        assert t.minimal_generators() == t.generators
        assert AffineSemigroup(t.rank, t.generators).minimal_generators() == t.generators
        assert cert.verify(s, t)


def test_image_refuses_a_bad_certificate_or_input():
    s = canonicalize([(1, 0), (1, 1), (1, 2)])
    with pytest.raises(AssertionError, match="not unimodular"):
        IsoCertificate(matrix=((2, 0), (0, 1))).image(s)
    with pytest.raises(ValueError, match="singular"):
        IsoCertificate(matrix=((1, 1), (1, 1))).image(s)
    padded = AffineSemigroup(2, list(s.generators) + [(2, 2)])
    with pytest.raises(NotCanonicalError):
        IsoCertificate(matrix=((0, 1), (1, 0))).image(padded)
    flat = AffineSemigroup(2, [(1, 0), (2, 0)])
    with pytest.raises(NotCanonicalError):
        IsoCertificate(matrix=((0, 1), (1, 0))).image(flat)


def test_invariant_key_is_an_isomorphism_invariant():
    rng = random.Random(308)
    for _ in range(10):
        s = canonicalize([(1, 0), (1, 1), (1, 2)])
        t = scramble(s, rng)
        assert invariant_key(s) == invariant_key(t)
    assert invariant_key(canonicalize([(1, 0), (1, 1), (1, 2)])) != invariant_key(
        canonicalize([(1, 0), (1, 1), (1, 2), (1, 3)])
    )
    charts = [chart.semigroup.minimal_presentation() for _, chart in chart_corpus()]
    for s in rng.sample(charts, 40) + singular_saturated_corpus(rng, 15):
        for _ in range(2):
            gens = list(scramble(s, rng).generators)
            rng.shuffle(gens)
            assert invariant_key(canonicalize(gens)) == invariant_key(s)


def test_invariant_key_matches_a_brute_isomorphism_search():
    """On the non-smooth chart presentations, keys are equal exactly when
    some unimodular map carries one generator set onto the other.  Pairs of
    the same rank, generator count and facet count are sampled: 3000 in
    rank 2, and in rank 4 100 with equal keys and 80 without."""
    rng = random.Random(1001)
    groups = {}
    for _, chart in chart_corpus():
        s = chart.semigroup.minimal_presentation()
        if len(s.generators) > s.rank:
            shape = (s.rank, len(s.generators), len(s.cone.facets))
            groups.setdefault(shape, {})[s.generators] = s
    pairs = []
    for group in groups.values():
        members = sorted(group.values(), key=lambda s: s.generators)
        pairs += [(a, b) for i, a in enumerate(members) for b in members[:i]]
    rank2 = [p for p in pairs if p[0].rank == 2]
    same = [p for p in pairs if p[0].rank == 4 and invariant_key(p[0]) == invariant_key(p[1])]
    other = [p for p in pairs if p[0].rank == 4 and invariant_key(p[0]) != invariant_key(p[1])]
    sample = rng.sample(rank2, 3000) + rng.sample(same, 100) + rng.sample(other, 80)
    assert any(invariant_key(a) == invariant_key(b) for a, b in rank2)
    for a, b in sample:
        assert brute_isomorphic(a, b) is (invariant_key(a) == invariant_key(b)), (a, b)


def test_symmetric_cone_keys_and_certificates():
    """Every facet of the cone over the lattice hexagon ties under
    refinement, so the key needs individualized rows; scrambles still give
    the same key and a verified certificate."""
    hexagon = AffineSemigroup(
        3, [(1, 0, 1), (-1, 0, 1), (1, 1, 1), (0, 1, 1), (0, -1, 1), (-1, -1, 1)]
    ).saturation()
    assert len(hexagon.generators) == 7 and len(hexagon.cone.facets) == 6
    rng = random.Random(1002)
    for _ in range(10):
        t = scramble(hexagon, rng)
        assert invariant_key(t) == invariant_key(hexagon)
        cert = isomorphic(hexagon, t)
        assert cert is not None and cert.verify(hexagon, t)


def test_least_form_does_not_depend_on_row_and_column_order():
    """Refinement leaves every row of the vertex × edge incidence matrix of
    a triangle, a square and a pentagon tied, though no symmetry maps a
    vertex of one to a vertex of another; the least form is the same under
    any row and column order."""
    edges = [(a + i, a + (i + 1) % n) for a, n in ((0, 3), (3, 4), (7, 5)) for i in range(n)]
    S = [[int(v in e) for e in edges] for v in range(12)]
    least = _least_form(S)[0]
    rng = random.Random(1003)
    for _ in range(20):
        rows, cols = rng.sample(range(12), 12), rng.sample(range(12), 12)
        moved = [[S[i][j] for j in cols] for i in rows]
        assert _least_form(moved)[0] == least


def test_isomorphism_needs_semigroups_that_generate_the_lattice():
    """A ray in Z^2 and two semigroups whose generators span index-2 and
    index-4 sublattices with equal slack matrices are named errors, not
    verdicts; canonicalized, they are compared."""
    ray = AffineSemigroup(2, [(1, 0), (2, 0)])
    with pytest.raises(NotCanonicalError, match="canonicalize"):
        isomorphic(ray, ray)
    line = canonicalize(ray.generators)
    assert line.rank == 1 and isomorphic(line, line) is not None
    a, b = AffineSemigroup(2, [(1, 0), (1, 2)]), AffineSemigroup(2, [(2, 0), (0, 2)])
    assert invariant_key(a) == invariant_key(b)
    with pytest.raises(NotCanonicalError, match="canonicalize"):
        isomorphic(a, b)
    assert isomorphic(canonicalize(a.generators), canonicalize(b.generators)) is not None


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
    # the member caches are not pickled, only the facets: a loaded copy
    # rebuilds them
    probes = [tuple(a + b for a, b in zip(g, h)) for g in s.generators for h in s.generators]
    probes += [tuple(a - b for a, b in zip(g, h)) for g in s.generators for h in s.generators]
    expected = [s.member(v) for v in probes]
    t = pickle.loads(pickle.dumps(s))
    assert [t.member(v) for v in probes] == expected
    assert any(expected) and not all(expected)


def test_membership_search_makes_no_containment_calls(monkeypatch):
    """The search prunes on slack vectors; no frame asks Cone.contains."""
    contains_calls, search_calls = [], []
    contains, search = nashlab.cones.Cone.contains, AffineSemigroup._search

    def counted_contains(self, x):
        contains_calls.append(x)
        return contains(self, x)

    def counted_search(self, x):
        search_calls.append(x)
        return search(self, x)

    charts = blowup_charts(minimalize(log_jacobian(from_preset("cdll"), 0)))
    monkeypatch.setattr(nashlab.cones.Cone, "contains", counted_contains)
    monkeypatch.setattr(AffineSemigroup, "_search", counted_search)
    for chart in charts:
        AffineSemigroup(chart.semigroup.rank, chart.semigroup.generators).minimal_generators()
    assert len(charts) > 5 and search_calls
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


def test_chart_minimal_generators_match_a_fresh_search():
    """A chart's minimal generators, searched over the generators kept so
    far, are those ``minimal_elements`` finds over all chart generators on a
    fresh copy; afterwards the chart's member search and memo agree with
    the fresh copy's on 60 probes per chart, members and non-members."""
    rng = random.Random(811)
    answers = set()
    for _, chart in chart_corpus():
        sg = chart.semigroup
        fresh = AffineSemigroup(sg.rank, sg.generators)
        assert sg.minimal_generators() == fresh.minimal_elements(fresh.generators)
        g = sg.generators
        probes = [tuple(map(sub, rng.choice(g), rng.choice(g))) for _ in range(30)]
        probes += [
            tuple(a + b - c for a, b, c in zip(rng.choice(g), rng.choice(g), rng.choice(g)))
            for _ in range(30)
        ]
        for v in probes:
            answer = sg.member(v)
            assert answer == fresh.member(v), (sg.generators, v)
            answers.add(answer)
    assert answers == {True, False}


def test_minimal_generators_with_and_without_a_prior_member_search():
    """Whether or not ``member`` has searched first, leaving its memo
    behind, the minimal generators match the brute oracle on random rank-3
    semigroups, and they are the member grading."""
    rng = random.Random(823)
    done = 0
    while done < 10:
        gens = [tuple(rng.randint(0, 3) for _ in range(3)) for _ in range(7)]
        s = AffineSemigroup(3, [g for g in gens if any(g)] or [(1, 0, 0)])
        if not s.is_pointed:
            continue
        brute = BruteSemigroup(s.generators, 3).minimal_generators()
        searched = AffineSemigroup(3, s.generators)
        searched.member(tuple(map(sum, zip(*s.generators))))
        assert sorted(x for _, _, x in searched._graded) == brute
        assert list(s.minimal_generators()) == list(searched.minimal_generators()) == brute
        assert sorted(x for _, _, x in searched._graded) == brute
        done += 1


def test_smooth_charts_stop_at_their_unit_slacks(monkeypatch):
    """Every chart's minimal generators match the brute oracle (searched in
    the chart's cone); a smooth chart's come from the sort alone, with no
    member search, and a non-smooth chart still searches."""
    searched = []
    search = AffineSemigroup._search

    def counted_search(self, x):
        searched.append(x)
        return search(self, x)

    monkeypatch.setattr(AffineSemigroup, "_search", counted_search)
    smooth = singular = 0
    for _, chart in chart_corpus():
        sg = chart.semigroup
        fresh = AffineSemigroup.with_facets(sg.rank, sg.generators, sg.cone.facets)
        brute = BruteSemigroup(sg.generators, sg.rank, (sg.cone.facets, ()))
        del searched[:]
        assert list(fresh.minimal_generators()) == brute.minimal_generators(), sg
        if is_smooth(sg):
            assert searched == [], sg
            smooth += 1
        else:
            singular += bool(searched)
    assert smooth > 800 and singular > 800


def test_member_grading_is_the_minimal_generators_however_it_is_reached():
    """``member`` answers alike before and after ``minimal_generators``,
    after a pickle round trip and on the minimal presentation, and its
    grading holds exactly the minimal generators each time."""
    rng = random.Random(1101)
    charts = [chart.semigroup for _, chart in chart_corpus()]
    answers = set()
    for sg in rng.sample(charts, 80):
        g = sg.generators
        probes = [tuple(map(sub, rng.choice(g), rng.choice(g))) for _ in range(15)]
        probes += [
            tuple(a + b - c for a, b, c in zip(rng.choice(g), rng.choice(g), rng.choice(g)))
            for _ in range(15)
        ]
        first = AffineSemigroup.with_facets(sg.rank, g, sg.cone.facets)
        expected = [first.member(v) for v in probes]
        after = AffineSemigroup.with_facets(sg.rank, g, sg.cone.facets)
        mins = after.minimal_generators()
        loaded = pickle.loads(pickle.dumps(after))
        presented = after.minimal_presentation()
        for s in (after, loaded, presented):
            assert [s.member(v) for v in probes] == expected, (g, s)
        for s in (first, after, loaded, presented):
            assert sorted(x for _, _, x in s._graded) == list(mins)
        answers.update(expected)
    assert answers == {True, False}
