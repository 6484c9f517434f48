"""Exact integer linear algebra: determinants, Hermite and Smith forms,
kernels and rational solving."""
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import nashlab.intlinalg
from nashlab.intlinalg import (
    NoSolution,
    Underdetermined,
    adjugate,
    determinant,
    dot,
    hermite_normal_form,
    kernel_basis,
    primitive,
    smith_normal_form,
    solve_rational,
)

from .helpers import _lattice_contains, frac_det, frac_nullspace, frac_rref, matrix_rank, rand_unimodular


def mat_mul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def test_determinant_hand_cases():
    assert determinant([[5]]) == 5
    assert determinant([[1, 0], [0, 1]]) == 1
    assert determinant([[2, 1], [1, 2]]) == 3
    assert determinant([[0, 1], [1, 0]]) == -1
    assert determinant([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 0


def test_determinant_rejects_non_square():
    """Also a matrix of n rows with a row of another length, in the sizes
    with closed forms too, and for ``adjugate``."""
    with pytest.raises(ValueError):
        determinant([[1, 2, 3], [4, 5, 6]])
    ragged = [
        [[1, 2], [3]],
        [[1, 2], [3, 4, 5]],
        [[1], [2, 3]],
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1], [0, 0, 0, 1]],
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1, 0]],
        [[1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    ]
    for m in ragged:
        with pytest.raises(ValueError, match="determinant needs a square matrix"):
            determinant(m)
        with pytest.raises(ValueError, match="adjugate needs a square matrix"):
            adjugate(m)


def test_determinant_matches_fraction_gauss():
    rng = random.Random(101)
    for _ in range(60):
        n = rng.randint(1, 5)
        m = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        assert determinant(m) == frac_det(m)


def test_determinant_multiplicative():
    rng = random.Random(102)
    for _ in range(25):
        n = rng.randint(2, 4)
        a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        b = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        assert determinant(mat_mul(a, b)) == determinant(a) * determinant(b)


def test_hermite_form_factorization_and_shape():
    rng = random.Random(103)
    for _ in range(50):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = [[rng.randint(-7, 7) for _ in range(cols)] for _ in range(rows)]
        H, U = hermite_normal_form(m)
        assert abs(determinant(U)) == 1
        assert mat_mul(U, m) == [list(r) for r in H]
        # echelon with positive pivots and reduced entries above
        pivots = []
        for r in H:
            nz = [j for j, x in enumerate(r) if x]
            if not nz:
                continue
            p = nz[0]
            assert not pivots or p > pivots[-1]
            assert r[p] > 0
            pivots.append(p)
        # zero rows at the bottom only
        seen_zero = False
        for r in H:
            if not any(r):
                seen_zero = True
            else:
                assert not seen_zero
        for i, p in enumerate(pivots):
            for k in range(i):
                assert 0 <= H[k][p] < H[i][p]


def test_hermite_form_preserves_row_lattice():
    rng = random.Random(104)
    for _ in range(30):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        H, _ = hermite_normal_form(m)
        hrows = [r for r in H if any(r)]
        for r in m:
            assert _lattice_contains(hrows, tuple(r))
        for r in hrows:
            assert _lattice_contains([tuple(x) for x in m], tuple(r))


def test_hermite_form_without_transform_is_the_same_form():
    """``transform=False`` builds no U and returns the same H as the
    default, on tall, wide and square matrices, with zero rows, and on the
    empty matrix."""
    rng = random.Random(110)
    shapes = {"tall": 0, "wide": 0, "square": 0, "zero rows": 0}
    for _ in range(120):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = [[rng.randint(-7, 7) for _ in range(cols)] for _ in range(rows)]
        for _ in range(rng.randint(0, 2)):
            m.insert(rng.randrange(len(m) + 1), [0] * cols)
        H, U = hermite_normal_form(m)
        assert hermite_normal_form(m, transform=False) == (H, None)
        assert U is not None
        shapes["tall" if len(m) > cols else "wide" if len(m) < cols else "square"] += 1
        shapes["zero rows"] += any(not any(r) for r in m)
    assert min(shapes.values()) >= 10, shapes
    assert hermite_normal_form([]) == ([], [])
    assert hermite_normal_form([], transform=False) == ([], None)


def test_matrix_rank_matches_fraction_gauss():
    assert matrix_rank([]) == 0
    assert matrix_rank([[0, 0], [0, 0]]) == 0
    rng = random.Random(109)
    for _ in range(40):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 4)
        m = [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)]
        assert matrix_rank(m) == len(frac_rref(m)[0])


def test_smith_form_factorization_shape_divisibility():
    rng = random.Random(105)
    for _ in range(50):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = [[rng.randint(-7, 7) for _ in range(cols)] for _ in range(rows)]
        S, U, V = smith_normal_form(m)
        assert abs(determinant(U)) == 1
        assert abs(determinant(V)) == 1
        assert mat_mul(mat_mul(U, m), V) == [list(r) for r in S]
        diag = [S[i][i] for i in range(min(rows, cols))]
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert S[i][j] == 0
        for i in range(len(diag)):
            assert diag[i] >= 0
            if i + 1 < len(diag) and diag[i + 1] != 0:
                assert diag[i] != 0 and diag[i + 1] % diag[i] == 0


def test_smith_form_square_determinant_product():
    rng = random.Random(106)
    for _ in range(30):
        n = rng.randint(1, 4)
        m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        S, _, _ = smith_normal_form(m)
        prod = 1
        for i in range(n):
            prod *= S[i][i]
        assert prod == abs(determinant(m))


def test_kernel_basis_spans_the_saturated_kernel():
    rng = random.Random(107)
    for _ in range(40):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 5)
        m = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        kb = kernel_basis(m)
        for v in kb:
            for r in m:
                assert dot(r, v) == 0
        oracle = frac_nullspace(m, cols)
        assert len(kb) == len(oracle)
        # every integer kernel vector must lie in a saturated kernel lattice
        for v in oracle:
            assert _lattice_contains(kb, v) if kb else not any(v)
        # saturation itself: all Smith invariant factors of the basis are 1
        if kb:
            S, _, _ = smith_normal_form([list(v) for v in kb])
            for i in range(len(kb)):
                assert S[i][i] == 1


def test_kernel_basis_requires_rows():
    with pytest.raises(ValueError):
        kernel_basis([])


def test_solve_rational_recovers_known_solutions():
    rng = random.Random(108)
    for _ in range(40):
        n = rng.randint(1, 4)
        extra = rng.randint(0, 2)
        while True:
            a = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            if determinant(a) != 0:
                break
        x = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)]
        rows = a + [a[rng.randrange(n)] for _ in range(extra)]
        b = [sum(r[j] * x[j] for j in range(n)) for r in rows]
        sol = solve_rational(rows, b)
        assert list(sol) == x


def test_solve_rational_inconsistent():
    with pytest.raises(NoSolution):
        solve_rational([[1, 1], [1, 1]], [0, 1])
    with pytest.raises(NoSolution):
        solve_rational([[0, 0]], [3])


def test_solve_rational_underdetermined_carries_kernel():
    with pytest.raises(Underdetermined) as exc:
        solve_rational([[1, 1, 0]], [2])
    kern = exc.value.kernel
    assert len(kern) == 2
    for v in kern:
        assert dot([1, 1, 0], v) == 0


SQUARE_MATRICES = st.integers(1, 5).flatmap(
    lambda d: st.lists(st.lists(st.integers(-6, 6), min_size=d, max_size=d), min_size=d, max_size=d)
)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(SQUARE_MATRICES)
def test_adjugate_scales_the_identity_by_a_positive_determinant(m):
    det_m = determinant(m)
    assume(det_m != 0)
    d = len(m)
    flipped = [[-x for x in m[0]]] + m[1:]  # the opposite sign of the determinant
    for mat in (m, flipped):
        adj, det = adjugate(mat)
        assert det == abs(det_m)
        scaled = [[det if i == j else 0 for j in range(d)] for i in range(d)]
        assert mat_mul(mat, adj) == scaled
        assert mat_mul(adj, mat) == scaled


def test_two_by_two_closed_forms_on_every_small_matrix():
    """All 2401 matrices with entries in [-3, 3]: ``determinant`` equals the
    Fraction elimination, and ``adjugate`` gives list rows with
    ``m·adj = adj·m = det·I`` and ``det = |det m| > 0``, or ``ValueError``
    when ``m`` is singular; ragged input is still not square."""
    for a, b, c, d in product(range(-3, 4), repeat=4):
        m = [[a, b], [c, d]]
        det_m = determinant(m)
        assert det_m == frac_det(m)
        if det_m == 0:
            with pytest.raises(ValueError, match="matrix is singular"):
                adjugate(m)
            continue
        adj, det = adjugate(m)
        assert det == abs(det_m) and all(type(row) is list for row in adj)
        assert mat_mul(m, adj) == mat_mul(adj, m) == [[det, 0], [0, det]]
    for ragged in ([[1, 2], [3]], [[1], [2, 3]]):
        with pytest.raises(ValueError, match="determinant needs a square matrix"):
            determinant(ragged)
        with pytest.raises(ValueError, match="adjugate needs a square matrix"):
            adjugate(ragged)


def _check_four_by_four(m):
    """``determinant`` equals the Fraction elimination, and ``adjugate``
    gives list rows with ``m·adj = adj·m = det·I`` and ``det = |det m| > 0``,
    or the singular ``ValueError``; returns the determinant."""
    det_m = determinant(m)
    assert det_m == frac_det(m), m
    if det_m == 0:
        with pytest.raises(ValueError, match="matrix is singular"):
            adjugate(m)
        return 0
    adj, det = adjugate(m)
    assert det == abs(det_m) and all(type(row) is list for row in adj)
    scaled = [[det if i == j else 0 for j in range(4)] for i in range(4)]
    assert mat_mul(m, adj) == mat_mul(adj, m) == scaled, m
    return det_m


def test_four_by_four_closed_forms_on_small_matrices():
    """20,000 seeded 4 × 4 matrices with entries in [-3, 3], a fifth of them
    each with a repeated row, a zero column and rank 3 (the last row a
    combination of the others), as lists and as the tuples of generators
    that ``log_jacobian`` passes."""
    rng = random.Random(2704)
    kinds = {"random": 0, "repeated row": 0, "zero column": 0, "rank 3": 0, "tuples": 0}
    singular = 0
    for kind in [k for k in kinds for _ in range(4000)]:
        m = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)]
        if kind == "repeated row":
            i, j = rng.sample(range(4), 2)
            m[i] = list(m[j])
        elif kind == "zero column":
            j = rng.randrange(4)
            for row in m:
                row[j] = 0
        elif kind == "rank 3":
            while True:
                c = [rng.randint(-1, 1) for _ in range(3)]
                last = [sum(ci * row[j] for ci, row in zip(c, m[:3])) for j in range(4)]
                if max(map(abs, last)) <= 3:
                    break
                m = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)]
            m[3] = last
            rng.shuffle(m)
        elif kind == "tuples":
            m = tuple(map(tuple, m))
        det_m = _check_four_by_four(m)
        singular += det_m == 0
        kinds[kind] += 1
        if kind in ("repeated row", "zero column", "rank 3"):
            assert det_m == 0
    assert min(kinds.values()) == 4000 and 12000 < singular < 20000


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.lists(st.integers(-10**12, 10**12), min_size=4, max_size=4), min_size=4, max_size=4),
       st.lists(st.integers(-3, 3), min_size=3, max_size=3))
def test_four_by_four_closed_forms_on_large_entries(m, coeffs):
    _check_four_by_four(m)
    # a last row combined from the others: singular, however large
    m[3] = [sum(c * row[j] for c, row in zip(coeffs, m[:3])) for j in range(4)]
    assert _check_four_by_four(m) == 0


def test_four_by_four_adjugate_calls_no_determinant(monkeypatch):
    def unused(m):
        raise AssertionError("a 4 × 4 adjugate must not call determinant")

    monkeypatch.setattr(nashlab.intlinalg, "determinant", unused)
    m = [[2, 1, 0, 0], [1, 2, 1, 0], [0, 1, 2, 1], [0, 0, 1, 2]]
    adj, det = adjugate(m)
    assert det == 5 and mat_mul(m, adj) == [[5 if i == j else 0 for j in range(4)] for i in range(4)]
    with pytest.raises(ValueError, match="matrix is singular"):
        adjugate([[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 0, 1], [1, 0, 1, 0]])


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(1, 5), st.randoms(use_true_random=False))
def test_adjugate_of_a_unimodular_matrix_is_its_inverse(d, rng):
    u = rand_unimodular(rng, d)
    w, det = adjugate(u)
    eye = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    assert det == 1
    assert mat_mul(u, w) == eye
    assert mat_mul(w, u) == eye


@settings(derandomize=True, max_examples=60, deadline=None)
@given(SQUARE_MATRICES, st.lists(st.integers(-3, 3), min_size=4, max_size=4))
def test_adjugate_rejects_singular(m, coeffs):
    # the last row becomes a combination of the others (a zero row for d = 1)
    m[-1] = [sum(c * row[j] for c, row in zip(coeffs, m[:-1])) for j in range(len(m))]
    with pytest.raises(ValueError):
        adjugate(m)


def test_primitive():
    assert primitive((4, -6, 2)) == (2, -3, 1)
    assert primitive((0, 0)) == (0, 0)
    assert primitive((-3,)) == (-1,)
    assert primitive((6, 9)) == (2, 3)
