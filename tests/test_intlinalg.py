"""Exact integer linear algebra: determinants, Hermite and Smith forms,
kernels and rational solving."""
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nashlab.intlinalg import (
    NoSolution,
    Underdetermined,
    adjugate,
    determinant,
    dot,
    hermite_normal_form,
    kernel_basis,
    matrix_rank,
    primitive,
    smith_normal_form,
    solve_rational,
)

from .helpers import _lattice_contains, frac_det, frac_nullspace, frac_rref, rand_unimodular


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
    with pytest.raises(ValueError):
        determinant([[1, 2, 3], [4, 5, 6]])


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
