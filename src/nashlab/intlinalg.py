"""Exact integer and rational linear algebra over lattices.

Everything here works with arbitrary-precision Python ints and
``fractions.Fraction`` -- there is no floating point anywhere in this
package.  Vectors are tuples of ints, matrices are sequences of rows.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul, sub


class NoSolution(Exception):
    """The linear system A x = b is inconsistent."""


class Underdetermined(Exception):
    """A has a nontrivial kernel; ``kernel`` holds a saturated integer basis."""

    def __init__(self, kernel):
        super().__init__("system is underdetermined")
        self.kernel = tuple(kernel)


def dot(u, v):
    return sum(map(mul, u, v))


def vsub(u, v):
    return tuple(map(sub, u, v))


def vneg(u):
    return tuple(-a for a in u)


def primitive(v):
    """Divide an integer vector by the gcd of its entries (0 stays 0)."""
    g = 0
    for x in v:
        g = gcd(g, x)
    if g <= 1:
        return tuple(v)
    return tuple(x // g for x in v)


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def determinant(m) -> int:
    """Exact determinant of a square integer matrix (fraction-free Bareiss)."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def hermite_normal_form(m):
    """Row-style Hermite normal form.

    Returns ``(H, U)`` with ``U * m = H``, ``U`` unimodular, pivots positive
    and entries above each pivot reduced to ``[0, pivot)``.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    H = [list(r) for r in m]
    U = identity_matrix(rows)
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if H[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        H[r], H[piv] = H[piv], H[r]
        U[r], U[piv] = U[piv], U[r]
        for i in range(r + 1, rows):
            while H[i][c] != 0:
                q = H[r][c] // H[i][c]
                for j in range(cols):
                    H[r][j] -= q * H[i][j]
                for j in range(rows):
                    U[r][j] -= q * U[i][j]
                H[r], H[i] = H[i], H[r]
                U[r], U[i] = U[i], U[r]
        if H[r][c] < 0:
            H[r] = [-x for x in H[r]]
            U[r] = [-x for x in U[r]]
        for i in range(r):
            q = H[i][c] // H[r][c]
            if q:
                for j in range(cols):
                    H[i][j] -= q * H[r][j]
                for j in range(rows):
                    U[i][j] -= q * U[r][j]
        r += 1
        if r == rows:
            break
    return H, U


def matrix_rank(m) -> int:
    """Rank of an integer matrix (0 for a matrix with no rows)."""
    H, _ = hermite_normal_form(m)
    return sum(1 for row in H if any(row))


def smith_normal_form(m):
    """Smith normal form: ``(S, U, V)`` with ``U * m * V = S`` diagonal,
    nonnegative, and each diagonal entry dividing the next."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    S = [list(r) for r in m]
    U = identity_matrix(rows)
    V = identity_matrix(cols)

    def swap_rows(i, j):
        S[i], S[j] = S[j], S[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for r in S:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]

    def addrow(i, j, q):  # row i -= q * row j
        S[i] = [a - q * b for a, b in zip(S[i], S[j])]
        U[i] = [a - q * b for a, b in zip(U[i], U[j])]

    def addcol(i, j, q):  # col i -= q * col j
        for r in S:
            r[i] -= q * r[j]
        for r in V:
            r[i] -= q * r[j]

    n = min(rows, cols)
    t = 0
    while t < n:
        piv = None
        for i in range(t, rows):
            for j in range(t, cols):
                if S[i][j] != 0:
                    piv = (i, j)
                    break
            if piv:
                break
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            done = True
            for i in range(t + 1, rows):
                if S[i][t] != 0:
                    q = S[i][t] // S[t][t]
                    addrow(i, t, q)
                    if S[i][t] != 0:
                        swap_rows(t, i)
                    done = False
            for j in range(t + 1, cols):
                if S[t][j] != 0:
                    q = S[t][j] // S[t][t]
                    addcol(j, t, q)
                    if S[t][j] != 0:
                        swap_cols(t, j)
                    done = False
            if done:
                break
        t += 1
    # enforce the divisibility chain d1 | d2 | ...
    changed = True
    while changed:
        changed = False
        for i in range(n - 1):
            a, b = S[i][i], S[i + 1][i + 1]
            if a != 0 and b % a != 0:
                # fold the offender into column i, then euclid on rows i, i+1
                addcol(i, i + 1, -1)  # col i += col i+1
                while S[i + 1][i] != 0:
                    q = S[i][i] // S[i + 1][i]
                    addrow(i, i + 1, q)
                    swap_rows(i, i + 1)
                # the fill-in S[i][i+1] is a multiple of gcd(a, b) = S[i][i]
                addcol(i + 1, i, S[i][i + 1] // S[i][i])
                changed = True
    for i in range(n):
        if S[i][i] < 0:
            S[i] = [-x for x in S[i]]
            U[i] = [-x for x in U[i]]
    return S, U, V


def kernel_basis(m):
    """Saturated basis of the integer column kernel ``{x : m x = 0}``.

    Returned as a list of integer tuples; a matrix with no rows raises
    ``ValueError``, since its column count is unknown.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    if rows == 0:
        raise ValueError("kernel_basis requires a nonempty matrix")
    mt = [[m[i][j] for i in range(rows)] for j in range(cols)]
    H, U = hermite_normal_form(mt)
    return [tuple(U[i]) for i in range(cols) if not any(H[i])]


def solve_rational(A, b):
    """Exact solution of ``A x = b`` as a tuple of Fractions.

    Raises :class:`NoSolution` if inconsistent and :class:`Underdetermined`
    (carrying a saturated integer kernel basis) if A is rank-deficient.
    """
    rows = len(A)
    cols = len(A[0]) if rows else 0
    if len(b) != rows:
        raise ValueError("dimension mismatch between A and b")
    M = [[Fraction(A[i][j]) for j in range(cols)] + [Fraction(b[i])] for i in range(rows)]
    r = 0
    pivcols = []
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if M[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        M[r] = [x / M[r][c] for x in M[r]]
        for i in range(rows):
            if i != r and M[i][c] != 0:
                f = M[i][c]
                M[i] = [x - f * y for x, y in zip(M[i], M[r])]
        pivcols.append(c)
        r += 1
    for i in range(r, rows):
        if M[i][cols] != 0:
            raise NoSolution
    if r < cols:
        raise Underdetermined(kernel_basis(A))
    x = [Fraction(0)] * cols
    for i, c in enumerate(pivcols):
        x[c] = M[i][cols]
    return tuple(x)


def adjugate(m):
    """Integer ``(adj, det)`` with ``m * adj = adj * m = det * I`` and
    ``det = |det(m)| > 0``; raises ``ValueError`` on a singular matrix.

    Fraction-free Gauss-Jordan (Bareiss) on ``[m | I]``: every division is
    exact, the left block ends as ``p * I`` with ``p = ±det(m)`` and the
    right block as ``p * m^-1``; both are multiplied by the sign of ``p``.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("adjugate needs a square matrix")
    a = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(m)]
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        a[k], a[piv] = a[piv], a[k]
        rk = a[k]
        p = rk[k]
        for i, ri in enumerate(a):
            if i != k:
                f = ri[k]
                a[i] = [(p * x - f * y) // prev for x, y in zip(ri, rk)]
        prev = p
    sign = 1 if prev > 0 else -1
    return [[sign * x for x in row[n:]] for row in a], sign * prev
