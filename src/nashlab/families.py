"""Constructors for the semigroup families used throughout: numerical
semigroups, cyclic quotient surfaces, Rebassoo hypersurfaces, Reeve cones,
and the rank-4 seven-generator semigroup whose Nash blowup contains a chart
isomorphic to itself.
"""
from __future__ import annotations

from math import gcd

from .intlinalg import kernel_basis
from .semigroups import AffineSemigroup, canonicalize

#: Relation rows over the ordered generators a1..a7: each row r encodes
#: sum_i r[i] * a_i = 0.  In binomial form: a1+a6=a3+a5, a4+a6=a2+a7,
#: 2a7=a2+a4+a5, a6+a7=2a2+a5, a3+a7=a1+2a2, a3+a4+a5=a1+a2+a7.
X_RELATIONS = (
    (1, 0, -1, 0, -1, 1, 0),
    (0, -1, 0, 1, 0, 1, -1),
    (0, -1, 0, -1, -1, 0, 2),
    (0, -2, 0, 0, -1, 1, 1),
    (-1, -2, 1, 0, 0, 0, 1),
    (-1, -1, 1, 1, 1, 0, -1),
)


def numerical(gens) -> AffineSemigroup:
    """Numerical semigroup generated by positive integers (canonicalized, so
    common factors rescale away)."""
    gens = list(gens)
    if not gens:
        raise ValueError("numerical semigroup needs at least one generator")
    for g in gens:
        if not isinstance(g, int) or isinstance(g, bool) or g <= 0:
            raise ValueError(f"numerical semigroup generators must be positive integers, got {g!r}")
    return canonicalize([(g,) for g in gens])


def cyclic_quotient(a: int, b: int) -> AffineSemigroup:
    """Semigroup of the cyclic quotient surface singularity of type (a, b):
    the Hilbert basis of cone{(1,0), (a,b)} in Z^2.  Requires 0 <= a < b and
    gcd(a, b) = 1.
    """
    if not (isinstance(a, int) and isinstance(b, int)):
        raise ValueError("cyclic_quotient parameters must be integers")
    if not (b >= 1 and 0 <= a < b):
        raise ValueError(f"cyclic_quotient requires 0 <= a < b, got a={a}, b={b}")
    if gcd(a, b) != 1:
        raise ValueError(f"cyclic_quotient requires gcd(a, b) = 1, got a={a}, b={b}")
    return AffineSemigroup(2, [(1, 0), (a, b)]).saturation()


def rebassoo(p: int, q: int, r: int) -> AffineSemigroup:
    """Toric surface cut out by x^p y^q = z^r: the semigroup generated by
    (r,0), (0,r), (p,q), canonicalized.  Requires p, q, r >= 1 with
    gcd(p, q, r) = 1."""
    for v in (p, q, r):
        if not isinstance(v, int) or v < 1:
            raise ValueError(f"rebassoo parameters must be integers >= 1, got ({p}, {q}, {r})")
    if gcd(gcd(p, q), r) != 1:
        raise ValueError(f"rebassoo requires gcd(p, q, r) = 1, got ({p}, {q}, {r})")
    return canonicalize([(r, 0), (0, r), (p, q)])


def reeve(q: int) -> AffineSemigroup:
    """Saturated semigroup of the cone over the Reeve simplex at height one:
    cone{(0,0,0,1), (1,0,0,1), (0,1,0,1), (1,1,q,1)} in Z^4.  Smooth exactly
    when q = 1."""
    if not isinstance(q, int) or q < 1:
        raise ValueError(f"reeve parameter must be a positive integer, got {q!r}")
    rays = [(0, 0, 0, 1), (1, 0, 0, 1), (0, 1, 0, 1), (1, 1, q, 1)]
    return AffineSemigroup(4, rays).saturation()


def counterexample_generators() -> tuple:
    """The ordered generators a1..a7 in Z^4 satisfying the six relations of
    :data:`X_RELATIONS`: coordinates are read off a saturated basis of the
    integer kernel of the relation matrix (Hermite form), the unique choice
    up to a unimodular change of coordinates."""
    basis = kernel_basis([list(r) for r in X_RELATIONS])
    if len(basis) != 4:
        raise AssertionError(f"relation kernel has rank {len(basis)}, expected 4")
    gens = tuple(tuple(row[i] for row in basis) for i in range(7))
    for rel in X_RELATIONS:
        for k in range(4):
            if sum(rel[i] * gens[i][k] for i in range(7)) != 0:
                raise AssertionError("constructed generators violate a defining relation")
    return gens


def counterexample_x() -> AffineSemigroup:
    """The rank-4 semigroup on seven generators whose first Nash blowup
    (characteristic 0) has a chart isomorphic to the whole semigroup."""
    s = canonicalize(counterexample_generators())
    if not (s.rank == 4 and len(s.minimal_generators()) == 7):
        raise AssertionError("constructed semigroup is not rank 4 on 7 minimal generators")
    if not s.is_pointed:
        raise AssertionError("constructed semigroup is not pointed")
    return s


def _int_args(text, name, count=None):
    try:
        vals = [int(p) for p in text.split(",")] if text else []
    except ValueError:
        raise ValueError(f"preset {name!r} expects comma-separated integers, got {text!r}")
    if count is not None and len(vals) != count:
        raise ValueError(f"preset {name!r} expects {count} parameters, got {len(vals)}")
    return vals


def from_preset(text: str) -> AffineSemigroup:
    """Resolve a named preset like ``nobile``, ``cdll``, ``rebassoo:3,1,2``,
    ``reeve:2``, ``cyclic_quotient:3,7``, or ``numerical:4,6,7``."""
    name, _, rest = text.partition(":")
    if name == "nobile":
        return numerical([2, 3])
    if name == "a1":
        return cyclic_quotient(1, 2)
    if name == "cdll":
        return counterexample_x()
    if name == "numerical":
        return numerical(_int_args(rest, name))
    if name == "cyclic_quotient":
        return cyclic_quotient(*_int_args(rest, name, 2))
    if name == "rebassoo":
        return rebassoo(*_int_args(rest, name, 3))
    if name == "reeve":
        return reeve(*_int_args(rest, name, 1))
    raise ValueError(
        f"unknown preset {name!r}; expected one of nobile, a1, cdll, numerical, "
        "cyclic_quotient, rebassoo, reeve"
    )
