"""Affine semigroups: canonicalization, membership, minimal generators,
the minimal and saturated presentations, unit quotients, smoothness, and
canonical forms that decide isomorphism up to unimodular change of lattice
coordinates.

A semigroup is the set of N-combinations of finitely many integer vectors.
After :func:`canonicalize` the generated group is the full lattice Z^rank,
which every blowup-facing operation assumes.
"""
from __future__ import annotations

from functools import cached_property
from operator import sub

from .cones import Cone, hilbert_basis
from .intlinalg import (
    adjugate,
    determinant,
    dot,
    hermite_normal_form,
    identity_matrix,
    kernel_basis,
)


class NotPointedError(ValueError):
    """Operation needs a pointed semigroup; apply unit_quotient first."""


class NotCanonicalError(ValueError):
    """Operation needs generators that generate Z^rank; apply canonicalize first."""


class AffineSemigroup:
    """Semigroup generated by integer vectors in Z^rank.

    The generator list is deduplicated, zero-free and sorted; caches for the
    cone, minimal generators and membership are built lazily and never
    mutate observable state.
    """

    def __init__(self, rank, generators):
        gens = tuple(sorted({tuple(g) for g in generators if any(g)}))
        for g in gens:
            if len(g) != rank:
                raise ValueError("generator has wrong dimension")
        if rank < 0:
            raise ValueError("rank must be nonnegative")
        if rank > 0 and not gens:
            raise ValueError("semigroup of positive rank needs a nonzero generator")
        self.rank = rank
        self.generators = gens
        self._cone = None
        self._graded = None
        self._member_cache = {}
        self._mingens = None
        self._key = None

    @classmethod
    def with_facets(cls, rank, generators, facets):
        """Semigroup of a full-dimensional cone whose primitive facet
        normals are already known; its cone runs no double description."""
        out = cls(rank, generators)
        out._cone = Cone(rank, out.generators, facets=facets)
        return out

    def __eq__(self, other):
        return (
            isinstance(other, AffineSemigroup)
            and self.rank == other.rank
            and self.generators == other.generators
        )

    def __hash__(self):
        return hash((self.rank, self.generators))

    def __repr__(self):
        return f"AffineSemigroup(rank={self.rank}, generators={list(self.generators)})"

    @property
    def cone(self):
        if self._cone is None:
            self._cone = Cone(self.rank, self.generators)
        return self._cone

    @property
    def is_pointed(self):
        return self.cone.is_pointed

    def _grade(self, elements):
        """``(ℓ·x, φ(x), x)`` for the distinct elements x, sorted by (ℓ·x, x):
        the slacks φ(x) = (f·x for f in cone.facets), injective on the span
        of a pointed cone, and their sum, positive on Γ minus 0 (checked)."""
        if not self.is_pointed:
            raise NotPointedError("no positive grading on a non-pointed semigroup; apply unit_quotient first")
        elements = set(elements)
        graded = sorted(
            ((sum(s), s, x) for x, s in zip(elements, map(self.cone.slack, elements))),
            key=lambda e: (e[0], e[2]),
        )
        if graded and graded[0][0] <= 0:
            raise AssertionError("degree not positive on a semigroup element")
        return graded

    def member(self, v) -> bool:
        """Whether v is an N-combination of the generators: a
        :meth:`_search` on the slack vector φ(v) of :meth:`_grade`.
        Requires a pointed semigroup (termination bound)."""
        v = tuple(v)
        if len(v) != self.rank:
            raise ValueError("vector has wrong dimension")
        if not any(v):
            return True
        if not self.is_pointed:
            raise NotPointedError("member requires a pointed semigroup; apply unit_quotient first")
        cone = self.cone
        if any(dot(e, v) for e in cone.span_equations):
            return False
        x = cone.slack(v)
        if min(x) < 0:
            return False
        return self._search(x)

    def _search(self, x) -> bool:
        """Whether the nonnegative, nonzero slack vector x is φ of a member:
        a depth-first search from x to x − φ(g) over the minimal generators g
        of degree at most that of x, building each child only when it
        reaches it.  A child with a negative entry has left the cone; a
        nonnegative one of degree 0 is 0, so x is a member.  Memoized by
        slack vector; the first search computes the minimal generators."""
        cache = self._member_cache
        hit = cache.get(x)
        if hit is not None:
            return hit
        if self._graded is None:
            self._graded = self._grade(self.minimal_generators())
        graded = self._graded
        n = len(graded)
        stack = [[x, sum(x), 0]]  # slack, degree, next generator index
        while stack:
            frame = stack[-1]
            x, deg, i = frame
            child = None
            while i < n:
                dg, sg, _ = graded[i]
                if dg > deg:
                    break
                i += 1
                y = tuple(map(sub, x, sg))
                if min(y) < 0:
                    continue
                known = cache.get(y) if dg < deg else True
                if known is None:
                    child = [y, deg - dg, 0]
                    break
                if known:
                    for f in stack:
                        cache[f[0]] = True
                    return True
            if child is None:
                cache[x] = False
                stack.pop()
            else:
                frame[2] = i
                stack.append(child)
        return False

    def _minimal_graded(self, elements):
        """Yield the entries of :meth:`_grade` for the elements x of
        ``elements`` that are minimal for x ≼ y ⇔ y − x ∈ Γ, in order.

        x is dropped when φ(x) − φ(y) passes :meth:`_search` for a kept y of
        lower degree; a difference with a negative entry is outside the cone
        and is never searched.  Each x is yielded before the next one is
        tested.
        """
        kept = []
        for ex, sx, x in self._grade(elements):
            diffs = (tuple(map(sub, sx, sy)) for ey, sy, _ in kept if ey < ex)
            if not any(min(z) >= 0 and self._search(z) for z in diffs):
                kept.append((ex, sx, x))
                yield ex, sx, x

    def minimal_elements(self, elements):
        """The elements of ``elements`` (points of Γ) that are minimal for
        x ≼ y ⇔ y − x ∈ Γ, sorted (pointed case)."""
        return tuple(sorted(x for _, _, x in self._minimal_graded(elements)))

    def minimal_generators(self):
        """The unique inclusion-minimal generating set (pointed case): the
        elements of Γ not expressible as a sum of two nonzero elements.

        A free Γ gets them from :func:`_free_basis`.  Otherwise the
        :meth:`_search` runs over the minimal generators kept so far, which
        stay its grading afterwards.  When x is tested, every φ(x) − φ(y)
        has degree below ℓ·x, so it decomposes over minimal generators of
        lower degree, all of them kept already; and a memoized vector has
        lower degree than any generator kept later, so the memo stays exact.
        """
        if self._mingens is None:
            self._mingens = _free_basis(self)
        if self._mingens is None:
            self._graded = []
            for entry in self._minimal_graded(self.generators):
                self._graded.append(entry)
            self._mingens = tuple(sorted(x for _, _, x in self._graded))
        return self._mingens

    def _presented_by(self, generators):
        """Semigroup minimally generated by ``generators``, sharing this cone."""
        out = AffineSemigroup(self.rank, generators)
        out._cone = self.cone
        out._mingens = out.generators
        return out

    def minimal_presentation(self):
        """The same semigroup, generated by :meth:`minimal_generators`; it
        shares this cone and, since both fix it, a cached canonical form
        (pointed case)."""
        out = self._presented_by(self.minimal_generators())
        out._key = self._key
        return out

    def saturation(self):
        """The saturation cone ∩ Z^rank, generated by its Hilbert basis; it
        shares this cone (pointed, full-dimensional case)."""
        return self._presented_by(hilbert_basis(self.cone) if self.rank else ())


def _pivot_columns(H):
    """Column of the first nonzero entry of each nonzero row of an echelon form."""
    return [next(j for j, x in enumerate(row) if x) for row in H if any(row)]


def canonicalize(gens) -> AffineSemigroup:
    """Re-coordinatize so the generated group is the full lattice.

    Takes arbitrary integer vectors, drops zeros and duplicates, takes the
    nonzero rows of their Hermite normal form as a lattice basis of the
    generated group, and rewrites every generator in that basis by forward
    substitution: the basis is in echelon form, so each coordinate is the
    generator's remaining entry at a pivot divided by the pivot.
    """
    pts = [tuple(g) for g in gens]
    if not pts:
        raise ValueError("no generators given")
    dim = len(pts[0])
    for p in pts:
        if len(p) != dim:
            raise ValueError("generators have mixed dimensions")
    nz = sorted({p for p in pts if any(p)})
    if not nz:
        raise ValueError("all generators are zero")
    H, _ = hermite_normal_form(nz, transform=False)
    basis = list(zip([row for row in H if any(row)], _pivot_columns(H)))
    out = []
    for g in nz:
        coords = []
        for row, c in basis:
            q = g[c] // row[c]
            g = [a - q * b for a, b in zip(g, row)]
            coords.append(q)
        if any(g):
            raise AssertionError("generator not in its own lattice basis span")
        out.append(tuple(coords))
    return AffineSemigroup(len(basis), out)


def unit_quotient(s: AffineSemigroup):
    """Quotient by the saturation of the unit group.

    Returns ``(pointed_image, unit_rank)``; a pointed input comes back
    unchanged with unit rank 0.  Otherwise the units U(Γ) = Γ ∩ (−Γ) span
    the lineality space of the cone, whose lattice points are the
    saturation of U(Γ), and the integer functionals A that vanish on it
    (a saturated kernel basis) map Z^rank onto Z^(rank − u): g ↦ A·g is
    the quotient map, checked onto through the Hermite form of Aᵀ.
    """
    if s.is_pointed:
        return s, 0
    lin = s.cone.lineality_basis()
    d, u = s.rank, len(lin)
    A = kernel_basis(lin)
    H, _ = hermite_normal_form(list(zip(*A)), transform=False)
    if len(A) + u != d or [row for row in H if any(row)] != identity_matrix(d - u):
        raise AssertionError("unit quotient map must be onto Z^(rank - u)")
    img = [tuple(dot(a, g) for a in A) for g in s.generators]
    img = [g for g in img if any(g)]
    if u < d and not img:
        raise NotCanonicalError("the units fill the generators' span, a proper subspace; canonicalize them first")
    return AffineSemigroup(d - u, img), u


def _free_basis(s: AffineSemigroup):
    """The sorted lattice basis that Γ is free on, or None: Γ is free iff its
    facet matrix F is square, |det F| = 1, its cone is full-dimensional, and
    every column of F⁻¹ is in Γ (Cox, Little and Schenck, *Toric Varieties*,
    2011, §1.3), since each point x of the cone is F⁻¹·(F·x).  A column is
    primitive on an extreme ray, so it lies in Γ only as a generator."""
    F = s.cone.facets
    if len(F) != s.rank or s.cone.span_equations or abs(determinant(F)) != 1:
        return None
    basis = tuple(sorted(zip(*adjugate(F)[0])))
    return basis if set(basis).issubset(s.generators) else None


def is_smooth(s: AffineSemigroup) -> bool:
    """Toric smoothness: after quotienting units, the pointed part must be
    free on a lattice basis (:func:`_free_basis`).  A free Γ is pointed, so
    it is tested first and needs no lineality computation."""
    if _free_basis(s) is not None:
        return True
    pointed, u = unit_quotient(s)
    return u > 0 and _free_basis(pointed) is not None


class IsoCertificate:
    """Witness of a torus-equivariant isomorphism: a unimodular matrix U with
    U · (minimal generators of source) = minimal generators of target."""

    def __init__(self, matrix: tuple):
        self.matrix = matrix

    def apply(self, v):
        return tuple(dot(row, v) for row in self.matrix)

    def verify(self, source: AffineSemigroup, target: AffineSemigroup) -> bool:
        if source.rank != target.rank:
            return False
        d = source.rank
        if [len(row) for row in self.matrix] != [d] * d or abs(determinant(self.matrix)) != 1:
            return False
        src = source.minimal_generators()
        tgt = set(target.minimal_generators())
        image = {self.apply(g) for g in src}
        return image == tgt and len(image) == len(src)

    @cached_property
    def _inverse_columns(self):
        """The columns of U⁻¹, the adjugate of U once |det U| = 1 is checked."""
        inverse, det = adjugate(self.matrix)
        if det != 1:
            raise AssertionError("certificate is not unimodular")
        return tuple(zip(*inverse))

    def image(self, generators, facets) -> AffineSemigroup:
        """U·Γ for the full-dimensional Γ minimally generated by
        ``generators``, with primitive facet normals ``facets``, both plain
        data as a stored expansion holds them: generators U·g, and the rows
        of F·U⁻¹ as facets, since (f·U⁻¹)·(U·g) = f·g.  U⁻¹ is computed
        once per certificate; the result's cone checks its facets on its
        generators, and U, a lattice automorphism, keeps them minimal."""
        cols = self._inverse_columns
        facets = [tuple(dot(f, col) for col in cols) for f in facets]
        out = AffineSemigroup.with_facets(len(self.matrix), map(self.apply, generators), facets)
        out._mingens = out.generators
        return out


def _ranks(signatures):
    """Rank of each signature among the distinct ones: an order-free colour."""
    rank = {sig: i for i, sig in enumerate(sorted(set(signatures)))}
    return [rank[sig] for sig in signatures]


def _least_form(S):
    """``(columns, column order)``: the sorted columns of the least leaf
    that this search reaches in S, the same for every row and column order.

    Row colours start from each row's sorted entries and are refined until
    no class splits: a column is coloured by its multiset of (row colour,
    entry), a row by its colour and its multiset of (column colour, entry).
    A round keys each row by its old colour first, so it refines the ordered
    partition; one that adds no class leaves it as it was, and a discrete
    colouring is not refined at all.
    Each row of the first tied class is then tried as a singleton.  A leaf
    orders the rows by colour.  A leaf equal to an earlier one gives an
    automorphism of S that maps this subtree onto an explored one, so the
    search resumes where they part.
    """
    leaves = {}  # sorted columns -> (singleton rows, column order) of the first such leaf

    def search(colours, fixed):
        classes = len(set(colours))
        while classes < len(colours):
            ccol = _ranks([tuple(sorted(zip(colours, col))) for col in zip(*S)])
            colours = _ranks([(c, tuple(sorted(zip(ccol, row)))) for c, row in zip(colours, S)])
            if max(colours) + 1 == classes:
                break
            classes = max(colours) + 1
        tied = min((c for c in colours if colours.count(c) > 1), default=None)
        if tied is None:
            columns = list(zip(*(row for _, row in sorted(zip(colours, S)))))
            cols = sorted(range(len(columns)), key=columns.__getitem__)
            first = leaves.setdefault(tuple(columns[j] for j in cols), (fixed, cols))[0]
            return next((k for k, (a, b) in enumerate(zip(first, fixed)) if a != b), len(fixed))
        for i in [k for k, c in enumerate(colours) if c == tied]:
            split = [2 * c + (c == tied and k != i) for k, c in enumerate(colours)]
            back = search(split, fixed + [i])
            if back < len(fixed):
                return back
        return len(fixed)

    search(_ranks([tuple(sorted(row)) for row in S]), [])
    return min((leaf, cols) for leaf, (_, cols) in leaves.items())


def canonical_form(s: AffineSemigroup):
    """``(key, generators)``: a key equal exactly on isomorphism classes,
    and the minimal generators in the key's column order.

    The slack map x ↦ (f·x)_f over the primitive facet normals is injective
    on a pointed semigroup that generates Z^rank, so two of them are
    isomorphic iff their facet × minimal-generator slack matrices agree up
    to row and column permutations, and matching columns pair generators.
    The key is the rank and the least such matrix (McKay and Piperno,
    *Practical graph isomorphism II*, 2014).  Cached.
    """
    if s._key is None:
        if s.cone.span_equations:
            raise NotCanonicalError("not full-dimensional; canonicalize it first")
        gens = s.minimal_generators()
        leaf, cols = _least_form([[dot(f, g) for g in gens] for f in s.cone.facets])
        s._key = ((s.rank, leaf), tuple(gens[j] for j in cols))
    return s._key


def invariant_key(s: AffineSemigroup):
    """Hashable key equal exactly on isomorphism classes (:func:`canonical_form`)."""
    return canonical_form(s)[0]


def isomorphic(a: AffineSemigroup, b: AffineSemigroup):
    """A verified :class:`IsoCertificate` for a unimodular map carrying the
    minimal generators of ``a`` bijectively onto those of ``b``, or None.

    Equal canonical keys pair the canonically ordered minimal generators;
    the first ``rank`` independent ones of ``a`` (the pivot columns of the
    Hermite form of the matrix with columns ``ga``) and their partners in
    ``b`` fix the map, through one adjugate.  Both inputs must be pointed and
    generate Z^rank (see :func:`canonicalize`); a violation found on the way
    raises :class:`NotPointedError` or :class:`NotCanonicalError`.
    """
    (ka, ga), (kb, gb) = canonical_form(a), canonical_form(b)
    if ka != kb:
        return None
    d = a.rank
    basis = _pivot_columns(hermite_normal_form(list(zip(*ga)), transform=False)[0])
    adj, det = adjugate(list(zip(*(ga[j] for j in basis))))
    # U · ga[j] = gb[j] for j in basis: U = B · adj / det, B with columns gb[j]
    U = [[sum(gb[j][t] * r[k] for j, r in zip(basis, adj)) for k in range(d)] for t in range(d)]
    cert = IsoCertificate(matrix=tuple(tuple(x // det for x in row) for row in U))
    if any(x % det for row in U for x in row) or not cert.verify(a, b):
        if canonicalize(a.generators) != a or canonicalize(b.generators) != b:
            raise NotCanonicalError("generators span a proper sublattice; canonicalize them first")
        raise AssertionError("equal canonical keys without a verified certificate")
    return cert


def to_json_dict(s: AffineSemigroup) -> dict:
    return {"rank": s.rank, "generators": [list(g) for g in s.generators]}


def from_json_dict(data) -> AffineSemigroup:
    """Parse the canonical JSON form and canonicalize the result."""
    if not isinstance(data, dict):
        raise ValueError("semigroup JSON must be an object")
    if "generators" not in data:
        raise ValueError("semigroup JSON needs a 'generators' field")
    gens = data["generators"]
    if not isinstance(gens, list) or not gens:
        raise ValueError("'generators' must be a nonempty list of integer vectors")
    rank = data.get("rank")
    if rank is not None and (type(rank) is not int or rank < 0):
        raise ValueError("'rank' must be a nonnegative integer")
    for g in gens:
        if not isinstance(g, list) or not all(type(x) is int for x in g):
            raise ValueError("generators must be lists of integers (true and false are not integers)")
        if rank is not None and len(g) != rank:
            raise ValueError("generator length disagrees with 'rank'")
    return canonicalize(gens)
