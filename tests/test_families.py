"""Family constructors: numerical, cyclic quotient, Rebassoo, Reeve, the
seven-generator counterexample, and preset parsing."""
import pytest

from nashlab.cones import Cone, hilbert_basis
from nashlab.families import (
    X_RELATIONS,
    counterexample_generators,
    counterexample_x,
    cyclic_quotient,
    from_preset,
    numerical,
    rebassoo,
    reeve,
)
from nashlab.intlinalg import kernel_basis
from nashlab.semigroups import canonicalize, is_smooth, isomorphic


def test_numerical_examples():
    assert numerical([2, 3]).generators == ((2,), (3,))
    n = numerical([1])
    assert n.generators == ((1,),)
    assert is_smooth(n)
    # common factors rescale away during canonicalization
    assert numerical([4, 6]).generators == ((2,), (3,))


def test_numerical_rejects_bad_generators():
    with pytest.raises(ValueError):
        numerical([])
    with pytest.raises(ValueError):
        numerical([0, 2])
    with pytest.raises(ValueError):
        numerical([-3])
    with pytest.raises(ValueError):
        numerical([2.5])


def test_cyclic_quotient_examples():
    assert cyclic_quotient(1, 2).generators == ((1, 0), (1, 1), (1, 2))
    assert cyclic_quotient(0, 1).generators == ((0, 1), (1, 0))
    for k in (3, 4, 5):
        assert len(cyclic_quotient(1, k).generators) == k + 1
    with pytest.raises(ValueError):
        cyclic_quotient(2, 4)
    with pytest.raises(ValueError):
        cyclic_quotient(3, 2)
    with pytest.raises(ValueError):
        cyclic_quotient(-1, 2)


def test_cyclic_quotient_is_saturated():
    s = cyclic_quotient(3, 7)
    assert s.generators == hilbert_basis(Cone(2, s.generators))


def test_rebassoo_examples():
    assert isomorphic(rebassoo(1, 1, 2), cyclic_quotient(1, 2)) is not None
    assert is_smooth(rebassoo(2, 3, 1))
    with pytest.raises(ValueError):
        rebassoo(2, 2, 2)
    with pytest.raises(ValueError):
        rebassoo(1, 1, 0)


def test_reeve_smoothness_by_parameter():
    assert is_smooth(reeve(1))
    for q in (2, 3, 4):
        s = reeve(q)
        assert not is_smooth(s)
        assert s.rank == 4
        assert s.generators == hilbert_basis(Cone(4, s.generators))
    with pytest.raises(ValueError):
        reeve(0)


def test_counterexample_generators_satisfy_the_six_relations():
    gens = counterexample_generators()
    assert len(gens) == 7
    for rel in X_RELATIONS:
        for k in range(4):
            assert sum(rel[i] * gens[i][k] for i in range(7)) == 0


def test_counterexample_relations_span_the_full_relation_lattice():
    """The six binomial rows must lie in (and span) the relation lattice of
    the generators: the kernel of the 7x4 generator matrix transposed."""
    gens = counterexample_generators()
    rel_lattice = kernel_basis([[g[k] for g in gens] for k in range(4)])
    assert len(rel_lattice) == 3  # 7 generators, rank 4
    # each defining relation is an integer combination of the lattice basis
    from .helpers import _lattice_contains

    for rel in X_RELATIONS:
        assert _lattice_contains(rel_lattice, rel)


def test_counterexample_x_shape():
    x = counterexample_x()
    assert x.rank == 4
    assert len(x.minimal_generators()) == 7
    assert x.is_pointed
    assert not is_smooth(x)


def test_every_constructor_output_is_canonical_and_pointed():
    instances = [
        numerical([2, 3]),
        numerical([5, 7, 9]),
        cyclic_quotient(1, 2),
        cyclic_quotient(5, 8),
        rebassoo(1, 1, 2),
        rebassoo(3, 2, 4),
        reeve(2),
        reeve(3),
        counterexample_x(),
    ]
    for s in instances:
        again = canonicalize(s.generators)
        assert again.rank == s.rank
        assert again.generators == s.generators
        assert s.is_pointed


def test_from_preset():
    assert from_preset("nobile").generators == ((2,), (3,))
    assert from_preset("a1").generators == cyclic_quotient(1, 2).generators
    assert from_preset("cdll").generators == counterexample_x().generators
    assert from_preset("numerical:4,6,7").generators == numerical([4, 6, 7]).generators
    assert from_preset("cyclic_quotient:3,7").generators == cyclic_quotient(3, 7).generators
    assert from_preset("rebassoo:1,1,2").generators == rebassoo(1, 1, 2).generators
    assert from_preset("reeve:2").generators == reeve(2).generators
    for bad in ("mystery", "reeve", "reeve:1,2", "cyclic_quotient:x,y", "numerical:"):
        with pytest.raises(ValueError):
            from_preset(bad)
