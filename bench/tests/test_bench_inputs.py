"""The seeded change of coordinates is unimodular and deterministic per seed."""
import random

from checks import determinant
from workloads import transform, unimodular

GENS = [[0, -2, -1, -2], [0, 0, -1, -1], [0, 0, 0, -1], [0, 1, 0, 0],
        [0, 1, 1, 0], [1, 0, 0, 0], [1, 2, 0, 1]]


def test_unimodular_for_many_seeds_and_ranks():
    for seed in range(200):
        for d in (1, 2, 3, 4):
            u = unimodular(random.Random(seed), d)
            assert abs(determinant(u)) == 1
            assert max(abs(x) for row in u for x in row) <= 2 ** d


def test_transform_is_deterministic_per_seed_and_varies_across_seeds():
    assert transform(GENS, 7, "cdll") == transform(GENS, 7, "cdll")
    images = {str(transform(GENS, s, "cdll")[1]) for s in range(20)}
    assert len(images) > 15


def test_transform_applies_the_matrix_then_shuffles():
    u, out = transform(GENS, 3, "cdll")
    image = sorted([sum(a * b for a, b in zip(row, g)) for row in u] for g in GENS)
    assert sorted(out) == image
