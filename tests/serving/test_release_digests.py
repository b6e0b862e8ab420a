"""Golden digests of release values: the bits a release key resolves to.

A stored artifact is served at zero ε only while rebuilding its key
would give the same values, so the build kernels may get faster but may
never change a single bit of :func:`compute_release_leaves` output.  The
sha256 of each case's leaf bytes below was recorded from the kernels that
preceded the in-place, strided-child-sum H̄ inference; any drift, even in
the last bit of one leaf, fails here.

The cases cover both tree estimators at every branching factor the
benchmarks use (k ∈ {2, 3, 4, 8, 16}: below and at NumPy's switch from a
sequential to a pairwise reduction at 8), on an exact power-of-k domain
and on a 1000-bucket domain that needs padding, plus one 2^12 shard
built under a derived shard seed.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.serving.engine import compute_release_leaves
from repro.serving.release import ReleaseKey
from repro.sharding.engine import derive_shard_seed

EPSILON = 0.5
SEED = 20100910
#: shard 3 of a seed-7 sharded request, as the sharded engine derives it
SHARD_SEED = derive_shard_seed(7, 3)

#: (estimator, branching, domain size, seed) -> sha256 of the leaf bytes.
GOLDEN = {
    ("H_bar", 2, 4096, SEED): (
        "c2f4d676cb873f932747946f60f1c8f848dfa399642c182ddd347d8e968e4f48"
    ),
    ("H_bar", 3, 2187, SEED): (
        "09cb6e6c0f78d2946e901f22880d368a7c29df00c6bd0f11e9d31bd78a7c1e80"
    ),
    ("H_bar", 4, 4096, SEED): (
        "b818e025a5918115a8be9cd2f1ded1b944549a61aaa12fbdbffe34138b497b8a"
    ),
    ("H_bar", 8, 4096, SEED): (
        "464caa39939f82588daa54dd4823cd06fa70a5705e48b691135370d3fe6f842e"
    ),
    ("H_bar", 16, 4096, SEED): (
        "e9838d08464ad9bfde60f73ea393a43ea87730abdd38dd4986bea2c4d797e544"
    ),
    ("H_bar", 2, 1000, SEED): (
        "bfdb98cdbcde98c0070fbea70a4fd45ff3ed0733f663332c21d8926a9fdcaa7d"
    ),
    ("H_bar", 3, 1000, SEED): (
        "f6e7d23e0b13181344aabdaf56db60329d08824e19f02bd427568ef2684b3874"
    ),
    ("H_bar", 4, 1000, SEED): (
        "c617bfc72e821442e01c737534ace3cae18e2bf8e8467f827ecd4d936917ddff"
    ),
    ("H_bar", 8, 1000, SEED): (
        "a3205e9d4299f9bb46c90bc4f344a678ed730f80d72e4aca35183183955e589a"
    ),
    ("H_bar", 16, 1000, SEED): (
        "b4b35f2cf41c8bf06dcf42e067f039c2bd3a0e5df338192245ddaea80d6455bd"
    ),
    ("H_bar", 2, 4096, SHARD_SEED): (
        "98a7edff595ce76eb87bdef3a38d197affa19148e7a375b10be9392f8a9f6118"
    ),
    ("H~", 2, 4096, SEED): (
        "7e5b09528b604a52bc8e54d7109695c83d1b67e271adeaeb8aa030289f2d4ab6"
    ),
    ("H~", 3, 2187, SEED): (
        "a4da4ae0f3f6c894cda071b863cb67d0e8505609abb4d58efc993d533866dc2e"
    ),
    ("H~", 4, 4096, SEED): (
        "c3ced9ca9b8123f0e1b73514ab9340af2929e158a31275ae918a8820d8eb8891"
    ),
    ("H~", 8, 4096, SEED): (
        "9ea85e48bf1d6dd1dbf47c3e47e77fbdffb48151756fdc7347aa200893664d52"
    ),
    ("H~", 16, 4096, SEED): (
        "004bd02a464cdd92db6aab42e866ad4773e8f254e0ae1e50295b80aecc911ed8"
    ),
    ("H~", 2, 1000, SEED): (
        "a01ef48db91376d55471a727b10a2bd3739946c37dfc67c37001ae68886b0cd9"
    ),
    ("H~", 3, 1000, SEED): (
        "095458328533cb0d94a1a9f7cc4ae9b1abb8631feed3e003aa14f9526fdbd4df"
    ),
    ("H~", 4, 1000, SEED): (
        "51de445f4d3496c223265c00ca831b8799f4376110eb9540edaf2253f13b5961"
    ),
    ("H~", 8, 1000, SEED): (
        "ddd42bd78ac2c6070290290a91e3fb105790af7921a6eeba4483df7b997e4295"
    ),
    ("H~", 16, 1000, SEED): (
        "841d988ecbab4509ee1c274ebd95719bf1cf9902173631f671777c7e8f49ee46"
    ),
    ("H~", 2, 4096, SHARD_SEED): (
        "b04712718cc0d30d79e8f997b3ca72d57df79a58183456260c18e235be5cace6"
    ),
}


def case_counts(size: int) -> np.ndarray:
    """Sparse, heavy-tailed counts: most buckets empty, so the
    non-negativity heuristic zeroes whole subtrees."""
    rng = np.random.default_rng(size)
    occupied = rng.random(size) < 0.25
    heavy = rng.poisson(rng.pareto(1.2, size) * 4.0)
    return np.where(occupied, heavy, 0).astype(np.float64)


def leaf_digest(estimator: str, branching: int, size: int, seed: int) -> str:
    key = ReleaseKey(
        dataset_fingerprint="golden",
        estimator=estimator,
        epsilon=EPSILON,
        branching=branching,
        seed=seed,
    )
    leaves = compute_release_leaves(case_counts(size), key)
    assert leaves.dtype == np.float64 and leaves.shape == (size,)
    return hashlib.sha256(np.ascontiguousarray(leaves).tobytes()).hexdigest()


@pytest.mark.parametrize(
    "case",
    list(GOLDEN),
    ids=lambda c: f"{c[0]}-k{c[1]}-n{c[2]}{'-shard' if c[3] == SHARD_SEED else ''}",
)
def test_release_leaves_match_golden_digest(case):
    assert leaf_digest(*case) == GOLDEN[case]
