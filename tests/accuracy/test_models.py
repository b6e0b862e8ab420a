"""Unit tests for the uncertainty models: exactness against first principles.

Every model is checked against an independent implementation — the
explicit inference operator matrix and the adjoint inference passes for
H̄, a from-scratch Haar boundary walk for the wavelet, and the
closed-form theory expressions for the additive models — so the
O(ℓ)/O(log n) closed forms can never drift from the math they encode.
"""

from __future__ import annotations

import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.accuracy.models import (
    AdditiveUncertaintyModel,
    CompositeUncertaintyModel,
    ConstrainedTreeUncertaintyModel,
    WaveletUncertaintyModel,
    composite_uncertainty_model,
    gaussian_z,
    laplace_halfwidth,
    uncertainty_model_for,
)
from repro.analysis.theory import (
    error_identity_laplace_range,
    hierarchical_leaf_variance,
)
from repro.exceptions import DomainError, ReproError
from repro.inference.hierarchical import HierarchicalInference
from repro.queries.hierarchical import TreeLayout
from repro.queries.wavelet import HaarWaveletQuery


def random_ranges(rng, domain_size, count):
    a = rng.integers(0, domain_size, size=count)
    b = rng.integers(0, domain_size, size=count)
    return np.minimum(a, b), np.maximum(a, b)


class TestQuantiles:
    def test_gaussian_z_matches_known_values(self):
        assert gaussian_z(0.95) == pytest.approx(1.959964, abs=1e-5)
        assert gaussian_z(0.99) == pytest.approx(2.575829, abs=1e-5)

    def test_laplace_halfwidth_is_exact_quantile(self):
        # Var = 2b² with b = 1: P(|X| <= t) = 1 - e^{-t}.
        t = laplace_halfwidth(2.0, 0.95)
        assert 1.0 - np.exp(-t) == pytest.approx(0.95, abs=1e-12)

    @pytest.mark.parametrize("confidence", [0.0, 1.0, -0.5, 2.0])
    def test_confidence_bounds_are_enforced(self, confidence):
        with pytest.raises(ReproError):
            gaussian_z(confidence)
        with pytest.raises(ReproError):
            laplace_halfwidth(1.0, confidence)


class TestAdditiveModel:
    def test_identity_matches_theory(self):
        model = uncertainty_model_for("L~", domain_size=64, epsilon=0.5)
        los = np.array([0, 3, 10])
        his = np.array([31, 3, 19])
        got = model.range_variances(los, his)
        want = [error_identity_laplace_range(m, 0.5) for m in (32, 1, 10)]
        assert got == pytest.approx(want, rel=1e-12)

    def test_hierarchical_leaves_use_padded_height(self):
        # domain 10 pads to 16 -> height 5 for the sensitivity/σ² figure.
        model = uncertainty_model_for("H~", domain_size=10, epsilon=1.0)
        height = TreeLayout(16, branching=2).height
        leaf = hierarchical_leaf_variance(height, 1.0)
        assert model.range_variances([0], [9])[0] == pytest.approx(10 * leaf)

    def test_single_leaf_uses_exact_laplace_quantile(self):
        model = uncertainty_model_for("L~", domain_size=8, epsilon=1.0)
        half = model.interval_halfwidths([2, 0], [2, 7], 0.95)
        assert half[0] == pytest.approx(laplace_halfwidth(2.0, 0.95))
        assert half[1] == pytest.approx(gaussian_z(0.95) * np.sqrt(16.0))

    def test_range_validation(self):
        model = uncertainty_model_for("L~", domain_size=8, epsilon=1.0)
        with pytest.raises(ReproError):
            model.range_variances([0], [8])
        with pytest.raises(ReproError):
            model.range_variances([-1], [3])
        with pytest.raises(ReproError):
            model.range_variances([5], [4])

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(ReproError):
            AdditiveUncertaintyModel(0.0, 8, kind="L~")
        with pytest.raises(ReproError):
            uncertainty_model_for("L~", domain_size=8, epsilon=0.0)
        with pytest.raises(ReproError):
            uncertainty_model_for("nope", domain_size=8, epsilon=1.0)


def padded_layout(domain_size, branching):
    padded = 1
    while padded < domain_size:
        padded *= branching
    return TreeLayout(padded, branching=branching)


@lru_cache(maxsize=8)
def leaf_operator(padded_size, branching):
    """Rows of the inference operator ``M`` restricted to the leaves."""
    layout = TreeLayout(padded_size, branching=branching)
    inference = HierarchicalInference(layout)
    # infer() is linear: applying it to the identity yields the operator
    # acting on each basis vector, i.e. rows of M indexed by input node.
    operator = inference.infer(np.eye(layout.num_nodes))
    return operator[:, layout.leaf_offset :]  # (input node, leaf)


def explicit_hbar_variances(domain_size, epsilon, branching, los, his):
    """σ²‖Mᵀu‖² via the explicit inference operator, column by column."""
    layout = padded_layout(domain_size, branching)
    leaves = leaf_operator(layout.num_leaves, branching)
    sigma2 = hierarchical_leaf_variance(layout.height, epsilon)
    out = []
    for lo, hi in zip(los, his):
        weights = leaves[:, lo : hi + 1].sum(axis=1)  # Mᵀu
        out.append(sigma2 * float(weights @ weights))
    return np.array(out)


def adjoint_hbar_variances(domain_size, epsilon, branching, los, his):
    """σ²‖Mᵀu‖² by running the inference passes in reverse over all nodes.

    An independent O(num_nodes)-per-query oracle: no operator matrix,
    so it reaches 2^20 leaves.
    """
    layout = padded_layout(domain_size, branching)
    k = layout.branching
    height = layout.height
    leaves = layout.num_leaves
    los = np.asarray(los, dtype=np.int64)
    his = np.asarray(his, dtype=np.int64)
    queries = los.size
    # Range indicators over the padded leaf domain via a diff/cumsum.
    diff = np.zeros((queries, leaves + 1), dtype=np.float64)
    rows = np.arange(queries)
    diff[rows, los] = 1.0
    diff[rows, his + 1] -= 1.0
    u = np.cumsum(diff[:, :leaves], axis=1)

    def childsum(level_values):
        return level_values.reshape(queries, -1, k).sum(axis=2)

    # Adjoint of the top-down pass: h[λ] = z[λ] + R((h[λ-1] - S z[λ])/k)
    # with R = repeat-k and S = child-sum (R and S are adjoint to each
    # other, and R∘S is self-adjoint).
    zbar = [np.empty(0)] * height
    ubar = u
    for level in range(height - 1, 0, -1):
        folded = childsum(ubar)
        zbar[level] = ubar - np.repeat(folded / k, k, axis=1)
        ubar = folded / k
    zbar[0] = ubar  # h[0] = z[0]: the root's pull arrives unchanged

    # Adjoint of the bottom-up pass: z[λ] = a_λ·h̃[λ] + c_λ·S(z[λ+1]).
    # Accumulate top-down so each level inherits its parent's pull.
    total = np.zeros(queries, dtype=np.float64)
    wbar = zbar[0]
    for level in range(height):
        node_height = height - level  # leaves have height 1
        k_l = float(k**node_height)
        k_lm1 = float(k ** (node_height - 1))
        own_weight = (k_l - k_lm1) / (k_l - 1.0)
        gradient = own_weight * wbar
        total += np.einsum("ij,ij->i", gradient, gradient)
        if level + 1 < height:
            child_weight = (k_lm1 - 1.0) / (k_l - 1.0)
            wbar = zbar[level + 1] + np.repeat(child_weight * wbar, k, axis=1)
    return hierarchical_leaf_variance(height, epsilon) * total


class TestConstrainedTreeModel:
    @pytest.mark.parametrize(
        "domain_size,branching", [(16, 2), (10, 2), (27, 3), (8, 4), (1, 2)]
    )
    def test_adjoint_matches_explicit_operator(self, domain_size, branching):
        rng = np.random.default_rng(7 * domain_size + branching)
        model = ConstrainedTreeUncertaintyModel(
            domain_size, epsilon=0.7, branching=branching
        )
        los, his = random_ranges(rng, domain_size, 25)
        want = explicit_hbar_variances(domain_size, 0.7, branching, los, his)
        assert model.range_variances(los, his) == pytest.approx(
            want, rel=1e-10
        )

    def test_whole_domain_range_is_root_variance(self):
        # The full-range sum is the (consistent) root estimate z[0],
        # whose variance Theorem 4 machinery gives directly.
        model = ConstrainedTreeUncertaintyModel(16, epsilon=1.0, branching=2)
        got = model.range_variances([0], [15])[0]
        want = explicit_hbar_variances(16, 1.0, 2, [0], [15])[0]
        assert got == pytest.approx(want, rel=1e-12)

    def test_chunking_is_invisible(self):
        model = ConstrainedTreeUncertaintyModel(16, epsilon=1.0)
        rng = np.random.default_rng(3)
        los, his = random_ranges(rng, 16, 40)
        whole = model.range_variances(los, his)
        model_chunked = ConstrainedTreeUncertaintyModel(16, epsilon=1.0)
        # Force tiny chunks through the same public surface.
        chunks = [
            model_chunked.range_variances(los[i : i + 3], his[i : i + 3])
            for i in range(0, 40, 3)
        ]
        assert np.array_equal(np.concatenate(chunks), whole)

    @settings(max_examples=60, deadline=None)
    @given(
        domain_size=st.integers(1, 300),
        branching=st.sampled_from([2, 3, 4]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_closed_form_matches_explicit_operator_property(
        self, domain_size, branching, seed
    ):
        rng = np.random.default_rng(seed)
        los, his = random_ranges(rng, domain_size, 8)
        model = ConstrainedTreeUncertaintyModel(
            domain_size, epsilon=0.6, branching=branching
        )
        want = explicit_hbar_variances(domain_size, 0.6, branching, los, his)
        assert model.range_variances(los, his) == pytest.approx(
            want, rel=1e-12
        )

    @pytest.mark.parametrize(
        "domain_size,branching", [(2**12, 2), (3**8, 3), (4**7, 4)]
    )
    def test_closed_form_matches_adjoint_oracle(self, domain_size, branching):
        rng = np.random.default_rng(domain_size)
        los, his = random_ranges(rng, domain_size, 20)
        los = np.append(los, [0, 0, domain_size - 1])
        his = np.append(his, [domain_size - 1, 0, domain_size - 1])
        model = ConstrainedTreeUncertaintyModel(
            domain_size, epsilon=0.8, branching=branching
        )
        want = adjoint_hbar_variances(domain_size, 0.8, branching, los, his)
        assert model.range_variances(los, his) == pytest.approx(
            want, rel=1e-12
        )

    def test_closed_form_matches_adjoint_oracle_at_2_20(self):
        # The adjoint sums 2^20 rounded squares per query and drifts from
        # a long-double evaluation by ~5.6e-12 relative here on its own;
        # the closed form's integer sums stay within ~1e-16.  rel=1e-10
        # leaves room for the oracle's rounding, not the model's.
        domain_size = 1 << 20
        rng = np.random.default_rng(20)
        los, his = random_ranges(rng, domain_size, 8)
        model = ConstrainedTreeUncertaintyModel(domain_size, epsilon=0.5)
        # One range per oracle call keeps its dense scratch near 50 MB.
        want = [
            adjoint_hbar_variances(domain_size, 0.5, 2, [lo], [hi])[0]
            for lo, hi in zip(los, his)
        ]
        assert model.range_variances(los, his) == pytest.approx(
            want, rel=1e-10
        )

    def test_one_range_allocates_no_domain_sized_scratch(self):
        model = ConstrainedTreeUncertaintyModel(1 << 20, epsilon=0.5)
        los, his = np.array([12_345]), np.array([987_654])
        tracemalloc.start()
        try:
            model.range_variances(los, his)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_large_batch_scratch_is_chunked(self):
        model = ConstrainedTreeUncertaintyModel(1 << 20, epsilon=0.5)
        los, his = random_ranges(np.random.default_rng(4), 1 << 20, 100_000)
        tracemalloc.start()
        try:
            model.range_variances(los, his)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # 0.8 MB of output plus a few MB of per-chunk scratch.
        assert peak < 16 << 20

    def test_rejects_domains_beyond_exact_int64_sums(self):
        with pytest.raises(ReproError):
            ConstrainedTreeUncertaintyModel(1 << 31, epsilon=1.0)


def brute_force_wavelet_variances(domain_size, epsilon, los, his):
    """Independent Haar boundary walk: every (level, node) weight squared."""
    padded = 1
    while padded < domain_size:
        padded *= 2
    base_scale, detail_scales = HaarWaveletQuery(padded).coefficient_scales(
        epsilon
    )
    out = []
    for lo, hi in zip(los, his):
        m = hi - lo + 1
        variance = 2.0 * base_scale**2 * m * m
        for level, scale in enumerate(detail_scales):
            width = padded >> level
            half = width >> 1
            for node_start in range(0, padded, width):
                mid = node_start + half
                left = max(0, min(hi, mid - 1) - max(lo, node_start) + 1)
                right = max(
                    0, min(hi, node_start + width - 1) - max(lo, mid) + 1
                )
                variance += 2.0 * scale**2 * (left - right) ** 2
        out.append(variance)
    return np.array(out)


class TestWaveletModel:
    @pytest.mark.parametrize("domain_size", [16, 13, 32, 1])
    def test_matches_brute_force(self, domain_size):
        rng = np.random.default_rng(100 + domain_size)
        model = WaveletUncertaintyModel(domain_size, epsilon=0.9)
        los, his = random_ranges(rng, domain_size, 30)
        want = brute_force_wavelet_variances(domain_size, 0.9, los, his)
        assert model.range_variances(los, his) == pytest.approx(
            want, rel=1e-12
        )

    def test_unit_query_matches_expected_leaf_variance(self):
        model = WaveletUncertaintyModel(16, epsilon=1.0)
        want = HaarWaveletQuery(16).expected_leaf_variance(1.0)
        got = model.range_variances(np.arange(16), np.arange(16))
        assert got == pytest.approx(np.full(16, want), rel=1e-12)


class TestDomainValidation:
    """Both padded models reject a domain or fan-out no tree can cover."""

    @pytest.mark.parametrize("domain_size", [0, -3])
    def test_non_positive_domain_rejected(self, domain_size):
        with pytest.raises(DomainError):
            ConstrainedTreeUncertaintyModel(domain_size, 1.0)
        with pytest.raises(DomainError):
            WaveletUncertaintyModel(domain_size, 1.0)

    def test_unary_branching_rejected(self):
        # Padding by powers of 1 never reaches the domain size.
        with pytest.raises(DomainError):
            ConstrainedTreeUncertaintyModel(5, 1.0, branching=1)


class TestCompositeModel:
    def test_homogeneous_identity_collapses_bit_identically(self):
        mono = uncertainty_model_for("L~", domain_size=64, epsilon=0.5)
        rng = np.random.default_rng(11)
        los, his = random_ranges(rng, 64, 50)
        want = mono.range_variances(los, his)
        for num_shards in (2, 4, 7):
            starts = np.linspace(0, 64, num_shards, endpoint=False).astype(
                np.int64
            )
            model = composite_uncertainty_model(
                starts, 64, "L~", [0.5] * num_shards
            )
            # The collapse makes split ranges bit-identical, not just close.
            assert isinstance(model, AdditiveUncertaintyModel)
            assert np.array_equal(model.range_variances(los, his), want)

    def test_heterogeneous_epsilons_sum_per_piece(self):
        starts = np.array([0, 8])
        model = composite_uncertainty_model(starts, 16, "L~", [0.5, 1.0])
        assert isinstance(model, CompositeUncertaintyModel)
        got = model.range_variances([4], [11])[0]
        want = error_identity_laplace_range(4, 0.5) + error_identity_laplace_range(
            4, 1.0
        )
        assert got == pytest.approx(want, rel=1e-12)

    def test_constrained_pieces_match_manual_sum(self):
        starts = np.array([0, 8])
        model = composite_uncertainty_model(starts, 16, "H_bar", [0.5, 0.5])
        left = ConstrainedTreeUncertaintyModel(8, 0.5)
        right = ConstrainedTreeUncertaintyModel(8, 0.5)
        got = model.range_variances([2, 0], [13, 7])
        want = [
            left.range_variances([2], [7])[0]
            + right.range_variances([0], [5])[0],
            left.range_variances([0], [7])[0],
        ]
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("estimator", ["H_bar", "wavelet", "L~"])
    def test_matches_piecewise_sum_over_every_shard(self, estimator):
        starts = np.array([0, 5, 16, 17, 40, 64])
        epsilons = [0.5, 1.0, 0.5, 0.25, 0.5, 2.0]
        model = composite_uncertainty_model(starts, 100, estimator, epsilons)
        ends = np.append(starts[1:], 100) - 1
        rng = np.random.default_rng(8)
        los, his = random_ranges(rng, 100, 60)
        want = np.zeros(los.size)
        for i, (lo, hi) in enumerate(zip(los, his)):
            for start, end, epsilon in zip(starts, ends, epsilons):
                if lo <= end and start <= hi:
                    shard = uncertainty_model_for(
                        estimator, domain_size=end - start + 1, epsilon=epsilon
                    )
                    want[i] += shard.range_variances(
                        [max(lo, start) - start], [min(hi, end) - start]
                    )[0]
        got = model.range_variances(los.reshape(6, 10), his.reshape(6, 10))
        assert got.shape == (6, 10)
        assert got.ravel() == pytest.approx(want, rel=1e-12)

    def test_evaluates_whole_shards_once_and_only_end_pieces(self):
        calls = []

        class CountingModel(AdditiveUncertaintyModel):
            def range_variances(self, los, his):
                calls.append(np.size(los))
                return super().range_variances(los, his)

        shard = CountingModel(2.0, 4, kind="L~")
        model = CompositeUncertaintyModel(np.arange(256) * 4, 1024, [shard] * 256)
        assert calls == [1]  # one whole-shard variance for 256 shards
        calls.clear()
        got = model.range_variances([1, 0, 10], [1022, 3, 11])
        assert calls == [4]  # two end pieces, one piece, one piece
        assert got == pytest.approx([1022 * 2.0, 8.0, 4.0], rel=1e-12)

    def test_homogeneous_shards_share_one_model(self):
        model = composite_uncertainty_model(
            np.arange(256) * 4096, 1 << 20, "H_bar", [0.5] * 256
        )
        assert len({id(shard) for shard in model.models}) == 1

    def test_shape_validation(self):
        with pytest.raises(ReproError):
            composite_uncertainty_model([0, 8], 16, "L~", [0.5])
        with pytest.raises(ReproError):
            CompositeUncertaintyModel([0, 8], 16, [])
