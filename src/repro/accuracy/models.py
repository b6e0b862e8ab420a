"""Uncertainty models: exact range-query variance for every release shape.

Serving materializes unit counts (``MaterializedRelease``) and answers a
range query by summing them, so the variance of an answer is determined
entirely by the *linear structure* of the estimator that produced the
leaves:

* ``L̃`` (identity) — independent Laplace noise per leaf, so a range of
  ``m`` leaves has variance ``m · 2/ε²``
  (:func:`repro.analysis.theory.error_identity_laplace_range`).
* ``H̃`` (hierarchical, served as leaves) — the served unit counts are
  the noisy *leaf* nodes of the sensitivity-ℓ tree, independent with
  variance ``2ℓ²/ε²`` each
  (:func:`repro.analysis.theory.hierarchical_leaf_variance`), so a range
  again scales linearly in ``m``.
* ``H̄`` (constrained) — Theorem 3 inference makes the leaves correlated;
  the exact variance of ``uᵀ·h̄`` is ``σ² ‖Mᵀu‖²`` where ``M`` is the
  linear inference operator.  :class:`ConstrainedTreeUncertaintyModel`
  folds ``‖Mᵀu‖²`` into per-level weights times integer child coverages
  under the ≤2 partly covered parents per level — O(ℓ) per query, no
  operator matrix and no O(n) scratch.
* ``wavelet`` — Haar synthesis cancels every detail coefficient strictly
  inside a range; only the ≤2 boundary nodes per level survive, giving a
  closed form in O(log n) per query.

All models are pure and deterministic: variances are exact functions of
``(estimator, ε, branching, domain_size)`` and integer query bounds, so
equivalence suites can assert bit-identity across serving paths.  The
models deliberately ignore the integer rounding (~1/12 per leaf) and the
Section 4.2 non-negativity heuristic applied by the serving defaults;
both are negligible against mechanism noise on dense data and the
CI-coverage audit in ``tests/statistical`` bounds the residual effect.

Confidence intervals use the Gaussian quantile of the exact variance —
asymptotically correct for ranges (sums of many independent or linearly
mixed Laplace draws) — except single-leaf answers from the additive
models, which are exactly Laplace and get the exact Laplace quantile.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

from repro.analysis.theory import (
    error_identity_laplace_range,
    hierarchical_leaf_variance,
)
from repro.db.domain import padded_size
from repro.exceptions import ReproError
from repro.queries.hierarchical import TreeLayout
from repro.queries.wavelet import HaarWaveletQuery

__all__ = [
    "UncertaintyModel",
    "AdditiveUncertaintyModel",
    "ConstrainedTreeUncertaintyModel",
    "WaveletUncertaintyModel",
    "CompositeUncertaintyModel",
    "uncertainty_model_for",
    "composite_uncertainty_model",
    "gaussian_z",
    "laplace_halfwidth",
    "CANONICAL_ESTIMATORS",
]

#: Estimator aliases accepted by :func:`uncertainty_model_for` — mirrors
#: the serving tier's ``ESTIMATOR_NAMES`` without importing upward.
CANONICAL_ESTIMATORS = {
    "identity": "L~",
    "hierarchical": "H~",
    "constrained": "H_bar",
    "wavelet": "wavelet",
    "L~": "L~",
    "H~": "H~",
    "H_bar": "H_bar",
}


def gaussian_z(confidence: float) -> float:
    """Two-sided standard-normal quantile: ``P(|Z| <= z) = confidence``."""
    if not 0.0 < confidence < 1.0:
        raise ReproError(
            f"confidence must be in (0, 1), got {confidence}"
        )
    return NormalDist().inv_cdf((1.0 + confidence) / 2.0)


def laplace_halfwidth(variance: float, confidence: float) -> float:
    """Exact two-sided Laplace quantile for a draw with ``variance``.

    ``P(|X| <= t) = 1 - exp(-t/b)`` with ``b = sqrt(variance/2)``, so the
    exact halfwidth is ``t = -b·ln(1 - confidence)``.
    """
    if not 0.0 < confidence < 1.0:
        raise ReproError(
            f"confidence must be in (0, 1), got {confidence}"
        )
    return -math.sqrt(variance / 2.0) * math.log(1.0 - confidence)


def _check_epsilon(epsilon: float) -> float:
    epsilon = float(epsilon)
    if epsilon <= 0.0:
        raise ReproError(f"epsilon must be positive, got {epsilon}")
    return epsilon


def _check_ranges(los, his, domain_size: int) -> tuple[np.ndarray, np.ndarray]:
    los = np.asarray(los, dtype=np.int64)
    his = np.asarray(his, dtype=np.int64)
    if los.shape != his.shape:
        raise ReproError(
            f"los/his shape mismatch: {los.shape} vs {his.shape}"
        )
    if los.size and (
        los.min() < 0 or his.max() >= domain_size or np.any(his < los)
    ):
        raise ReproError(
            f"range bounds must satisfy 0 <= lo <= hi < {domain_size}"
        )
    return los, his


#: (query × level) cells per H̄ evaluation chunk: bounds the scratch of a
#: huge batch to a few MB.
_CHUNK_CELLS = 1 << 16


class UncertaintyModel:
    """Exact variance (and CI halfwidths) for range queries on one release.

    Subclasses implement :meth:`range_variances`; the default halfwidth is
    the Gaussian quantile of the variance, which subclasses override where
    an exact quantile is available (single-leaf Laplace answers).
    """

    #: Canonical estimator name this model describes (``"L~"`` …).
    kind: str = "?"

    def range_variances(self, los, his) -> np.ndarray:
        """Variance of the range sums ``[lo, hi]`` (inclusive bounds)."""
        raise NotImplementedError

    def interval_halfwidths(
        self, los, his, confidence: float, *, variances=None
    ) -> np.ndarray:
        """CI halfwidths at ``confidence``; pass ``variances`` to reuse."""
        if variances is None:
            variances = self.range_variances(los, his)
        return gaussian_z(confidence) * np.sqrt(variances)


class AdditiveUncertaintyModel(UncertaintyModel):
    """Independent per-leaf noise: ``Var([lo, hi]) = m · leaf_variance``.

    Covers ``L̃`` and the served-leaves form of ``H̃``.  The range length
    ``m`` is computed as an exact integer and scaled by ``leaf_variance``
    in one multiply, so the result is bit-identical no matter how a range
    is split across shards (``m₁·v + m₂·v`` need not equal ``(m₁+m₂)·v``
    in floats; ``m`` summed first always does).
    """

    def __init__(
        self,
        leaf_variance: float,
        domain_size: int,
        *,
        kind: str,
        unit_laplace: bool = True,
    ) -> None:
        if leaf_variance <= 0.0:
            raise ReproError(
                f"leaf variance must be positive, got {leaf_variance}"
            )
        self.leaf_variance = float(leaf_variance)
        self.domain_size = int(domain_size)
        self.kind = kind
        #: Single-leaf answers are exactly Laplace — grants the exact
        #: quantile in :meth:`interval_halfwidths`.
        self.unit_laplace = bool(unit_laplace)

    def range_variances(self, los, his) -> np.ndarray:
        los, his = _check_ranges(los, his, self.domain_size)
        lengths = his - los + 1
        return lengths.astype(np.float64) * self.leaf_variance

    def interval_halfwidths(
        self, los, his, confidence: float, *, variances=None
    ) -> np.ndarray:
        los, his = _check_ranges(los, his, self.domain_size)
        if variances is None:
            variances = self.range_variances(los, his)
        half = gaussian_z(confidence) * np.sqrt(variances)
        if self.unit_laplace:
            unit = his == los
            if np.any(unit):
                half = np.where(
                    unit,
                    laplace_halfwidth(self.leaf_variance, confidence),
                    half,
                )
        return half


class ConstrainedTreeUncertaintyModel(UncertaintyModel):
    """Exact ``H̄`` range variance in closed form, O(ℓ) per range.

    The served leaves are ``h̄ = M·h̃`` where ``h̃`` carries i.i.d. Laplace
    noise of variance ``σ² = 2ℓ²/ε²`` per node, so a range indicator ``u``
    has ``Var(uᵀh̄) = σ²‖Mᵀu‖²``.  Transposing the top-down pass of
    :class:`~repro.inference.hierarchical.HierarchicalInference` turns
    ``u`` into ``z̄_L = f_L − R·f_{L−1}`` per level, where ``f_L`` is each
    node's covered leaf fraction and ``R`` repeats a parent onto its ``k``
    children.  Transposing the bottom-up pass (own weight ``a_L``, child
    weight ``c_L``) gives ``w̄_0 = z̄_0``, ``w̄_L = z̄_L + R(c_{L−1}·w̄_{L−1})``
    and ``‖Mᵀu‖² = Σ_L a_L²‖w̄_L‖²``.  Each sibling group of ``z̄_L`` sums
    to zero while ``R(·)`` is constant on it, so the cross term vanishes::

        ‖w̄_L‖² = ‖z̄_L‖² + k·c_{L−1}²·‖w̄_{L−1}‖²
        Var     = σ² Σ_L W_L·‖z̄_L‖²,   W_L = a_L² + k·c_L²·W_{L+1}

    ``‖z̄_0‖² = (m/n)²`` for a range of ``m`` of the ``n`` padded leaves.
    Below the root only the ≤2 partly covered parents (those holding
    ``lo`` and ``hi``) contribute: with integer child coverages ``cov_j``
    under a parent covering ``cov_p`` leaves, each adds
    ``Σ_j (k·cov_j − cov_p)² / (k·width_L)²``.  The integer sums are exact,
    so a range costs O(ℓ) arithmetic and no O(n) scratch.
    """

    kind = "H_bar"

    def __init__(
        self, domain_size: int, epsilon: float, branching: int = 2
    ) -> None:
        self.domain_size = int(domain_size)
        self.epsilon = _check_epsilon(epsilon)
        self.branching = int(branching)
        self.padded_size = padded_size(self.domain_size, self.branching)
        self.layout = TreeLayout(self.padded_size, branching=self.branching)
        self.node_variance = hierarchical_leaf_variance(
            self.layout.height, self.epsilon
        )
        k = self.branching
        height = self.layout.height
        if 2 * (k * self.padded_size) ** 2 >= 1 << 63:
            raise ReproError(
                f"domain {self.domain_size} is too large for exact int64 "
                f"H_bar variances at branching {k}"
            )
        # W_L from the leaves up; a leaf's own weight is 1.
        weights = [1.0]
        for level in range(height - 2, -1, -1):
            node_height = height - level  # leaves have height 1
            k_l = float(k**node_height)
            k_lm1 = float(k ** (node_height - 1))
            own_weight = (k_l - k_lm1) / (k_l - 1.0)
            child_weight = (k_lm1 - 1.0) / (k_l - 1.0)
            weights.append(own_weight**2 + k * child_weight**2 * weights[-1])
        weights.reverse()
        #: child width of the sibling groups at levels 1..ℓ-1
        self._child_widths = k ** np.arange(height - 2, -1, -1, dtype=np.int64)
        # σ²·W_L over the squared denominator of ‖z̄_L‖²: n² at the root,
        # (k·width_L)² below it.
        denominators = np.concatenate(
            ([self.padded_size], k * self._child_widths)
        ).astype(np.float64)
        self._level_coefs = (
            self.node_variance * np.array(weights) / denominators**2
        )

    def range_variances(self, los, his) -> np.ndarray:
        los, his = _check_ranges(los, his, self.domain_size)
        flat_los = los.reshape(-1)
        flat_his = his.reshape(-1)
        out = np.empty(flat_los.size, dtype=np.float64)
        chunk = max(1, _CHUNK_CELLS // self.layout.height)
        for start in range(0, flat_los.size, chunk):
            stop = min(start + chunk, flat_los.size)
            out[start:stop] = self._closed_form(
                flat_los[start:stop], flat_his[start:stop]
            )
        return out.reshape(los.shape)

    def _closed_form(self, los: np.ndarray, his: np.ndarray) -> np.ndarray:
        k = self.branching
        widths = self._child_widths
        parents = k * widths
        lo = los[:, np.newaxis]
        hi = his[:, np.newaxis]
        lo_first = lo - lo % parents  # first leaf of the parent holding lo
        hi_first = hi - hi % parents
        sums = self._group_sums(lo, np.minimum(hi, lo_first + parents - 1))
        sums += (hi_first != lo_first) * self._group_sums(hi_first, hi)
        lengths = his - los + 1
        terms = np.empty((los.size, self.layout.height), dtype=np.float64)
        terms[:, 0] = lengths * lengths
        terms[:, 1:] = sums
        terms *= self._level_coefs
        # accumulate runs strictly left to right: chunking stays bit-invisible
        return np.add.accumulate(terms, axis=1)[:, -1]

    def _group_sums(self, firsts: np.ndarray, lasts: np.ndarray) -> np.ndarray:
        """``Σ_j (k·cov_j − cov_p)²`` for ``[first, last]`` inside one parent.

        Equals ``k²·Σ_j cov_j² − k·cov_p²``; the covered children are a
        partial head, full middles and a partial tail.
        """
        k = self.branching
        widths = self._child_widths
        head_child = firsts // widths
        tail_child = lasts // widths
        covered = lasts - firsts + 1
        head = (head_child + 1) * widths - firsts
        tail = lasts - tail_child * widths + 1
        middles = tail_child - head_child - 1
        squares = np.where(
            middles < 0,
            covered * covered,
            head * head + tail * tail + middles * widths * widths,
        )
        return k * k * squares - k * covered * covered


class WaveletUncertaintyModel(UncertaintyModel):
    """Exact Privelet range variance from the Haar boundary decomposition.

    Haar synthesis gives ``leaf_j = c₀ ± c_{l,i(j)}`` per level, so a
    range sum weights the base coefficient by the range length ``m`` and
    each detail coefficient by ``|range ∩ left half| - |range ∩ right
    half|`` of its node — zero for nodes strictly inside or outside the
    range, leaving at most the two boundary nodes per level::

        Var = 2·b₀²·m² + Σ_level 2·b_level²·(w_lo² + w_hi²)

    with the Laplace noise scales from
    :meth:`repro.queries.wavelet.HaarWaveletQuery.coefficient_scales`.
    The model runs on the power-of-two *padded* domain, exactly like
    :class:`repro.estimators.wavelet.WaveletEstimator`.
    """

    kind = "wavelet"

    def __init__(self, domain_size: int, epsilon: float) -> None:
        self.domain_size = int(domain_size)
        self.epsilon = _check_epsilon(epsilon)
        self.padded_size = padded_size(self.domain_size, 2)
        query = HaarWaveletQuery(self.padded_size)
        base_scale, detail_scales = query.coefficient_scales(self.epsilon)
        self.base_variance = 2.0 * base_scale**2
        self.detail_variances = tuple(
            2.0 * scale**2 for scale in detail_scales
        )

    def range_variances(self, los, his) -> np.ndarray:
        los, his = _check_ranges(los, his, self.domain_size)
        lengths = (his - los + 1).astype(np.float64)
        variances = self.base_variance * lengths * lengths
        for level, detail_variance in enumerate(self.detail_variances):
            width = self.padded_size >> level
            half = width >> 1
            lo_node = los // width
            hi_node = his // width
            lo_start = lo_node * width
            hi_start = hi_node * width
            same = lo_node == hi_node
            # Boundary node containing `lo` clipped at its right edge (or
            # at `hi` when both bounds share the node).
            lo_clip_hi = np.where(same, his, lo_start + width - 1)
            w_lo = self._node_weight(lo_start, half, los, lo_clip_hi)
            # Boundary node containing `hi` clipped at its left edge.
            w_hi = np.where(
                same, 0, self._node_weight(hi_start, half, hi_start, his)
            )
            variances = variances + detail_variance * (
                w_lo.astype(np.float64) ** 2 + w_hi.astype(np.float64) ** 2
            )
        return variances

    @staticmethod
    def _node_weight(node_start, half, lo, hi) -> np.ndarray:
        """``|[lo,hi] ∩ left half| - |[lo,hi] ∩ right half|`` per node."""
        mid = node_start + half
        left = np.maximum(0, np.minimum(hi, mid - 1) - lo + 1)
        right = np.maximum(0, hi - np.maximum(lo, mid) + 1)
        return left - right


class CompositeUncertaintyModel(UncertaintyModel):
    """Variance over a sharded release: sum the per-shard piece variances.

    Shards draw independent noise, so a range decomposes across shard
    boundaries into per-shard pieces whose counts and variances add.  The fully covered interior shards come
    from a prefix sum of whole-shard variances (one evaluation per
    distinct shard model, at construction); only the ≤2 end pieces are
    evaluated per range, batched per shard model.  Shard geometry is
    passed as the plain ``starts`` offsets array (no dependency on the
    sharding tier).
    """

    def __init__(
        self, starts, domain_size: int, models: list[UncertaintyModel]
    ) -> None:
        self.starts = np.asarray(starts, dtype=np.int64)
        self.domain_size = int(domain_size)
        if self.starts.ndim != 1 or self.starts.size != len(models):
            raise ReproError(
                f"expected one model per shard start, got {self.starts.size} "
                f"starts and {len(models)} models"
            )
        self.models = list(models)
        self.kind = models[0].kind if models else "?"
        self._ends = np.append(self.starts[1:], self.domain_size) - 1
        # Shards sharing a model object and width share one evaluation.
        distinct: dict[tuple[int, int], int] = {}
        self._distinct_models: list[UncertaintyModel] = []
        whole: list[float] = []
        self._model_index = np.empty(self.starts.size, dtype=np.int64)
        for shard, model in enumerate(self.models):
            last = int(self._ends[shard] - self.starts[shard])
            index = distinct.setdefault((id(model), last), len(distinct))
            if index == len(whole):
                self._distinct_models.append(model)
                whole.append(float(model.range_variances([0], [last])[0]))
            self._model_index[shard] = index
        #: _prefix[s] = Σ whole-shard variance of shards 0..s-1
        self._prefix = np.concatenate(
            ([0.0], np.cumsum(np.asarray(whole)[self._model_index]))
        )

    def range_variances(self, los, his) -> np.ndarray:
        los, his = _check_ranges(los, his, self.domain_size)
        flat_los = los.reshape(-1)
        flat_his = his.reshape(-1)
        lo_shards = np.searchsorted(self.starts, flat_los, side="right") - 1
        hi_shards = np.searchsorted(self.starts, flat_his, side="right") - 1
        split = hi_shards > lo_shards
        inner = lo_shards + 1
        variances = (
            self._prefix[np.maximum(hi_shards, inner)] - self._prefix[inner]
        )
        # End pieces: the lo shard's clipped piece for every range, then
        # the hi shard's leading piece for ranges that cross a boundary.
        piece_shards = np.concatenate((lo_shards, hi_shards[split]))
        piece_los = np.concatenate(
            (flat_los, self.starts[hi_shards[split]])
        ) - self.starts[piece_shards]
        piece_his = np.concatenate(
            (np.minimum(flat_his, self._ends[lo_shards]), flat_his[split])
        ) - self.starts[piece_shards]
        pieces = np.empty(piece_shards.size, dtype=np.float64)
        piece_models = self._model_index[piece_shards]
        for index in np.unique(piece_models):
            rows = piece_models == index
            pieces[rows] = self._distinct_models[index].range_variances(
                piece_los[rows], piece_his[rows]
            )
        variances += pieces[: flat_los.size]
        variances[split] += pieces[flat_los.size :]
        return variances.reshape(los.shape)


def uncertainty_model_for(
    estimator: str,
    *,
    domain_size: int,
    epsilon: float,
    branching: int = 2,
) -> UncertaintyModel:
    """The exact uncertainty model for one release's parameters."""
    canonical = CANONICAL_ESTIMATORS.get(estimator)
    if canonical is None:
        raise ReproError(
            f"unknown estimator {estimator!r}; expected one of "
            f"{sorted(CANONICAL_ESTIMATORS)}"
        )
    epsilon = _check_epsilon(epsilon)
    if canonical == "L~":
        return AdditiveUncertaintyModel(
            error_identity_laplace_range(1, epsilon),
            domain_size,
            kind="L~",
        )
    if canonical == "H~":
        padded = padded_size(domain_size, branching)
        height = TreeLayout(padded, branching=branching).height
        return AdditiveUncertaintyModel(
            hierarchical_leaf_variance(height, epsilon),
            domain_size,
            kind="H~",
        )
    if canonical == "H_bar":
        return ConstrainedTreeUncertaintyModel(
            domain_size, epsilon, branching=branching
        )
    return WaveletUncertaintyModel(domain_size, epsilon)


def composite_uncertainty_model(
    starts,
    domain_size: int,
    estimator: str,
    epsilons,
    *,
    branching: int = 2,
) -> UncertaintyModel:
    """Uncertainty model for a sharded release (one ε per shard).

    Builds one per-shard model over each shard's local domain and
    composes them.  When every shard model is additive with the *same*
    per-leaf variance the composition collapses to one global additive
    model, which makes the reported variance bit-identical across shard
    counts (the range length is summed as an integer before the one
    float multiply).
    """
    starts = np.asarray(starts, dtype=np.int64)
    epsilons = [float(epsilon) for epsilon in epsilons]
    if starts.size != len(epsilons):
        raise ReproError(
            f"expected one ε per shard, got {starts.size} starts and "
            f"{len(epsilons)} epsilons"
        )
    widths = np.diff(np.append(starts, domain_size)).tolist()
    built: dict[tuple[int, float], UncertaintyModel] = {}
    models = []
    for width, epsilon in zip(widths, epsilons):
        model = built.get((width, epsilon))
        if model is None:
            model = built[(width, epsilon)] = uncertainty_model_for(
                estimator,
                domain_size=width,
                epsilon=epsilon,
                branching=branching,
            )
        models.append(model)
    additive = [
        model for model in models if isinstance(model, AdditiveUncertaintyModel)
    ]
    if len(additive) == len(models) and models:
        leaf_variances = {model.leaf_variance for model in additive}
        if len(leaf_variances) == 1:
            return AdditiveUncertaintyModel(
                additive[0].leaf_variance,
                domain_size,
                kind=additive[0].kind,
                unit_laplace=additive[0].unit_laplace,
            )
    return CompositeUncertaintyModel(starts, domain_size, models)
