"""The Laplace mechanism (Proposition 1 of the paper).

Given a query sequence ``Q`` of length ``d`` with L1 sensitivity ``Δ_Q``,
the randomized algorithm::

    Q~(I) = Q(I) + <Lap(Δ_Q / ε)>_d

is ε-differentially private.  This module provides the noise primitive,
the mechanism object that pairs a sensitivity with a privacy parameter,
and the analytic per-query error (variance) formulas used throughout the
utility analysis (``error(L~) = 2n/ε²`` etc.).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import SensitivityError
from repro.privacy.definitions import PrivacyParameters
from repro.utils.random import as_generator, trial_streams

__all__ = [
    "laplace_noise",
    "laplace_noise_matrix",
    "laplace_error_per_query",
    "LaplaceMechanism",
]


def laplace_noise(
    scale: float, size: int, rng: np.random.Generator | int | None = None
) -> np.ndarray:
    """A vector of ``size`` i.i.d. samples from a zero-mean Laplace with ``scale``.

    ``scale == 0`` returns exact zeros, which lets callers express the
    "no-noise" baseline without special-casing.
    """
    if scale < 0:
        raise SensitivityError(f"noise scale must be non-negative, got {scale}")
    if size < 0:
        raise SensitivityError(f"size must be non-negative, got {size}")
    if scale == 0:
        return np.zeros(size, dtype=np.float64)
    generator = as_generator(rng)
    return generator.laplace(loc=0.0, scale=scale, size=size)


def laplace_noise_matrix(
    scale: float, trials: int, size: int, rng=None
) -> np.ndarray:
    """A ``(trials, size)`` matrix of i.i.d. Laplace samples.

    This is the trial-batched counterpart of :func:`laplace_noise`.  With a
    single stream (``None`` / int seed / ``Generator``) the whole matrix is
    drawn in a couple of vectorized RNG calls; with a per-trial seed
    schedule (see :func:`repro.utils.random.trial_streams`) row ``t`` is
    drawn exactly as the scalar call ``laplace_noise(scale, size,
    schedule[t])`` would draw it, so batched and scalar pipelines produce
    identical bits.
    """
    if scale < 0:
        raise SensitivityError(f"noise scale must be non-negative, got {scale}")
    if size < 0:
        raise SensitivityError(f"size must be non-negative, got {size}")
    if trials < 0:
        raise SensitivityError(f"trials must be non-negative, got {trials}")
    streams = trial_streams(rng, trials)
    if scale == 0:
        return np.zeros((trials, size), dtype=np.float64)
    if streams is None:
        # Lap(b) is the difference of two i.i.d. Exp(b) variables; numpy's
        # ziggurat exponential sampler is markedly faster than the
        # inverse-CDF ``laplace`` transform.  Only the seed-schedule path
        # promises bit-compatibility with the scalar sampler, so the fast
        # path is free to use the cheaper (exactly Laplace-distributed)
        # construction.
        generator = as_generator(rng)
        matrix = generator.standard_exponential(size=(trials, size))
        matrix -= generator.standard_exponential(size=(trials, size))
        matrix *= scale
        return matrix
    matrix = np.empty((trials, size), dtype=np.float64)
    for trial, stream in enumerate(streams):
        matrix[trial] = laplace_noise(scale, size, stream)
    return matrix


def laplace_error_per_query(sensitivity: float, epsilon: float) -> float:
    """Expected squared error of one noisy answer: ``Var(Lap(Δ/ε)) = 2Δ²/ε²``."""
    if sensitivity < 0:
        raise SensitivityError(f"sensitivity must be non-negative, got {sensitivity}")
    if epsilon <= 0:
        raise SensitivityError(f"epsilon must be positive, got {epsilon}")
    scale = sensitivity / epsilon
    return 2.0 * scale * scale


@dataclass(frozen=True)
class LaplaceMechanism:
    """Adds calibrated Laplace noise to the answers of a query sequence.

    Parameters
    ----------
    sensitivity:
        L1 sensitivity ``Δ_Q`` of the query sequence being answered.
    params:
        The ε (and δ, unused here) privacy parameters.
    """

    sensitivity: float
    params: PrivacyParameters

    def __post_init__(self) -> None:
        if self.sensitivity <= 0:
            raise SensitivityError(
                f"sensitivity must be positive, got {self.sensitivity}"
            )

    @property
    def scale(self) -> float:
        """Scale of the Laplace noise: ``Δ_Q / ε``."""
        return self.sensitivity / self.params.epsilon

    @property
    def per_query_variance(self) -> float:
        """Variance (expected squared error) added to each individual answer."""
        return 2.0 * self.scale * self.scale

    def randomize(
        self, true_answers, rng: np.random.Generator | int | None = None
    ) -> np.ndarray:
        """Return ``true_answers + <Lap(Δ_Q/ε)>``; the ε-DP noisy output."""
        answers = np.asarray(true_answers, dtype=np.float64)
        noise = laplace_noise(self.scale, answers.size, rng).reshape(answers.shape)
        # Freshly drawn, so shift the noise in place (IEEE addition is
        # commutative: the bits equal ``answers + noise``).
        noise += answers
        return noise

    def randomize_many(
        self, true_answers, trials: int, rng=None
    ) -> np.ndarray:
        """``(trials, d)`` independent noisy answers for one true vector.

        Row ``t`` is distributed exactly like one :meth:`randomize` call;
        with a per-trial seed schedule the rows are bit-for-bit equal to
        the corresponding scalar calls.
        """
        answers = np.asarray(true_answers, dtype=np.float64).reshape(-1)
        noise = laplace_noise_matrix(self.scale, trials, answers.size, rng)
        # The noise matrix is freshly drawn, so shift it in place rather
        # than allocating a second (trials, d) array.
        noise += answers[np.newaxis, :]
        return noise

    def log_density_ratio_bound(self) -> float:
        """The largest log-likelihood ratio between neighbouring outputs.

        For the Laplace mechanism this equals ε (per the sliding-property
        argument in the paper's Lemma 1/Proposition 1 background); exposed
        for the audit harness.
        """
        return self.params.epsilon
