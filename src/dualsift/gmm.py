"""Two-component 1D Gaussian mixtures fit by EM.

One mixture per noisy cluster per space. The "clean" component is the
smaller-mean one for loss scores and the larger-mean one for similarity
scores; the orientation is explicit configuration, never inferred.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateFit

_LOG_2PI = float(np.log(2.0 * np.pi))


class Orientation(Enum):
    SMALLER_MEAN_CLEAN = "smaller_mean_clean"
    LARGER_MEAN_CLEAN = "larger_mean_clean"


@dataclass(frozen=True)
class GmmConfig:
    orientation: Orientation
    max_iter: int = 100
    tol: float = 1e-6
    variance_floor: float = 1e-6
    min_fit_size: int = 8

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.variance_floor <= 0:
            raise ValueError("variance_floor must be positive")


@dataclass(frozen=True)
class Gmm1d:
    weights: np.ndarray       # (2,), sums to 1
    means: np.ndarray         # (2,)
    variances: np.ndarray     # (2,), floored
    clean_component: int
    converged: bool
    iterations: int
    log_likelihoods: np.ndarray  # one entry per EM iteration


def _log_pdf(x: np.ndarray, means: np.ndarray, variances: np.ndarray) -> np.ndarray:
    # (n, 2) log density of each point under each component
    diff = x[:, None] - means[None, :]
    return -0.5 * (diff * diff / variances[None, :] + np.log(variances)[None, :] + _LOG_2PI)


def fit_gmm1d(values: np.ndarray, config: GmmConfig) -> Gmm1d:
    """EM fit with deterministic percentile initialization.

    Component means start at the 10th and 90th percentiles, weights equal,
    both variances at the sample variance. Iterates until the relative
    log-likelihood change drops below ``tol`` or ``max_iter`` is reached.

    Raises DegenerateFit when fewer than ``min_fit_size`` values or all
    values identical; callers route the whole cluster to the uncertain set.
    """
    x = np.asarray(values, dtype=np.float64).ravel()
    if not np.all(np.isfinite(x)):
        raise ValueError("values must be finite")
    if x.size < config.min_fit_size:
        raise DegenerateFit(f"{x.size} values < min_fit_size {config.min_fit_size}")
    if np.ptp(x) == 0.0:
        raise DegenerateFit("all values identical")

    means = np.quantile(x, [0.1, 0.9])
    if means[0] == means[1]:
        means = np.array([x.min(), x.max()])
    variances = np.full(2, max(float(np.var(x)), config.variance_floor))
    weights = np.full(2, 0.5)

    lls: list[float] = []
    converged = False
    for _ in range(config.max_iter):
        # E step, in the log domain for stability
        log_joint = np.log(weights)[None, :] + _log_pdf(x, means, variances)
        log_norm = np.logaddexp(log_joint[:, 0], log_joint[:, 1])
        ll = float(log_norm.sum())
        lls.append(ll)
        if len(lls) > 1 and abs(ll - lls[-2]) <= config.tol * max(1.0, abs(lls[-2])):
            converged = True
            break
        resp = np.exp(log_joint - log_norm[:, None])
        # M step; tiny responsibility mass is floored so a dying component
        # cannot divide by zero
        nk = np.maximum(resp.sum(axis=0), 1e-12)
        weights = nk / nk.sum()
        means = (resp * x[:, None]).sum(axis=0) / nk
        diff = x[:, None] - means[None, :]
        variances = np.maximum((resp * diff * diff).sum(axis=0) / nk, config.variance_floor)

    clean = int(np.argmin(means)
                if config.orientation is Orientation.SMALLER_MEAN_CLEAN
                else np.argmax(means))
    return Gmm1d(
        weights=weights, means=means, variances=variances,
        clean_component=clean, converged=converged, iterations=len(lls),
        log_likelihoods=np.asarray(lls),
    )


def posteriors(gmm: Gmm1d, values: np.ndarray) -> np.ndarray:
    """Posterior probability of the clean component at each value."""
    x = np.asarray(values, dtype=np.float64).ravel()
    if not np.all(np.isfinite(x)):
        raise ValueError("values must be finite")
    log_joint = np.log(gmm.weights)[None, :] + _log_pdf(x, gmm.means, gmm.variances)
    log_norm = np.logaddexp(log_joint[:, 0], log_joint[:, 1])
    return np.exp(log_joint[:, gmm.clean_component] - log_norm)
