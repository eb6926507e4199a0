"""Two-component 1D Gaussian mixtures fit by EM.

One mixture per noisy cluster per space. The "clean" component is the
smaller-mean one for loss scores and the larger-mean one for similarity
scores; the orientation is explicit configuration, never inferred.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateFit

_LOG_2PI = float(np.log(2.0 * np.pi))
_LOWEST = float(np.finfo(np.float64).min)


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
        for name in ("tol", "variance_floor"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
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


def _log_joint(x: np.ndarray, weights: np.ndarray, means: np.ndarray,
               variances: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Log weight plus log density of each point under each component.

    Component-major: ``out`` has shape (2, n) and is written in place. The
    per-element order is ``log w + -0.5 * ((d*d/var + log var) + log 2pi)``.
    """
    np.subtract(x, means[:, None], out=out)
    np.multiply(out, out, out=out)
    np.divide(out, variances[:, None], out=out)
    np.add(out, np.log(variances)[:, None], out=out)
    np.add(out, _LOG_2PI, out=out)
    np.multiply(out, -0.5, out=out)
    return np.add(out, np.log(weights)[:, None], out=out)


def _logaddexp(a: np.ndarray, b: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """``max(a, b) + log1p(exp(-|a - b|))`` into ``out``, using the (2, n)
    ``scratch``. Equal arguments give ``a + log 2``; (-inf, -inf) gives -inf."""
    lo, hi = scratch
    np.maximum(a, b, out=out)
    # -|a - b| = min - max, with the max lifted off -inf: -inf - _LOWEST is -inf, not nan
    np.subtract(np.minimum(a, b, out=lo), np.maximum(out, _LOWEST, out=hi), out=lo)
    return np.add(out, np.log1p(np.exp(lo, out=lo), out=lo), out=out)


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

    # (2, n) work buffers reused by every iteration; resp is E-step scratch till written
    log_joint = np.empty((2, x.size))
    resp = np.empty_like(log_joint)
    log_norm = np.empty(x.size)
    lls: list[float] = []
    converged = False
    for _ in range(config.max_iter):
        # E step, in the log domain for stability
        _log_joint(x, weights, means, variances, out=log_joint)
        ll = float(_logaddexp(log_joint[0], log_joint[1], log_norm, resp).sum())
        lls.append(ll)
        if len(lls) > 1 and abs(ll - lls[-2]) <= config.tol * max(1.0, abs(lls[-2])):
            converged = True
            break
        np.exp(np.subtract(log_joint, log_norm, out=resp), out=resp)
        # M step; tiny responsibility mass is floored so a dying component
        # cannot divide by zero. log_joint, and resp once read, serve as
        # scratch until the next E step rewrites them.
        nk = np.maximum(resp.sum(axis=1), 1e-12)
        weights = nk / nk.sum()
        means = np.multiply(resp, x, out=log_joint).sum(axis=1) / nk
        diff = np.subtract(x, means[:, None], out=log_joint)
        np.multiply(np.multiply(resp, diff, out=resp), diff, out=resp)
        variances = np.maximum(resp.sum(axis=1) / nk, config.variance_floor)

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
    log_joint = _log_joint(x, gmm.weights, gmm.means, gmm.variances, out=np.empty((2, x.size)))
    log_norm = _logaddexp(log_joint[0], log_joint[1], np.empty(x.size), np.empty_like(log_joint))
    return np.exp(np.subtract(log_joint[gmm.clean_component], log_norm, out=log_norm), out=log_norm)
