"""Scalar reference forms of the package's vectorised formulas.

The package computes scores and losses over whole arrays; these one-sample
versions are written independently so tests can compare the two. The
row-at-a-time ``%r`` sample-table writer is the byte oracle for the block writer.
The whole-array synthetic generator and fusion are the bit oracles for the
package's in-place, row-blocked forms.
The one-array-per-component EM, the masked sigmoid, the clip-and-mean BCE, the
per-batch-gather meta training loop, and the zero-buffer mixed loss with its
per-step-gather epoch are the bit oracles for the package's buffered forms.
The (n, 2) EM with left-to-right sums and ``np.logaddexp`` is the fit as it was
before pairwise sums; the package stays close to it, not equal.
The out-of-place forward and backward fold each bias into its layer's matmul
through ones columns that they concatenate, and slice the per-name gradients
out of the two augmented products; they are the bit oracles for the
package's forms that write into preallocated ``[h | 1]`` and gradient arrays.
The training loops update each named parameter view on its own, from a dict
of per-name gradients, so they check the package's flat-buffer step rather
than reuse it.
Division from per-cluster P/N/U id lists, with a branch for a cluster that
has no finite posterior in a space, and the fused cutoff with its 0.5
fallback are the bit oracles for the package's NaN-cutoff forms.
The multi-round trainer assembles each round from these oracles and hands
its trained meta net and its mixture fits to the next round by hand; it is
the bit oracle for ``train``'s warm-started rounds.
"""
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from dualsift.classifier import ToyClassifier
from dualsift.data import (LOGIT_JITTER, Dataset, SyntheticSpec, _class_centroids, _expected_header,
                           partition_by_label)
from dualsift.division import (MIN_COMPONENT_WEIGHT, Partition, StrategyKind, Tag,
                               ThresholdStrategy, divide_cluster)
from dualsift.errors import DegenerateFit, NumericalError
from dualsift.gmm import _LOG_2PI, Gmm1d, GmmConfig, Orientation
from dualsift.metanet import MIN_DELTA, MetaDataset, MetaTrainConfig, _sigmoid, purify
from dualsift.scores import SCORE_RANGE, ScoreTable, in_range, score_dataset
from dualsift.semisup import _epoch_batches, ensemble_representation, make_ensemble, warmup
from dualsift.seeding import derive_seed, rng_from

_NORM_EPS = 1e-12
_PROB_CLAMP = 1e-7
_PRED_CLAMP = 1e-7


def cross_entropy_score(logits: np.ndarray, label: int) -> float:
    """Negative log softmax probability of ``label``, stabilized by max subtraction."""
    logits = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(logits)):
        raise ValueError("logits must be finite")
    if not 0 <= label < logits.shape[0]:
        raise ValueError(f"label {label} outside [0, {logits.shape[0]})")
    m = logits.max()
    lse = m + np.log(np.exp(logits - m).sum())
    return max(float(lse - logits[label]), 0.0)


def cosine_similarity_score(feature: np.ndarray, center: np.ndarray) -> float:
    """Cosine similarity, 0 when either vector has (near) zero norm."""
    feature = np.asarray(feature, dtype=np.float64)
    center = np.asarray(center, dtype=np.float64)
    if feature.shape != center.shape:
        raise ValueError("vector lengths differ")
    na, nb = np.linalg.norm(feature), np.linalg.norm(center)
    if na < _NORM_EPS or nb < _NORM_EPS:
        return 0.0
    return float(feature @ center / (na * nb))


def refine_label(y_noisy: np.ndarray, fused: float, p_ens: np.ndarray) -> np.ndarray:
    """Convex combination of the given one-hot label and the ensemble prediction."""
    if not 0.0 <= fused <= 1.0:
        raise ValueError(f"fused weight must lie in [0, 1], got {fused}")
    return fused * np.asarray(y_noisy, dtype=np.float64) \
        + (1.0 - fused) * np.asarray(p_ens, dtype=np.float64)


def co_guess(preds: list[np.ndarray]) -> np.ndarray:
    """Elementwise mean of the member predictions, renormalized to sum 1."""
    if not preds:
        raise ValueError("need at least one prediction")
    mean = np.mean([np.asarray(p, dtype=np.float64) for p in preds], axis=0)
    return mean / mean.sum()


def labeled_loss(preds: np.ndarray, targets: np.ndarray) -> float:
    """Mean cross-entropy against (possibly soft) target distributions."""
    preds = np.atleast_2d(np.asarray(preds, dtype=np.float64))
    targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    if preds.shape[0] == 0:
        warnings.warn("labeled loss over an empty set", stacklevel=2)
        return 0.0
    clipped = np.clip(preds, _PROB_CLAMP, None)
    return float(-(targets * np.log(clipped)).sum() / preds.shape[0])


def unlabeled_loss(preds: np.ndarray, guesses: np.ndarray) -> float:
    """Mean squared error between predictions and guessed distributions."""
    preds = np.atleast_2d(np.asarray(preds, dtype=np.float64))
    guesses = np.atleast_2d(np.asarray(guesses, dtype=np.float64))
    if preds.shape[0] == 0:
        return 0.0
    diff = guesses - preds
    return float((diff * diff).sum() / preds.shape[0])


def reg_loss(mean_pred: np.ndarray) -> float:
    """KL divergence from the uniform distribution to the mean prediction."""
    mean_pred = np.asarray(mean_pred, dtype=np.float64)
    k = mean_pred.shape[0]
    uniform = 1.0 / k
    clipped = np.clip(mean_pred, _PROB_CLAMP, None)
    return float((uniform * (np.log(uniform) - np.log(clipped))).sum())


def total_loss(l_labeled: float, l_unlabeled: float, l_reg: float,
               lambda_u: float, lambda_r: float) -> float:
    return l_labeled + lambda_u * l_unlabeled + lambda_r * l_reg


def write_sample_table(dataset: Dataset, path: str | Path) -> None:
    """Serialize a dataset in the sample-table CSV format, one ``%d`` and
    ``%r`` row at a time."""
    d, k = dataset.feature_dim, dataset.num_classes
    row = "%d,%d,%d," + ",".join(["%r"] * (d + k)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(_expected_header(d, k)) + "\n")
        fh.writelines(row % (i, y, t, *f, *g) for i, (y, t, f, g) in enumerate(zip(
            dataset.noisy_labels.tolist(), dataset.true_labels.tolist(),
            dataset.features.tolist(), dataset.logits.tolist())))


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """The synthetic benchmark from whole-array expressions: centroid plus
    scaled normals, and scaled one-hot plus jitter, each in one step."""
    rng = rng_from(spec.seed)
    true = rng.integers(0, spec.k, size=spec.n)
    centroids = _class_centroids(spec.k, spec.d, rng)
    features = centroids[true] + spec.cluster_spread * rng.standard_normal((spec.n, spec.d))
    hot = np.zeros((spec.n, spec.k))
    hot[np.arange(spec.n), true] = 1.0
    logits = spec.logit_sharpness * hot + LOGIT_JITTER * rng.standard_normal((spec.n, spec.k))
    return Dataset(features, logits, true.copy(), true.copy())


def _log_joint(x: np.ndarray, weight: float, mean: float, variance: float) -> np.ndarray:
    # log weight plus log density of each point under one component
    diff = x - mean
    return np.log(weight) + -0.5 * (diff * diff / variance + np.log(variance) + _LOG_2PI)


def logaddexp(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``log(exp(a) + exp(b))`` of finite arrays, in the package's form."""
    return np.maximum(a, b) + np.log1p(np.exp(-np.abs(a - b)))


def fit_gmm1d(values: np.ndarray, config: GmmConfig, init: Gmm1d | None = None) -> Gmm1d:
    """EM fit, one 1-D array per component, from ``init``'s mixture or a
    deterministic percentile start.

    Without ``init`` component means start at the 10th and 90th
    percentiles, weights equal, both variances at the sample variance.
    Iterates until ``|ll - ll_prev| <= tol * max(1, |ll_prev|)`` or
    ``max_iter`` is reached.

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

    if init is not None:
        weights, means, variances = init.weights, init.means, init.variances
    else:
        means = np.quantile(x, [0.1, 0.9])
        if means[0] == means[1]:
            means = np.array([x.min(), x.max()])
        variances = np.full(2, max(float(np.var(x)), config.variance_floor))
        weights = np.full(2, 0.5)

    lls: list[float] = []
    converged = False
    for _ in range(config.max_iter):
        log_joint = [_log_joint(x, weights[k], means[k], variances[k]) for k in (0, 1)]
        log_norm = logaddexp(*log_joint)
        ll = float(log_norm.sum())
        lls.append(ll)
        if len(lls) > 1 and abs(ll - lls[-2]) <= config.tol * max(1.0, abs(lls[-2])):
            converged = True
            break
        resp = [np.exp(lj - log_norm) for lj in log_joint]
        nk = np.maximum(np.array([r.sum() for r in resp]), 1e-12)
        weights = nk / nk.sum()
        means = np.array([(r * x).sum() for r in resp]) / nk
        variances = np.maximum(
            np.array([(r * (x - m) * (x - m)).sum() for r, m in zip(resp, means)]) / nk,
            config.variance_floor)

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
    log_joint = [_log_joint(x, gmm.weights[k], gmm.means[k], gmm.variances[k]) for k in (0, 1)]
    return np.exp(log_joint[gmm.clean_component] - logaddexp(*log_joint))


def _log_pdf(x: np.ndarray, means: np.ndarray, variances: np.ndarray) -> np.ndarray:
    # (n, 2) log density of each point under each component
    diff = x[:, None] - means[None, :]
    return -0.5 * (diff * diff / variances[None, :] + np.log(variances)[None, :] + _LOG_2PI)


def sequential_fit_gmm1d(values: np.ndarray, config: GmmConfig) -> Gmm1d:
    """The fit as it was before pairwise sums: an (n, 2) layout whose
    axis-0 sums run left to right, and ``np.logaddexp``. Same checks and
    initialization as :func:`fit_gmm1d`."""
    x = np.asarray(values, dtype=np.float64).ravel()
    if x.size < config.min_fit_size or np.ptp(x) == 0.0:
        raise DegenerateFit("too few or identical values")
    means = np.quantile(x, [0.1, 0.9])
    if means[0] == means[1]:
        means = np.array([x.min(), x.max()])
    variances = np.full(2, max(float(np.var(x)), config.variance_floor))
    weights = np.full(2, 0.5)

    lls: list[float] = []
    converged = False
    for _ in range(config.max_iter):
        log_joint = np.log(weights)[None, :] + _log_pdf(x, means, variances)
        log_norm = np.logaddexp(log_joint[:, 0], log_joint[:, 1])
        ll = float(log_norm.sum())
        lls.append(ll)
        if len(lls) > 1 and abs(ll - lls[-2]) <= config.tol * max(1.0, abs(lls[-2])):
            converged = True
            break
        resp = np.exp(log_joint - log_norm[:, None])
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


def sequential_posteriors(gmm: Gmm1d, values: np.ndarray) -> np.ndarray:
    """:func:`posteriors` through ``np.logaddexp`` on the (n, 2) layout."""
    x = np.asarray(values, dtype=np.float64).ravel()
    log_joint = np.log(gmm.weights)[None, :] + _log_pdf(x, gmm.means, gmm.variances)
    log_norm = np.logaddexp(log_joint[:, 0], log_joint[:, 1])
    return np.exp(log_joint[:, gmm.clean_component] - log_norm)


def sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def network(w1: np.ndarray, b1: np.ndarray, w2: np.ndarray, b2: np.ndarray) -> ToyClassifier:
    """A hand-written single network: the four arrays laid out one after another."""
    flat = np.concatenate([np.asarray(p, dtype=np.float64).ravel() for p in (w1, b1, w2, b2)])
    return ToyClassifier(flat, (w1.shape[0], w1.shape[1], w2.shape[1]))


def sgd_step(net: ToyClassifier, grads: dict, lr: float) -> None:
    """Per-name SGD update through the parameter views."""
    for name, grad in grads.items():
        param = getattr(net, name)
        param -= lr * grad


def step_buffers(net: ToyClassifier, x1: np.ndarray) -> tuple[np.ndarray, ToyClassifier]:
    """Fresh ``(h1, grads)`` workspaces for one gradient step of ``net`` on the
    ones-column batch ``x1``: ones of ``net``'s member shape by ``(n, H+1)``,
    and a network laid out as ``net``."""
    h1 = np.ones(net.flat.shape[:-1] + (x1.shape[-2], net.dims[1] + 1))
    return h1, ToyClassifier(np.empty(net.flat.shape), net.dims)


def _ones_appended(a: np.ndarray) -> np.ndarray:
    return np.concatenate([a, np.ones(a.shape[:-1] + (1,))], axis=-1)


def forward(net: ToyClassifier, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(logits, hidden activations) of a ([M,] n, D) batch, out of place,
    with each bias folded into its layer's matmul through a ones column."""
    h = np.maximum(_ones_appended(np.asarray(x, dtype=np.float64)) @ net.W1, 0.0)
    return _ones_appended(h) @ net.W2, h


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _backward(net: ToyClassifier, x: np.ndarray, h: np.ndarray, dlogits: np.ndarray) -> dict:
    dz1 = (dlogits @ net.w2.swapaxes(-1, -2)) * (h > 0)
    g1 = _ones_appended(x).swapaxes(-1, -2) @ dz1
    g2 = _ones_appended(h).swapaxes(-1, -2) @ dlogits
    return {"w2": g2[..., :-1, :], "b2": g2[..., -1, :], "w1": g1[..., :-1, :], "b1": g1[..., -1, :]}


def mixed_loss_and_grads(clf, x_labeled, targets, x_unlabeled, guesses, lambda_u, lambda_r):
    """Mixed loss and gradients with every probability-space term built in
    zero-initialised buffers, whether or not it contributes."""
    nc, nu = x_labeled.shape[-2], x_unlabeled.shape[-2]
    n_all = nc + nu
    if n_all == 0:
        raise ValueError("both batch groups are empty")
    if nc and nu:
        x = np.concatenate([x_labeled, x_unlabeled], axis=-2).astype(np.float64)
    elif nc:
        x = np.asarray(x_labeled, dtype=np.float64)
    else:
        x = np.asarray(x_unlabeled, dtype=np.float64)
    logits, h = forward(clf, x)
    p = softmax_rows(logits)
    k = clf.num_classes
    rows = (-2, -1)

    loss = 0.0
    dlogits = np.zeros_like(p)
    # gradient of terms that act through the probabilities
    gp = np.zeros_like(p)

    if nc:
        pc = np.clip(p[..., :nc, :], _PROB_CLAMP, None)
        loss += -(targets * np.log(pc)).sum(axis=rows) / nc
        dlogits[..., :nc, :] += (p[..., :nc, :] - targets) / nc
    if nu:
        diff = p[..., nc:, :] - guesses
        loss += lambda_u * ((diff * diff).sum(axis=rows) / nu)
        gp[..., nc:, :] += lambda_u * 2.0 * diff / nu
    if lambda_r:
        mean_pred = p.mean(axis=-2, keepdims=True)
        clipped = np.clip(mean_pred, _PROB_CLAMP, None)
        uniform = 1.0 / k
        loss += lambda_r * (uniform * (np.log(uniform) - np.log(clipped))).sum(axis=rows)
        gp += lambda_r * (-uniform / clipped) / n_all

    # softmax Jacobian-vector product, per row
    dlogits += p * (gp - (gp * p).sum(axis=-1, keepdims=True))
    return loss, _backward(clf, x, h, dlogits)


def train_epoch_mixed(ensemble, features, lab_ids, targets, unl_ids, guesses, lambda_u, lambda_r,
                      lr, batch_size, rngs) -> None:
    """One stacked SGD epoch that gathers every step's batches from the index arrays."""
    x_lab, x_unl = features[lab_ids], features[unl_ids]
    nc, nu = x_lab.shape[0], x_unl.shape[0]
    steps = -(-(nc + nu) // batch_size) if nc + nu else 0
    lab_idx = _epoch_batches(nc, batch_size, rngs, steps) if nc else None
    unl_idx = _epoch_batches(nu, batch_size, rngs, steps) if nu else None
    empty_x = np.zeros((len(rngs), 0, ensemble.dims[0]))
    empty_t = np.zeros((len(rngs), 0, ensemble.num_classes))
    for s in range(steps):
        xl, tl = (x_lab[lab_idx[s]], targets[lab_idx[s]]) if nc else (empty_x, empty_t)
        xu, qu = (x_unl[unl_idx[s]], guesses[unl_idx[s]]) if nu else (empty_x, empty_t)
        loss, grads = mixed_loss_and_grads(ensemble, xl, tl, xu, qu, lambda_u, lambda_r)
        if not np.isfinite(loss).all():
            raise NumericalError(f"training produced non-finite loss {loss}")
        sgd_step(ensemble, grads, lr)


def mean_bce(preds: np.ndarray, labels: np.ndarray) -> float:
    p = np.clip(preds, _PRED_CLAMP, 1.0 - _PRED_CLAMP)
    return float(-(labels * np.log(p) + (1.0 - labels) * np.log(1.0 - p)).mean())


def meta_scores(net: ToyClassifier, pairs: np.ndarray) -> np.ndarray:
    logits, _ = forward(net, pairs)
    return _sigmoid(logits[:, 0])


def fuse_scores(net: ToyClassifier, table: ScoreTable) -> ScoreTable:
    """Fused scores from one forward pass over every posterior pair."""
    pairs = np.column_stack([table.posterior_loss, table.posterior_sim])
    return replace(table, fused=meta_scores(net, pairs))


def meta_loss_and_grads(net: ToyClassifier, inputs: np.ndarray, labels: np.ndarray):
    x = np.asarray(inputs, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    logits, h = forward(net, x)
    p = _sigmoid(logits[:, 0])
    return mean_bce(p, y), _backward(net, x, h, ((p - y) / x.shape[0])[:, None])


def train_meta(net: ToyClassifier, data: MetaDataset, config: MetaTrainConfig) -> ToyClassifier:
    """Meta training that gathers every minibatch from the shuffled order,
    with the out-of-place forward and the clip-and-mean BCE.

    Early-stops after ``patience`` epochs without an improvement of at
    least ``MIN_DELTA`` in the full-data training BCE.
    """
    if data.n == 0:
        raise ValueError("meta dataset is empty")
    rng = rng_from(config.seed, "meta-shuffle")
    net = net.copy()
    best = net.copy()
    best_loss = mean_bce(meta_scores(net, data.inputs), data.labels)
    stale = 0
    for _ in range(config.epochs):
        order = rng.permutation(data.n)
        for start in range(0, data.n, config.batch_size):
            batch = order[start:start + config.batch_size]
            loss, grads = meta_loss_and_grads(net, data.inputs[batch], data.labels[batch])
            if not np.isfinite(loss):
                raise NumericalError(f"meta training produced non-finite loss {loss}")
            sgd_step(net, grads, config.lr)
        epoch_loss = mean_bce(meta_scores(net, data.inputs), data.labels)
        if not np.isfinite(epoch_loss):
            raise NumericalError(f"meta training produced non-finite loss {epoch_loss}")
        if epoch_loss < best_loss - MIN_DELTA:
            stale = 0
        else:
            stale += 1
        if epoch_loss < best_loss:
            best_loss = epoch_loss
            best = net.copy()
        if stale >= config.patience:
            break
    return best


def resolve_threshold(strategy: ThresholdStrategy, values: np.ndarray) -> float:
    """Nearest-rank cutoff over a population that must not be empty."""
    if strategy.kind is StrategyKind.FIXED:
        return strategy.value
    vals = np.sort(np.asarray(values, dtype=np.float64).ravel())
    if vals.size == 0:
        raise ValueError("percentile strategy needs a non-empty posterior list")
    rank = int(np.ceil(strategy.value * vals.size))
    return float(vals[min(max(rank, 1), vals.size) - 1])


def divide_dataset(table: ScoreTable, clusters: list[np.ndarray],
                   strategy_loss: ThresholdStrategy,
                   strategy_feat: ThresholdStrategy) -> np.ndarray:
    """Partition codes assembled from per-cluster P/N/U id lists, which must
    cover 0..N-1 exactly once; a cluster with no finite posterior in a space
    goes to U whole."""
    parts = ([], [], [])
    for ids in clusters:
        pp = table.posterior_loss[ids]
        ps = table.posterior_sim[ids]
        finite_pp = pp[np.isfinite(pp)]
        finite_ps = ps[np.isfinite(ps)]
        if finite_pp.size == 0 or finite_ps.size == 0:
            parts[2].append(ids)
            continue
        split = divide_cluster(pp, ps, resolve_threshold(strategy_loss, finite_pp),
                               resolve_threshold(strategy_feat, finite_ps))
        for part, members in zip(parts, split):
            part.append(ids[members])
    id_sets = [np.concatenate([np.empty(0, dtype=np.int64), *part]) for part in parts]
    if not np.array_equal(np.sort(np.concatenate(id_sets)), np.arange(table.n)):
        raise ValueError("P/N/U must partition 0..N-1")
    codes = np.empty(table.n, dtype=np.int8)
    for tag, ids in zip((Tag.P, Tag.N, Tag.U), id_sets):
        codes[ids] = tag
    return codes


def fuse_cutoff(strategy: ThresholdStrategy, fused_uncertain: np.ndarray) -> float:
    """The purification cutoff over the uncertain set's finite fused scores;
    0.5 when there is none, since purify then only merges the certain sets."""
    finite = fused_uncertain[np.isfinite(fused_uncertain)]
    return resolve_threshold(strategy, finite) if finite.size else 0.5


def warm_posteriors(table: ScoreTable, clusters: list[np.ndarray], params, previous: dict):
    """Posteriors from per-cluster fits by the EM and posterior oracles above.

    ``previous`` maps (class_id, space) to the (fit, scaled) pair this
    returns for the same key: the accepted fit or None (too few or identical
    values, or a component under ``MIN_COMPONENT_WEIGHT``), and whether the
    scores lay beyond ``SCORE_RANGE``. A fit starts from the previous fit
    when there is one and neither pass's scores lay beyond the range; from
    the percentiles otherwise.
    """
    filled = replace(table, posteriors=np.full((table.n, 2), np.nan))
    fits = {}
    for class_id, ids in enumerate(clusters):
        if ids.size == 0:
            continue
        for space, config, scores, out in (
                ("loss", params.loss_gmm, table.loss_score, filled.posterior_loss),
                ("feature", params.feat_gmm, table.sim_score, filled.posterior_sim)):
            key = (class_id, space)
            scaled = bool(np.abs(scores[ids]).max() > SCORE_RANGE[1])
            values = in_range(scores[ids], SCORE_RANGE)
            before, scaled_before = previous.get(key, (None, False))
            try:
                g = fit_gmm1d(values, config,
                              None if scaled or scaled_before else before)
            except DegenerateFit:
                g = None
            if g is not None and g.weights.min() < MIN_COMPONENT_WEIGHT:
                g = None
            if g is not None:
                out[ids] = posteriors(g, values)
            fits[key] = (g, scaled)
    return filled, fits


def train_rounds(dataset: Dataset, train_config, params, rounds: int, carry: bool = True):
    """Warm-up plus ``rounds`` distillation rounds, each assembled from the
    oracles above. With ``carry`` each round's meta net starts from the
    previous round's trained net, and each round's mixtures from the
    previous round's fits, both passed along here by hand; round 0, and a
    round after one whose certain set could not train a meta net or whose
    seeded draw no epoch improved, start from the seeded ``meta-init`` draw,
    as does every round without ``carry``, whose mixtures all start from the
    percentiles. A round without a trained net fuses with the 0.5 average.
    Needs certain sets of at most ``MAX_PAIRS`` pairs. Returns the ensemble.
    """
    ensemble = warmup(make_ensemble(dataset.feature_dim, dataset.num_classes, train_config),
                      dataset, train_config)
    seeded = ToyClassifier.initialize(2, params.meta_hidden, 1,
                                      seed=derive_seed(params.meta.seed, "meta-init"))
    meta_net, fits = None, {}
    for r in range(rounds):
        logits, embedding, probs = ensemble_representation(ensemble, dataset.features)
        derived = dataset.with_representation(embedding, logits)
        clusters = partition_by_label(derived)
        table, fits = warm_posteriors(score_dataset(derived, clusters), clusters, params,
                                      fits if carry else {})
        codes = divide_dataset(table, clusters, params.loss_strategy, params.sim_strategy)
        ids = np.concatenate([np.flatnonzero(codes == Tag.P), np.flatnonzero(codes == Tag.N)])
        labels = (codes[ids] == Tag.P).astype(np.float64)
        if labels.all() or not labels.any():
            meta_net = None
        else:
            start = meta_net if carry and meta_net is not None else seeded
            pairs = np.column_stack([table.posterior_loss[ids], table.posterior_sim[ids]])
            meta_net = train_meta(start, MetaDataset(pairs, labels), params.meta)
            if start is seeded and np.array_equal(meta_net.flat, seeded.flat):
                meta_net = None
        if meta_net is None:
            fused = 0.5 * table.posterior_loss + 0.5 * table.posterior_sim
        else:
            fused = fuse_scores(meta_net, table).fused
        table = replace(table, fused=fused)
        cut = fuse_cutoff(params.fuse_strategy, fused[codes == Tag.U])
        partition = purify(table, Partition(codes), cut, cut)

        clean, noisy = partition.clean_ids, partition.noisy_ids
        weight = np.clip(fused[clean], 0.0, 1.0)[:, None]
        refined = weight * np.eye(dataset.num_classes)[dataset.noisy_labels[clean]] \
            + (1.0 - weight) * probs[clean]
        guessed = probs[noisy] / probs[noisy].sum(axis=1, keepdims=True)
        rngs = [rng_from(train_config.seed, f"round-{r}-member-{m}")
                for m in range(train_config.ensemble_size)]
        ensemble = ensemble.copy()
        train_epoch_mixed(ensemble, dataset.features, clean, refined, noisy, guessed,
                          train_config.lambda_u, train_config.lambda_r,
                          train_config.lr, train_config.batch_size, rngs)
    return ensemble
