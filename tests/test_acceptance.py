"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` for the per-criterion
report. The canonical benchmark is K=10, D=16, N=5000 with 40% symmetric
noise (fixtures in conftest.py).
"""
import json
import time

import numpy as np
import pytest

from dualsift import (
    GmmConfig,
    MetaDataset,
    MetaNet,
    MetaTrainConfig,
    Orientation,
    Partition,
    TrainConfig,
    accuracy,
    build_meta_dataset,
    derive_seed,
    divide_cluster,
    fit_gmm1d,
    make_ensemble,
    partition_by_label,
    purify,
    score_dataset,
    selection_metrics,
    split_dataset,
    train_meta,
    warmup,
    weighted_average_baseline,
)
from dualsift.classifier import ToyClassifier, mixed_loss_and_grads, softmax_rows
from dualsift.cli import main as cli_main
from dualsift.metanet import _mean_bce, meta_loss_and_grads
from dualsift.scores import ScoreTable
from dualsift.semisup import ensemble_representation
from dualsift.seeding import rng_from

from conftest import BENCH_SEED
from reference import co_guess, cosine_similarity_score, cross_entropy_score, refine_label


def check(name, condition, detail=""):
    status = "PASS" if condition else "FAIL"
    print(f"ACCEPTANCE {name}: {status} {detail}")
    assert condition, f"{name} failed: {detail}"


@pytest.fixture(scope="module")
def warm_state(benchmark40):
    """Warmed ensemble on the train split, mirroring cmd_train exactly."""
    cfg = TrainConfig(seed=BENCH_SEED)
    train, test, _, _ = split_dataset(benchmark40, 0.2, BENCH_SEED)
    ensemble = make_ensemble(train.feature_dim, train.num_classes, cfg)
    ensemble = warmup(ensemble, train, cfg.warmup_epochs, cfg.lr,
                      derive_seed(cfg.seed, "warmup"), cfg.batch_size)
    return {"cfg": cfg, "train": train, "test": test, "ensemble": ensemble}


def test_criterion_1_gmm_oracle_recovery():
    rng = np.random.default_rng(0)
    pick = rng.random(2000) < 0.5
    values = np.where(pick, rng.normal(0.0, 0.1, 2000), rng.normal(2.0, 0.3, 2000))
    start = time.perf_counter()
    g = fit_gmm1d(values, GmmConfig(Orientation.SMALLER_MEAN_CLEAN))
    elapsed = time.perf_counter() - start
    means = np.sort(g.means)
    lls = g.log_likelihoods
    monotone = bool(np.all(np.diff(lls) >= -1e-9 * np.maximum(1.0, np.abs(lls[:-1]))))
    ok = (abs(means[0]) < 0.05 and abs(means[1] - 2.0) < 0.05
          and np.all(np.abs(g.weights - 0.5) < 0.05) and monotone and elapsed < 1.0)
    check("1 gmm-oracle-recovery", ok,
          f"means={np.round(means, 4)} weights={np.round(g.weights, 4)} "
          f"monotone={monotone} time={elapsed:.3f}s")


def test_criterion_2_bimodality(warm_state):
    logits, embedding, _ = ensemble_representation(
        warm_state["ensemble"], warm_state["train"].features)
    derived = warm_state["train"].with_representation(embedding, logits)
    clusters = partition_by_label(derived)
    table = score_dataset(derived, clusters)
    ok_loss = ok_sim = total = 0
    for cluster in clusters:
        ids = cluster.member_ids
        if ids.size == 0:
            continue
        total += 1
        g_loss = fit_gmm1d(table.loss_score[ids], GmmConfig(Orientation.SMALLER_MEAN_CLEAN))
        g_sim = fit_gmm1d(table.sim_score[ids], GmmConfig(Orientation.LARGER_MEAN_CLEAN))
        ok_loss += abs(g_loss.means[0] - g_loss.means[1]) > 2 * np.sqrt(g_loss.variances).max()
        ok_sim += abs(g_sim.means[0] - g_sim.means[1]) > 2 * np.sqrt(g_sim.variances).max()
    ok = ok_loss >= 0.8 * total and ok_sim >= 0.8 * total
    check("2 bimodality", ok, f"loss {ok_loss}/{total} feature {ok_sim}/{total}")


def test_criterion_3_dual_space_gain(benchmark40, benchmark40_result):
    clean = benchmark40.clean_mask
    partition, table = benchmark40_result.partition, benchmark40_result.table
    dual = selection_metrics(partition.clean_ids, clean).f1
    loss_only = selection_metrics(np.flatnonzero(table.posterior_loss > 0.5), clean).f1
    sim_only = selection_metrics(np.flatnonzero(table.posterior_sim > 0.5), clean).f1
    ok = dual >= loss_only + 0.01 and dual >= sim_only + 0.01
    check("3 dual-space-gain", ok,
          f"dual={dual:.4f} loss-only={loss_only:.4f} feature-only={sim_only:.4f}")


def test_criterion_4_purification_gain(benchmark40, benchmark40_result):
    clean = benchmark40.clean_mask
    partition = benchmark40_result.partition
    su = partition.uncertain_ids
    cu = np.intersect1d(partition.clean_ids, su)
    raw_fraction = clean[su].mean()
    purified_precision = clean[cu].mean()
    ok = purified_precision >= raw_fraction + 0.05
    check("4 purification-gain", ok,
          f"C_u precision={purified_precision:.4f} raw S_u clean fraction={raw_fraction:.4f} "
          f"(|S_u|={su.size}, |C_u|={cu.size})")


def test_criterion_5_msp_vs_weighted_average(benchmark40, benchmark40_result):
    clean = benchmark40.clean_mask
    partition, table = benchmark40_result.partition, benchmark40_result.table
    meta = build_meta_dataset(partition, table)
    rng = rng_from(derive_seed(BENCH_SEED, "meta-holdout"))
    perm = rng.permutation(meta.n)
    hold, fit = perm[: meta.n // 4], perm[meta.n // 4:]
    trained = train_meta(
        MetaNet.initialize(hidden=10, seed=derive_seed(BENCH_SEED, "meta-init")),
        MetaDataset(meta.inputs[fit], meta.labels[fit]),
        MetaTrainConfig(seed=BENCH_SEED))
    net_bce = _mean_bce(trained.forward(meta.inputs[hold]), meta.labels[hold])
    baseline_bces = [
        _mean_bce(weighted_average_baseline(meta.inputs[hold, 0], meta.inputs[hold, 1], lam),
                  meta.labels[hold])
        for lam in (0.0, 0.5, 1.0)
    ]
    su = partition.uncertain_ids
    fused = table.fused[su]
    msp_counts = int(((fused >= 0.5) & clean[su]).sum() + ((fused <= 0.5) & ~clean[su]).sum())
    base_counts = max(
        int(((f >= 0.5) & clean[su]).sum() + ((f <= 0.5) & ~clean[su]).sum())
        for f in (weighted_average_baseline(table.posterior_loss[su], table.posterior_sim[su], lam)
                  for lam in (0.0, 0.5, 1.0)))
    ok = net_bce <= min(baseline_bces) and msp_counts >= base_counts
    check("5 msp-vs-average", ok,
          f"net bce={net_bce:.4f} baselines={np.round(baseline_bces, 4)} "
          f"TP+TN msp={msp_counts} best-baseline={base_counts}")


def test_criterion_6_end_to_end_benefit(benchmark40, train_run, warm_state):
    report = train_run["report"]
    final = report["accuracy"]
    cfg = warm_state["cfg"]
    budget = cfg.warmup_epochs + cfg.rounds
    baseline_ens = make_ensemble(warm_state["train"].feature_dim,
                                 warm_state["train"].num_classes, cfg)
    baseline_ens = warmup(baseline_ens, warm_state["train"], budget, cfg.lr,
                          derive_seed(cfg.seed, "warmup"), cfg.batch_size)
    baseline = accuracy(baseline_ens, warm_state["test"])
    ok = final > baseline and train_run["seconds"] < 120.0
    check("6 end-to-end-benefit", ok,
          f"distilled={final:.4f} ce-baseline={baseline:.4f} "
          f"runtime={train_run['seconds']:.1f}s (budget {budget} epochs each)")


def test_criterion_7_certain_set_precision(benchmark40, benchmark40_result):
    precision = selection_metrics(
        benchmark40_result.partition.positive_ids, benchmark40.clean_mask).precision
    ok = precision >= 0.95
    check("7 certain-set-precision", ok, f"S_p precision={precision:.4f}")


def test_criterion_8_numerical_contracts():
    rng = rng_from(77)
    # meta gradient check
    net = MetaNet.initialize(hidden=4, seed=5)
    mx = rng.random((12, 2))
    my = (rng.random(12) > 0.5).astype(float)
    _, mg = meta_loss_and_grads(net, mx, my)
    worst = 0.0
    step = 1e-5
    for name in ("w1", "b1", "w2", "b2"):
        param = getattr(net, name)
        for idx in np.ndindex(param.shape):
            orig = param[idx]
            param[idx] = orig + step
            up, _ = meta_loss_and_grads(net, mx, my)
            param[idx] = orig - step
            dn, _ = meta_loss_and_grads(net, mx, my)
            param[idx] = orig
            fd = (up - dn) / (2 * step)
            worst = max(worst, abs(mg[name][idx] - fd) / max(abs(mg[name][idx]), abs(fd), 1e-8))
    meta_ok = worst <= 1e-4

    # classifier gradient check
    clf = ToyClassifier.initialize(3, 4, 3, seed=6)
    xc = rng.normal(size=(5, 3))
    tc = rng.random((5, 3))
    tc /= tc.sum(axis=1, keepdims=True)
    xu = rng.normal(size=(4, 3))
    qu = rng.random((4, 3))
    qu /= qu.sum(axis=1, keepdims=True)
    _, cg = mixed_loss_and_grads(clf, xc, tc, xu, qu, 3.0, 1.0)
    worst_c = 0.0
    for name in ("w1", "b1", "w2", "b2"):
        param = getattr(clf, name)
        for idx in np.ndindex(param.shape):
            orig = param[idx]
            param[idx] = orig + step
            up, _ = mixed_loss_and_grads(clf, xc, tc, xu, qu, 3.0, 1.0)
            param[idx] = orig - step
            dn, _ = mixed_loss_and_grads(clf, xc, tc, xu, qu, 3.0, 1.0)
            param[idx] = orig
            fd = (up - dn) / (2 * step)
            worst_c = max(worst_c, abs(cg[name][idx] - fd) / max(abs(cg[name][idx]), abs(fd), 1e-8))
    clf_ok = worst_c <= 1e-4

    # shift and scale invariances
    shift_ok = scale_ok = True
    for _ in range(50):
        logits = rng.normal(size=6) * 10
        label = int(rng.integers(0, 6))
        c = rng.normal() * 50
        a = cross_entropy_score(logits, label)
        b = cross_entropy_score(logits + c, label)
        shift_ok &= abs(a - b) <= 1e-9 * max(1.0, abs(a))
        v, w = rng.normal(size=5), rng.normal(size=5)
        alpha, beta = rng.uniform(0.01, 100, 2)
        scale_ok &= abs(cosine_similarity_score(v, w)
                        - cosine_similarity_score(alpha * v, beta * w)) <= 1e-9

    # distribution-valued outputs sum to 1
    dist_ok = True
    for _ in range(50):
        probs = softmax_rows(rng.normal(size=(8, 5)) * 10)
        dist_ok &= bool(np.all(np.abs(probs.sum(axis=1) - 1.0) <= 1e-6))
        raw = [p / p.sum() for p in rng.random((3, 5)) + 1e-3]
        guess = co_guess(raw)
        dist_ok &= abs(guess.sum() - 1.0) <= 1e-6
        y = np.zeros(5)
        y[int(rng.integers(0, 5))] = 1.0
        refined = refine_label(y, float(rng.random()), raw[0])
        dist_ok &= abs(refined.sum() - 1.0) <= 1e-6

    ok = meta_ok and clf_ok and shift_ok and scale_ok and dist_ok
    check("8 numerical-contracts", ok,
          f"meta-grad rel err={worst:.2e} classifier-grad rel err={worst_c:.2e} "
          f"shift={shift_ok} scale={scale_ok} distributions={dist_ok}")


def test_criterion_9_determinism(benchmark40_csv, train_run, tmp_path):
    gen_a, gen_b = tmp_path / "ga.csv", tmp_path / "gb.csv"
    for out in (gen_a, gen_b):
        assert cli_main(["generate", "--k", "10", "--d", "16", "--n", "5000",
                         "--noise", "sym:0.4", "--seed", "1", "-o", str(out)]) == 0
    gen_ok = gen_a.read_bytes() == gen_b.read_bytes()

    dis_a, dis_b = tmp_path / "da", tmp_path / "db"
    for out in (dis_a, dis_b):
        assert cli_main(["distill", str(benchmark40_csv), "-o", str(out), "--seed", "1"]) == 0
    dis_ok = ((dis_a / "report.json").read_bytes() == (dis_b / "report.json").read_bytes()
              and (dis_a / "partition.csv").read_bytes() == (dis_b / "partition.csv").read_bytes())

    train_dir = tmp_path / "tr"
    assert cli_main(["train", str(benchmark40_csv), "-o", str(train_dir), "--seed", "1"]) == 0
    first = json.dumps(train_run["report"], indent=2, sort_keys=True)
    second = json.dumps(json.loads((train_dir / "report.json").read_text()),
                        indent=2, sort_keys=True)
    train_ok = first == second and (
        (train_dir / "member_0.txt").read_bytes()
        == (train_run["outdir"] / "member_0.txt").read_bytes())

    ok = gen_ok and dis_ok and train_ok
    check("9 determinism", ok, f"generate={gen_ok} distill={dis_ok} train={train_ok}")


def test_criterion_10_partition_algebra():
    rng = np.random.default_rng(123)
    ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        pp = rng.random(n)
        ps = rng.random(n)
        if rng.random() < 0.2:
            pp[rng.random(n) < 0.2] = np.nan
        t1, t2 = rng.random(), rng.random()
        pos, neg, unc = divide_cluster(pp, ps, t1, t2)
        combined = np.sort(np.concatenate([pos, neg, unc]))
        ok &= bool(np.array_equal(combined, np.arange(n)))

        part = Partition(n_total=n, positive_ids=pos, negative_ids=neg, uncertain_ids=unc)
        table = ScoreTable.empty(n)
        table.posterior_loss[:] = pp
        table.posterior_sim[:] = ps
        table.fused[:] = np.where(np.isnan(pp), np.nan, rng.random(n))
        t4 = rng.random()
        t3 = t4 + (1.0 - t4) * rng.random()
        purified = purify(table, part, t3, t4)
        ok &= bool(np.isin(purified.positive_ids, purified.clean_ids).all())
        ok &= bool(np.isin(purified.negative_ids, purified.noisy_ids).all())
        ok &= np.intersect1d(purified.clean_ids, purified.noisy_ids).size == 0
        judged = np.sort(np.concatenate(
            [purified.clean_ids, purified.noisy_ids, purified.dropped_ids]))
        ok &= bool(np.array_equal(judged, np.arange(n)))

        # raising the loss threshold never grows the positive set
        higher = min(1.0, t1 + rng.random() * (1.0 - t1))
        pos_hi, neg_hi, _ = divide_cluster(pp, ps, higher, t2)
        ok &= set(pos_hi) <= set(pos)
        ok &= set(neg) <= set(neg_hi)
        if not ok:
            break
    check("10 partition-algebra", ok, "1000 randomized instances")
