"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import importlib.util
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from helpers import (
    contrastive_frozen_pairs,
    exhaustive_assignment,
    exhaustive_kmeans_optimum,
    fd_gradient,
    knn_direct,
    random_model,
    rel_err,
    silhouette_direct,
)
from ufda.adaptation import AdaptConfig, adapt, pretrain_source
from ufda.consensus import MemoryBank, bank_init, nearest_bank_indices
from ufda.contrastive import loss_contrastive, mine_pairs
from ufda.clustering import estimate_ct, kmeans, silhouette
from ufda.datagen import generate, preset
from ufda.evaluation import hungarian
from ufda.model import ModelDims, backward, forward_batch, loss_source_batch
from ufda.model import cross_entropy_rows
from ufda.numerics import Rng, l2_normalize_rows, normalized_entropy_rows
from ufda.pseudolabel import Prototypes, assign_pseudo_labels, build_all_prototypes


def report(criterion: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    sys.stdout.flush()
    assert ok, line


def test_criterion_1_silhouette_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(4, 51))
        pts = rng.normal(size=(n, int(rng.integers(2, 5))))
        k = int(rng.integers(2, min(6, n) + 1))
        assignment = rng.integers(0, k, size=n)
        if len(np.unique(assignment)) < 2:
            assignment[0], assignment[1] = 0, 1
        diff = np.max(np.abs(silhouette(cdist(pts, pts), assignment) - silhouette_direct(pts, assignment)))
        worst = max(worst, float(diff))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 5.0
    report(1, ok, f"silhouette vs direct oracle, 100 instances: max |diff| = {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_hungarian_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1002)
    mismatches = 0
    for trial in range(200):
        n = int(rng.integers(2, 8))
        if trial % 2 == 0:
            cost = rng.integers(0, 8, size=(n, n)).astype(float)  # many ties
        else:
            cost = rng.normal(size=(n, n))
        if hungarian(cost).tolist() != exhaustive_assignment(cost).tolist():
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 10.0
    report(2, ok, f"hungarian vs exhaustive search, 200 matrices (n<=7): {mismatches} mismatches, {elapsed:.2f}s")


def test_criterion_3_knn_and_kmeans_oracles():
    rng = np.random.default_rng(1003)
    # k-NN against exhaustive scan on N <= 200
    knn_bad = 0
    for _ in range(20):
        n = int(rng.integers(10, 201))
        bank = MemoryBank(
            features=l2_normalize_rows(rng.normal(size=(n, 4))),
            probs=np.full((n, 2), 0.5),
        )
        k = int(rng.integers(1, 6))
        queries = rng.normal(size=(4, 4))
        self_idx = rng.integers(0, n, size=4)
        got = nearest_bank_indices(bank, queries, k, self_idx)
        for i in range(4):
            if got[i].tolist() != knn_direct(bank.features, queries[i], k, int(self_idx[i])):
                knn_bad += 1

    # k-means vs exhaustive-partition optimum. "Never beats" holds on any
    # instance; the >=95% attainment bar runs on clustered instances (the
    # regime the engine uses k-means in) rather than structureless blobs,
    # whose global optimum has a vanishing Lloyd basin for any k-means.
    hits = 0
    beats = 0
    total = 0
    for inst in range(10):
        k = 2 + inst % 2
        centers = rng.normal(size=(k, 2)) * 3.0
        pts = centers[rng.integers(0, k, size=7)] + rng.normal(size=(7, 2))
        best = exhaustive_kmeans_optimum(pts, k)
        for seed in range(10):
            res = kmeans(pts, k, Rng(inst * 100 + seed))
            total += 1
            if res.inertia < best - 1e-9:
                beats += 1
            if res.inertia <= best + 1e-9:
                hits += 1
    for inst in range(10):  # structureless blobs: only the lower bound holds
        pts = rng.normal(size=(7, 2))
        k = 2 + inst % 2
        best = exhaustive_kmeans_optimum(pts, k)
        for seed in range(5):
            if kmeans(pts, k, Rng(9000 + inst * 10 + seed)).inertia < best - 1e-9:
                beats += 1
    ok = knn_bad == 0 and beats == 0 and hits >= 0.95 * total
    report(
        3, ok,
        f"k-NN exact on N<=200 ({knn_bad} mismatches); k-means reached the exhaustive "
        f"optimum in {hits}/{total} clustered runs, beat it {beats} times overall",
    )


def _fd_case(rng):
    model = random_model(rng)
    x = rng.normal(size=(5, 4))
    return model, x


def test_criterion_4_gradient_checks():
    rng = np.random.default_rng(1004)
    names = ("w1", "b1", "w2", "b2", "wc", "bc")
    enc_names = ("w1", "b1", "w2", "b2")
    worst = {"source": 0.0, "global": 0.0, "local": 0.0, "contrastive": 0.0}

    for _ in range(20):
        # source loss through the full trainable model
        model, x = _fd_case(rng)
        labels = rng.integers(0, 3, size=5)

        def f_src(m):
            return loss_source_batch(forward_batch(m, x).probs, labels, 0.1)[0]

        fwd = forward_batch(model, x)
        _, d = loss_source_batch(fwd.probs, labels, 0.1)
        grads = backward(model, fwd, d_logits=d)
        analytic = np.concatenate([grads.get(n).ravel() for n in names])
        worst["source"] = max(worst["source"], rel_err(analytic, fd_gradient(model, names, f_src)))

        # global and local losses: cross entropy against fixed target rows
        for kind, rows in (
            ("global", np.eye(3)[rng.integers(0, 3, size=5)]),
            ("local", rng.dirichlet(np.ones(3), size=5)),
        ):
            model, x = _fd_case(rng)
            model.classifier_frozen = True

            def f_ce(m, rows=rows):
                return cross_entropy_rows(forward_batch(m, x).probs, rows)[0]

            fwd = forward_batch(model, x)
            _, d = cross_entropy_rows(fwd.probs, rows)
            grads = backward(model, fwd, d_logits=d)
            analytic = np.concatenate([grads.get(n).ravel() for n in enc_names])
            worst[kind] = max(worst[kind], rel_err(analytic, fd_gradient(model, enc_names, f_ce)))

        # contrastive loss with stop-gradient pairs
        model, x = _fd_case(rng)
        model.classifier_frozen = True
        bank = bank_init(model, rng.normal(size=(9, 4)))
        fwd0 = forward_batch(model, x)
        pairs = mine_pairs(bank, fwd0.features, np.arange(5), 2, 3)

        def f_con(m):
            return contrastive_frozen_pairs(forward_batch(m, x).features, pairs, bank, fwd0.features)

        fwd = forward_batch(model, x)
        _, d_anchor = loss_contrastive(fwd.features, pairs, bank)
        grads = backward(model, fwd, np.zeros_like(fwd.logits), d_feature=d_anchor)
        analytic = np.concatenate([grads.get(n).ravel() for n in enc_names])
        worst["contrastive"] = max(worst["contrastive"], rel_err(analytic, fd_gradient(model, enc_names, f_con)))

    # stop-gradient contract: finite differences through a live recomputation
    # (pair sides re-derived from the parameters) must deviate from the
    # implementation, while the frozen-pair oracle matches it.
    rng2 = np.random.default_rng(1044)
    model, x = _fd_case(rng2)
    model.classifier_frozen = True
    bank = bank_init(model, rng2.normal(size=(8, 4)))
    fwd0 = forward_batch(model, x)
    pairs = mine_pairs(bank, fwd0.features, np.arange(5), 2, 2)

    fwd = forward_batch(model, x)
    _, d_anchor = loss_contrastive(fwd.features, pairs, bank)
    grads = backward(model, fwd, np.zeros_like(fwd.logits), d_feature=d_anchor)
    analytic = np.concatenate([grads.get(n).ravel() for n in enc_names])
    fd_frozen = fd_gradient(model, enc_names, lambda m: contrastive_frozen_pairs(
        forward_batch(m, x).features, pairs, bank, fwd0.features))
    fd_live = fd_gradient(model, enc_names, lambda m: loss_contrastive(
        forward_batch(m, x).features, pairs, bank)[0])
    stopgrad_ok = rel_err(analytic, fd_frozen) < 1e-4 and rel_err(fd_live, fd_frozen) > 1e-3

    ok = all(v < 1e-4 for v in worst.values()) and stopgrad_ok
    report(
        4, ok,
        "finite-difference gradients (20 instances each): worst rel err "
        + ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
        + f"; stop-gradient contract {'holds' if stopgrad_ok else 'violated'}",
    )


def test_criterion_5_degeneracy_identities():
    rng = np.random.default_rng(1005)
    # rho = 1 reproduces the unsuppressed rule bit-exactly
    feats = l2_normalize_rows(rng.normal(size=(40, 4)))
    probs = rng.dirichlet(np.ones(4), size=40)
    protos = build_all_prototypes(feats, probs, 8, 3, 1.0, Rng(50))
    raw = Prototypes(protos.positives, protos.negatives, np.ones_like(protos.epsilon))
    rho_ok = np.array_equal(
        assign_pseudo_labels(feats, protos).rows,
        assign_pseudo_labels(feats, raw).rows,
    )

    # GLC++ at zero contrastive weight reproduces GLC traces bit-exactly
    spec = preset("opda-toy", seed=77, source_per_class=10, target_per_class=10)
    source, target = generate(spec)
    model = pretrain_source(source, ModelDims(16, 16, 8, 6), AdaptConfig(seed=77, epochs=8, lr=0.02))
    m_glc, t_glc = adapt(model, target, AdaptConfig(seed=77, epochs=3, batch_size=16, variant="glc"))
    m_zero, t_zero = adapt(
        model, target, AdaptConfig(seed=77, epochs=3, batch_size=16, variant="glcpp", con_weight=0.0)
    )
    trace_ok = all(
        (a.total, a.glb, a.loc, a.con, a.ct) == (b.total, b.glb, b.loc, b.con, b.ct)
        for a, b in zip(t_glc.epochs, t_zero.epochs)
    ) and all(
        np.array_equal(getattr(m_glc, n), getattr(m_zero, n))
        for n in ("w1", "b1", "w2", "b2", "wc", "bc")
    )

    # normalized entropy is exactly 0 / 1 at one-hot / uniform
    entropy_ok = True
    for c in range(2, 13):
        one_hot = np.zeros((1, c))
        one_hot[0, c // 2] = 1.0
        entropy_ok &= normalized_entropy_rows(one_hot, c)[0] == 0.0
        entropy_ok &= normalized_entropy_rows(np.full((1, c), 1.0 / c), c)[0] == 1.0

    ok = rho_ok and trace_ok and entropy_ok
    report(
        5, ok,
        f"rho=1 identity {'holds' if rho_ok else 'broken'}; zero-weight GLC++ == GLC "
        f"{'bit-exact' if trace_ok else 'differs'}; entropy endpoints "
        f"{'exact' if entropy_ok else 'inexact'}",
    )


def test_criterion_6_pseudo_label_shape():
    rng = np.random.default_rng(1006)
    violations = 0
    for trial in range(1000):
        n = int(rng.integers(4, 30))
        n_classes = int(rng.integers(2, 6))
        feats = l2_normalize_rows(rng.normal(size=(n, 3)))
        probs = rng.dirichlet(np.ones(n_classes), size=n)
        out = assign_pseudo_labels(
            feats,
            build_all_prototypes(feats, probs, max(1, n // 3), 2, 0.75, Rng(trial)),
        )
        uniform = 1.0 / n_classes
        for i, row in enumerate(out.rows):
            one_hot = np.count_nonzero(row) == 1 and row.max() == 1.0
            is_uniform = np.all(row == uniform)
            if not (one_hot or is_uniform):
                violations += 1
    ok = violations == 0
    report(6, ok, f"pseudo-label rows one-hot or uniform on 1000 instances: {violations} violations")


def test_criterion_7_ct_recovery():
    t0 = time.perf_counter()
    hits = 0
    for seed in range(10):
        rng = np.random.default_rng(2000 + seed)
        centers = np.array(
            [[6.0, 0.0, 0.0, 0.0], [0.0, 6.0, 0.0, 0.0], [0.0, 0.0, 6.0, 0.0]]
        )
        pts = np.concatenate([c + 0.3 * rng.normal(size=(50, 4)) for c in centers])
        est = estimate_ct(pts, 6, Rng(seed))
        hits += est.chosen == 3
    elapsed = time.perf_counter() - t0
    ok = hits >= 9 and elapsed < 10.0
    report(7, ok, f"estimate_ct picked 3 on well-separated 3-cluster data in {hits}/10 seeds, {elapsed:.2f}s")


def load_run_benchmark():
    path = Path(__file__).resolve().parent.parent / "scripts" / "run_benchmark.py"
    spec = importlib.util.spec_from_file_location("run_benchmark", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_criterion_8_end_to_end_opda():
    # The rows of scripts/run_benchmark.py at its defaults (no config file).
    run_one = load_run_benchmark().run_one
    t0 = time.perf_counter()
    improved = {"glc": 0, "glcpp": 0}
    ncd_means = {"glc": [], "glcpp": []}
    for seed in (1, 2, 3, 4, 5):
        rows = {tag: (h, ncd) for _, _, tag, h, _, ncd in run_one("opda-toy", seed, ("glc", "glcpp"))}
        for variant in ("glc", "glcpp"):
            h, ncd = rows[variant]
            improved[variant] += h > rows["source-only"][0]
            ncd_means[variant].append(ncd)
    elapsed = time.perf_counter() - t0
    glc_ncd = float(np.mean(ncd_means["glc"]))
    glcpp_ncd = float(np.mean(ncd_means["glcpp"]))
    ok = (
        improved["glc"] >= 4
        and improved["glcpp"] >= 4
        and glcpp_ncd >= glc_ncd
        and elapsed < 300.0
    )
    report(
        8, ok,
        f"opda-toy 5 seeds: H improved glc {improved['glc']}/5, glcpp {improved['glcpp']}/5; "
        f"mean NCD glcpp {glcpp_ncd:.4f} >= glc {glc_ncd:.4f}; {elapsed:.0f}s",
    )


def test_criterion_9_pipeline_determinism(tmp_path):
    from ufda.cli import main

    cfg = tmp_path / "run.cfg"
    cfg.write_text("source_per_class = 20\ntarget_per_class = 20\nepochs = 3\nbatch_size = 32\n")
    reports = []
    for name in ("a", "b"):
        base = tmp_path / name
        args = ["--config", str(cfg), "--seed", "11"]
        assert main(["gen", "--preset", "opda-toy", *args, "--out", str(base / "data")]) == 0
        assert main(["pretrain", str(base / "data" / "source.ufd"), *args, "--out", str(base / "pre")]) == 0
        assert main([
            "adapt", str(base / "pre" / "model.ufdmodel"), str(base / "data" / "target.ufd"),
            *args, "--out", str(base / "ad"),
        ]) == 0
        assert main([
            "eval", str(base / "ad" / "adapted.ufdmodel"), str(base / "data" / "target.ufd"),
            *args, "--out", str(base / "ev"),
        ]) == 0
        reports.append((base / "ev" / "report.tsv").read_bytes())
    ok = reports[0] == reports[1]
    report(9, ok, "gen->pretrain->adapt->eval with pinned seed: reports byte-identical "
                  f"({len(reports[0])} bytes)")
