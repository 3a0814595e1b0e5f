"""Acceptance suite.

One test per criterion, each asserting its pinned tolerance and printing a
single pass/fail line (run with `pytest -s tests/test_acceptance.py` to see
them).  Oracle-backed criteria run through the same suites that the
`verify` CLI command exposes.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from graphain.classifier import loss_and_grad
from graphain.config import build_experiment_config
from graphain.experiment import run_experiment, run_seed
from graphain.graph import apply_operator, normalized_adjacency
from graphain.linalg import SpectralFilterParams, soft_spectral_filter
from graphain.oracles import apply_centering, orthonormal_projection
from graphain.propagation import (
    PropagationConfig,
    residual_combine,
    run_fuzzy_r_softgraphain,
)
from graphain.synthetic import random_connected_graph
from graphain.verify import (
    eigenvector_limit_distance,
    labelprop_suite,
    oversmooth_suite,
    theorem1_suite,
    theorem2_suite,
    theorem3_suite,
)


def _report(num, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:02d} {name}: PASS{suffix}")


@pytest.fixture(scope="module")
def theorem1_report():
    start = time.perf_counter()
    report = theorem1_suite(num_instances=20, layers=20)
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def labelprop_report():
    return labelprop_suite(num_instances=10, iters=500)


def _check(report, name):
    by_name = {c.name: c for c in report.checks}
    check = by_name[name]
    assert check.passed, f"{name}: {check.value:.3e} > tol {check.tolerance:.1e}"
    return check


def test_criterion_01_theorem1_conformance(theorem1_report):
    report, elapsed = theorem1_report
    for name in (
        "column-sums-zero",
        "columns-orthonormal",
        "centering-invariant",
        "aggregate-matches-dense",
    ):
        _check(report, name)
    assert elapsed < 5.0, f"theorem1 sweep took {elapsed:.2f}s"
    _report(1, "theorem1-conformance", f"{elapsed:.2f}s")


def test_criterion_02_theorem2_pga_equivalence():
    start = time.perf_counter()
    report = theorem2_suite(num_instances=20, steps=10)
    elapsed = time.perf_counter() - start
    _check(report, "trajectory-matches-oracle")
    assert elapsed < 5.0, f"theorem2 sweep took {elapsed:.2f}s"
    _report(2, "theorem2-pga-equivalence", f"{elapsed:.2f}s")


def test_criterion_03_theorem3_residual_equivalence():
    report = theorem3_suite(num_instances=20)
    _check(report, "residual-step-matches-oracle")
    _report(3, "theorem3-residual-equivalence")


def test_criterion_04_eigenvector_limit():
    dist = eigenvector_limit_distance(steps=500)
    assert dist < 1e-6, f"subspace distance {dist:.3e}"
    _report(4, "eigenvector-limit", f"distance {dist:.1e}")


def test_criterion_05_oversmoothing_reproduction():
    report = oversmooth_suite(layers=10_000)
    _check(report, "columns-align-with-degree-vector")
    _check(report, "pairwise-collapse-ratio")
    _report(5, "oversmoothing-reproduction")


def test_criterion_06_constant_diversity(theorem1_report):
    report, _ = theorem1_report
    check = _check(report, "pairwise-sum-2nd")
    _report(6, "constant-diversity", f"max rel dev {check.value:.1e}")


def test_criterion_07_label_prop_closed_form(labelprop_report):
    _check(labelprop_report, "closed-form-matches-iteration")
    _report(7, "label-prop-closed-form")


def test_criterion_08_smoothing_rank1(labelprop_report):
    _check(labelprop_report, "smoothing-rank1-gap")
    _check(labelprop_report, "smoothing-row-stochastic")
    _report(8, "smoothing-rank1-convergence")


def test_criterion_09_gradient_check():
    # the kernel train_linear descends, with and without weight decay
    eps = 1e-5
    worst = 0.0
    for weight_decay in (0.0, 0.5):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            n, d, c = 15, 4, 3
            h = rng.standard_normal((n, d))
            y = rng.dirichlet(np.ones(c), size=n)
            w = rng.standard_normal((d, c))
            _, grad = loss_and_grad(h, y, w, weight_decay)
            num = np.zeros_like(w)
            for i in range(d):
                for j in range(c):
                    wp = w.copy()
                    wp[i, j] += eps
                    wm = w.copy()
                    wm[i, j] -= eps
                    num[i, j] = (
                        loss_and_grad(h, y, wp, weight_decay)[0]
                        - loss_and_grad(h, y, wm, weight_decay)[0]
                    ) / (2 * eps)
            rel = np.abs(grad - num).max() / max(np.abs(num).max(), 1e-12)
            worst = max(worst, rel)
    assert worst < 1e-5, f"max relative gradient error {worst:.3e}"
    _report(9, "gradient-check", f"max rel err {worst:.1e}")


_NOISY_KV = {
    "synthetic.clusters": "3",
    "synthetic.nodes_per_cluster": "100",
    "synthetic.intra_p": "0.3",
    "synthetic.inter_p": "0.02",
    "synthetic.train_frac": "0.1",
    "synthetic.val_frac": "0.2",
    "propagation.alpha": "0.9",
    "propagation.beta": "0.05",
    "propagation.gamma": "0.05",
    "propagation.a": "0.5",
    "propagation.b": "1.0",
    "propagation.d0": "8",
    "propagation.layers": "256",
    "propagation.embedding_dim": "8",
    "noisy_features": "true",
    "train.lr": "0.5",
    "train.epochs": "300",
    "train.weight_decay": "5e-4",
    "seeds": "1,2,3,4,5",
    "deterministic_timing": "true",
}


def test_criterion_10_noisy_features_experiment():
    start = time.perf_counter()
    medians = {}
    # the sgc arm gives none of the mixing and filter keys, which only rsoft reads
    arms = {
        "rsoft": _NOISY_KV,
        "sgc": {k: v for k, v in _NOISY_KV.items()
                if k.split(".")[-1] not in ("alpha", "beta", "gamma", "a", "b", "d0")},
    }
    for variant, kv in arms.items():
        cfg = build_experiment_config({**kv, "propagation.variant": variant})
        accs = []
        for seed in cfg.seeds:
            rows, _, _ = run_seed(replace(cfg, curriculum=None), seed)
            accs.append([r for r in rows if r.split == "test"][-1].accuracy)
        medians[variant] = float(np.median(accs))
    elapsed = time.perf_counter() - start
    assert medians["rsoft"] >= 0.85, f"deep model median {medians['rsoft']:.3f}"
    assert medians["sgc"] <= 0.43, f"plain propagation median {medians['sgc']:.3f}"
    assert elapsed < 60.0, f"noisy-features experiment took {elapsed:.1f}s"
    _report(
        10,
        "noisy-features-experiment",
        f"deep {medians['rsoft']:.3f} vs plain {medians['sgc']:.3f}, {elapsed:.1f}s",
    )


_ABLATION_KV = {
    "synthetic.clusters": "3",
    "synthetic.nodes_per_cluster": "100",
    "synthetic.intra_p": "0.3",
    "synthetic.inter_p": "0.02",
    "synthetic.train_frac": "0.05",
    "synthetic.val_frac": "0.2",
    "propagation.alpha": "0.9",
    "propagation.beta": "0.05",
    "propagation.gamma": "0.05",
    "propagation.a": "0.5",
    "propagation.b": "1.0",
    "propagation.d0": "8",
    "propagation.layers": "64",
    "propagation.embedding_dim": "8",
    "curriculum.n_t": "10",
    "curriculum.pacing_epochs": "50",
    "curriculum.knn_k": "7",
    "curriculum.gamma_prime": "1.0",
    "curriculum.mask_ratio": "0.1",
    "curriculum.aux_mode": "embedding_knn",
    "train.lr": "0.5",
    "train.epochs": "200",
    "train.weight_decay": "5e-4",
    "seeds": "1,2,3,4,5",
    "deterministic_timing": "true",
}


def test_criterion_11_curriculum_ablation_direction():
    cfg = build_experiment_config(_ABLATION_KV)
    with_cl, without_cl = [], []
    for seed in cfg.seeds:
        rows, supervised_rows, _ = run_seed(cfg, seed)
        with_cl.append([r for r in rows if r.split == "val"][-1].accuracy)
        without_cl.append([r for r in supervised_rows if r.split == "val"][-1].accuracy)
    med_with = float(np.median(with_cl))
    med_without = float(np.median(without_cl))
    # direction check with the half-point slack: the curriculum must not
    # lose by more than 0.5 accuracy points on the paired seed set
    assert med_with >= med_without - 0.005, (
        f"curriculum median {med_with:.4f} vs ablated {med_without:.4f}"
    )
    _report(
        11,
        "curriculum-ablation-direction",
        f"with {med_with:.4f} vs without {med_without:.4f}",
    )


def test_criterion_12_reduction_identities():
    g = random_connected_graph(25, 0.25, seed=99, feature_dim=4)
    op = normalized_adjacency(g, "symmetric")

    # soft filter at (a=1, b=1, d0=d) equals the SVD projection, per layer
    hard_cfg = PropagationConfig(
        alpha=1.0, beta=0.0, gamma=0.0,
        filter=SpectralFilterParams(a=1.0, b=1.0, d0=4), layers=10,
    )
    soft_layers = []
    run_fuzzy_r_softgraphain(
        g, hard_cfg, observe=lambda t, layer_h: soft_layers.append(layer_h)
    )
    h = g.features
    for layer_h in soft_layers:
        h = orthonormal_projection(apply_centering(apply_operator(op, h)))
        assert np.abs(layer_h - h).max() <= 1e-9

    # fuzzy decay at p = q = 0 is bit-identical to the vanilla connections,
    # each term scaled by its weight and the aggregate the centred operator's
    cfg = PropagationConfig(
        alpha=0.6, beta=0.3, gamma=0.1,
        filter=SpectralFilterParams(a=0.4, b=0.8, d0=4), layers=8,
        p=0.0, q=0.0,
    )
    fuzzy = run_fuzzy_r_softgraphain(g, cfg)
    centred = normalized_adjacency(g, "symmetric", centered=True)
    h = soft_spectral_filter(apply_operator(centred, g.features), cfg.filter)
    h1 = h
    for _ in range(2, cfg.layers + 1):
        b = residual_combine(h, cfg.beta * h, cfg.gamma * h1, cfg, centred)
        h = soft_spectral_filter(b, cfg.filter)
    assert np.array_equal(fuzzy, h)

    # a = 0 passes the centered aggregate through exactly
    plain = soft_spectral_filter(
        apply_operator(centred, g.features), SpectralFilterParams(a=0.0, b=1.0, d0=4)
    )
    assert np.array_equal(plain, apply_operator(centred, g.features))
    _report(12, "reduction-identities")


def test_criterion_13_determinism(tmp_path):
    kv = {
        "synthetic.clusters": "3",
        "synthetic.nodes_per_cluster": "30",
        "synthetic.intra_p": "0.3",
        "synthetic.inter_p": "0.02",
        "propagation.layers": "16",
        "propagation.embedding_dim": "6",
        "propagation.d0": "6",
        "curriculum.n_t": "3",
        "curriculum.pacing_epochs": "10",
        "train.epochs": "40",
        "seeds": "1,2",
        "deterministic_timing": "true",
    }
    cfg_a = build_experiment_config({**kv, "output_dir": str(tmp_path / "a")})
    run_experiment(cfg_a)
    cfg_b = build_experiment_config({**kv, "output_dir": str(tmp_path / "b")})
    run_experiment(cfg_b)
    res_a = (tmp_path / "a" / "results.csv").read_bytes()
    res_b = (tmp_path / "b" / "results.csv").read_bytes()
    assert res_a == res_b, "results CSVs differ between identical runs"
    diag_a = (tmp_path / "a" / "diagnostics_seed1.csv").read_bytes()
    diag_b = (tmp_path / "b" / "diagnostics_seed1.csv").read_bytes()
    assert diag_a == diag_b, "diagnostics CSVs differ between identical runs"
    _report(13, "determinism", "byte-identical CSVs")
