import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from graphain.config import (
    build_experiment_config,
    config_hash,
    load_config,
    parse_config_text,
    render_config,
)
from graphain.curriculum import AUX_MODES
from graphain.errors import (
    ConfigError,
    GraphainError,
    IndexOutOfRangeError,
    MissingMaskError,
    NonFiniteLossError,
    ParseError,
)
from graphain.experiment import run_experiment, run_seed, rows_to_csv
from graphain.io import load_dataset, save_dataset
import graphain.config as config
import graphain.experiment as experiment
from graphain import graph, io
from graphain.graph import build_graph
from graphain.propagation import VARIANTS
from graphain.synthetic import (
    SyntheticSpec,
    add_feature_noise,
    gen_gaussian_cluster_graph,
    split_masks,
    with_masks,
)


def _spec(**kw):
    defaults = dict(
        clusters=3, nodes_per_cluster=40, intra_p=0.3, inter_p=0.02, seed=5
    )
    defaults.update(kw)
    return SyntheticSpec(**defaults)


def _edge_homophily(g):
    same = g.labels[g.edges[:, 0]] == g.labels[g.edges[:, 1]]
    return float(same.mean())


def _block_counts(g, clusters):
    """Edge counts of each cluster pair a <= b, in row-major order."""
    a, b = g.labels[g.edges[:, 0]], g.labels[g.edges[:, 1]]
    counts = np.bincount(a * clusters + b, minlength=clusters * clusters)
    return counts.reshape(clusters, clusters)[np.triu_indices(clusters)]


class TestSynthetic:
    @pytest.mark.parametrize("probs", [(1.0, 0.0), (0.3, 0.02)], ids=["full", "sparse"])
    @pytest.mark.parametrize(
        "clusters, per_cluster", [(2, 3), (2, 10), (2, 32), (3, 21), (5, 13), (3, 40)]
    )
    def test_edges_are_canonical_and_split_by_label(self, probs, clusters, per_cluster):
        a, b = np.triu_indices(clusters)
        complete = np.where(a == b, per_cluster * (per_cluster - 1) // 2, 0)
        for seed in (0, 1, 2):
            spec = _spec(
                clusters=clusters,
                nodes_per_cluster=per_cluster,
                intra_p=probs[0],
                inter_p=probs[1],
                seed=seed,
            )
            g = gen_gaussian_cluster_graph(spec)
            edges = g.edges
            assert edges.dtype == np.int64 and edges.shape[1] == 2
            assert edges.min(initial=0) >= 0 and edges.max(initial=0) < g.n
            assert (edges[:, 0] < edges[:, 1]).all()
            # lo * n + hi strictly increasing: sorted by rows and unique
            assert (np.diff(edges[:, 0] * g.n + edges[:, 1]) > 0).all()
            counts = _block_counts(g, clusters)
            assert counts.sum() == g.num_edges
            if probs == (1.0, 0.0):
                assert counts.tolist() == complete.tolist()

    def test_block_edge_counts_are_binomial(self):
        # z of each cluster pair's edge count against Binomial(pairs, p), over
        # seeds 0-199.  On the held-out seeds 1000-2999, taken as ten lists of
        # 200, the largest |z| read 3.0-4.6, sqrt(200) times each pair's mean
        # z -2.7 to 3.7, and each pair's variance of z 0.79-1.19.
        spec = _spec()
        s = spec.nodes_per_cluster
        a, b = np.triu_indices(spec.clusters)
        pairs = np.where(a == b, s * (s - 1) // 2, s * s)
        p = np.where(a == b, spec.intra_p, spec.inter_p)
        z = np.array([
            (_block_counts(gen_gaussian_cluster_graph(replace(spec, seed=seed)),
                           spec.clusters) - pairs * p)
            / np.sqrt(pairs * p * (1 - p))
            for seed in range(200)
        ])
        assert np.abs(z).max() < 5.5
        assert (np.abs(z.mean(axis=0)) * np.sqrt(len(z)) < 4.5).all()
        variance = z.var(axis=0, ddof=1)
        assert ((0.7 < variance) & (variance < 1.35)).all()

    @staticmethod
    def _peak(spec):
        tracemalloc.start()
        try:
            gen_gaussian_cluster_graph(spec)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_wide_generation_peak_memory(self):
        # Peaks of 1.0 MB at 3 x 1000 and 0.03 MB at 3 x 100: the edges and
        # the features, never the n x n pair matrix (72 MB at 3 x 1000).
        for per_cluster, bound in ((1000, 4e6), (100, 0.4e6)):
            spec = _spec(
                nodes_per_cluster=per_cluster, intra_p=0.01, inter_p=0.0005, seed=0
            )
            assert self._peak(spec) < bound, per_cluster

    def test_peak_memory_is_linear_at_a_hundred_thousand_nodes(self):
        # wide's expected degree (intra 10, inter 1) at 3 x 33,333 nodes:
        # about 550,000 edges of 16 bytes, and 34 MB peak for the edges,
        # their sort codes and the features.  One row of the n x n pair
        # matrix is 0.8 MB of floats; the whole of it would be 80 GB.
        s = 33_333
        assert self._peak(_spec(nodes_per_cluster=s, intra_p=10 / s, inter_p=0.5 / s)) < 50e6

    def test_deterministic_per_seed(self):
        a = gen_gaussian_cluster_graph(_spec())
        b = gen_gaussian_cluster_graph(_spec())
        assert np.array_equal(a.edges, b.edges)
        assert np.array_equal(a.features, b.features)

    def test_different_seed_differs(self):
        a = gen_gaussian_cluster_graph(_spec(seed=1))
        b = gen_gaussian_cluster_graph(_spec(seed=2))
        assert not np.array_equal(a.features, b.features)

    def test_no_cross_edges_when_inter_zero(self):
        g = gen_gaussian_cluster_graph(_spec(inter_p=0.0))
        assert _edge_homophily(g) == 1.0

    def test_homophily_exceeds_point_eight(self):
        vals = [
            _edge_homophily(gen_gaussian_cluster_graph(_spec(nodes_per_cluster=100, seed=s)))
            for s in range(5)
        ]
        assert np.median(vals) > 0.8

    def test_cluster_sizes_exact(self):
        g = gen_gaussian_cluster_graph(_spec())
        counts = np.bincount(g.labels)
        assert counts.tolist() == [40, 40, 40]

    def test_invalid_probabilities(self):
        with pytest.raises(ValueError):
            _spec(intra_p=0.1, inter_p=0.2)

    @pytest.mark.parametrize("field", ["center_spread", "feature_sigma"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_geometry_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite, got {value}$"):
            _spec(**{field: value})


class TestFeatureNoise:
    def test_structure_and_labels_untouched(self):
        g = gen_gaussian_cluster_graph(_spec())
        noisy = add_feature_noise(g, seed=0)
        assert np.array_equal(noisy.edges, g.edges)
        assert np.array_equal(noisy.labels, g.labels)
        assert not np.array_equal(noisy.features, g.features)

    def test_noise_is_standard_normal_scale(self):
        g = gen_gaussian_cluster_graph(
            _spec(nodes_per_cluster=1200, centers_dim=4, intra_p=0.01, inter_p=0.0)
        )
        noisy = add_feature_noise(g, seed=1)
        assert noisy.features.size >= 10_000
        assert abs(noisy.features.mean()) < 0.05
        assert abs(noisy.features.std() - 1.0) < 0.05

    def test_seeds_differ(self):
        g = gen_gaussian_cluster_graph(_spec())
        a = add_feature_noise(g, seed=1)
        b = add_feature_noise(g, seed=2)
        assert not np.array_equal(a.features, b.features)
        assert np.array_equal(a.edges, b.edges)


class TestSplitMasks:
    def test_stratified_counts(self):
        labels = np.repeat([0, 1, 2], 40)
        train, val, test = split_masks(labels, 0.1, 0.2, seed=0)
        assert train.size == 12 and val.size == 24 and test.size == 84
        for cls in range(3):
            assert (labels[train] == cls).sum() == 4

    def test_disjoint_and_deterministic(self):
        labels = np.repeat([0, 1], 30)
        a = split_masks(labels, 0.2, 0.3, seed=7)
        b = split_masks(labels, 0.2, 0.3, seed=7)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)
        assert np.intersect1d(a[0], a[1]).size == 0

    def test_matches_list_reference(self, rng):
        def reference(labels, train_frac, val_frac, seed):
            local = np.random.default_rng(seed)
            train, val, test = [], [], []
            for cls in np.unique(labels[labels >= 0]):
                idx = np.flatnonzero(labels == cls)
                idx = idx[local.permutation(idx.size)]
                n_tr = int(round(train_frac * idx.size))
                n_val = int(round(val_frac * idx.size))
                train.extend(idx[:n_tr])
                val.extend(idx[n_tr : n_tr + n_val])
                test.extend(idx[n_tr + n_val :])
            return [np.sort(np.array(part, dtype=np.int64)) for part in (train, val, test)]

        for seed in range(40):
            labels = rng.integers(-1, 4, size=int(rng.integers(0, 60)))
            fracs = (0.5, 0.5) if seed % 4 == 0 else (0.1, 0.2)  # 0.5 rounds to even
            got = split_masks(labels, *fracs, seed=seed)
            for x, y in zip(got, reference(labels, *fracs, seed)):
                assert x.dtype == y.dtype == np.int64
                assert np.array_equal(x, y)

    @pytest.mark.parametrize("field", ["train_frac", "val_frac"])
    def test_nan_fraction_is_named(self, field):
        fracs = {"train_frac": 0.1, "val_frac": 0.2, field: float("nan")}
        message = f"^{field} must be finite, got nan$"
        with pytest.raises(ValueError, match=message):
            split_masks(np.repeat([0, 1], 10), seed=0, **fracs)
        g = gen_gaussian_cluster_graph(_spec(nodes_per_cluster=10))
        with pytest.raises(ValueError, match=message):
            with_masks(g, seed=0, **fracs)

    def test_all_unlabeled_gives_empty_int64_masks(self):
        for labels in (np.full(7, -1), np.empty(0, dtype=np.int64)):
            masks = split_masks(labels, 0.1, 0.2, seed=0)
            assert [(m.dtype, m.shape) for m in masks] == [(np.int64, (0,))] * 3


class TestDatasetIo:
    def test_round_trip(self, tmp_path):
        g = gen_gaussian_cluster_graph(_spec(nodes_per_cluster=10))
        g = with_masks(g, 0.2, 0.2, seed=0)
        save_dataset(g, tmp_path)
        loaded = load_dataset(tmp_path, require_masks=True)
        assert loaded.n == g.n
        assert np.array_equal(loaded.edges, g.edges)
        assert np.array_equal(loaded.features, g.features)
        assert np.array_equal(loaded.labels, g.labels)
        assert np.array_equal(loaded.train_mask, g.train_mask)

    def test_malformed_edge_line(self, tmp_path):
        (tmp_path / "features.csv").write_text("0.0\n0.0\n")
        (tmp_path / "edges.tsv").write_text("0\t1\na b c\n")
        with pytest.raises(ParseError) as err:
            load_dataset(tmp_path)
        assert err.value.line_no == 2

    @pytest.mark.parametrize("bad", ["nan", "inf", "-Infinity"])
    def test_non_finite_feature_names_line_and_column(self, tmp_path, bad):
        (tmp_path / "features.csv").write_text(f"# header\n0.0,1.0\n\n2.0,{bad}\n")
        (tmp_path / "edges.tsv").write_text("0\t1\n")
        with pytest.raises(ParseError, match="column 2") as err:
            load_dataset(tmp_path)
        assert err.value.line_no == 4
        assert err.value.path == str(tmp_path / "features.csv")

    @pytest.mark.parametrize(
        "name, content",
        [
            ("edges.tsv", "0\t1\n0\t99999999999999999999999\n"),
            ("edges.tsv", "0\t1\n2\t0\n"),
            ("edges.tsv", "0\t1\n-1\t0\n"),
            ("labels.csv", "node,label\n0,99999999999999999999999\n"),
            ("labels.csv", "node,label\n0,-2\n"),
            ("labels.csv", "0,1\n0,0\n"),
            ("masks.csv", "0,train\n0,test\n"),
        ],
        ids=[
            "edge_beyond_int64",
            "edge_past_n",
            "edge_negative",
            "label_beyond_int64",
            "label_below_minus_one",
            "label_node_twice",
            "mask_node_twice",
        ],
    )
    def test_bad_index_names_file_and_line(self, tmp_path, name, content):
        (tmp_path / "features.csv").write_text("0.0\n0.0\n")
        (tmp_path / "edges.tsv").write_text("0\t1\n")
        (tmp_path / name).write_text(content)
        with pytest.raises(ParseError) as err:
            load_dataset(tmp_path)
        assert err.value.path == str(tmp_path / name)
        assert err.value.line_no == 2

    def test_non_utf8_file_names_line(self, tmp_path):
        (tmp_path / "features.csv").write_bytes(b"0.0\n0.0\n\xff\n")
        (tmp_path / "edges.tsv").write_text("0\t1\n")
        with pytest.raises(ParseError, match="not UTF-8") as err:
            load_dataset(tmp_path)
        assert err.value.line_no == 3

    def test_label_out_of_range(self, tmp_path):
        (tmp_path / "features.csv").write_text("0.0\n0.0\n")
        (tmp_path / "edges.tsv").write_text("0\t1\n")
        (tmp_path / "labels.csv").write_text("node,label\n5,1\n")
        with pytest.raises(IndexOutOfRangeError):
            load_dataset(tmp_path)

    def test_missing_masks(self, tmp_path):
        (tmp_path / "features.csv").write_text("0.0\n0.0\n")
        (tmp_path / "edges.tsv").write_text("0\t1\n")
        with pytest.raises(MissingMaskError):
            load_dataset(tmp_path, require_masks=True)
        g = load_dataset(tmp_path)  # fine without the requirement
        assert g.train_mask.size == 0

    @pytest.mark.parametrize("prefix", ["# written by hand\n", "\n"], ids=["comment", "blank"])
    @pytest.mark.parametrize(
        "name, content",
        [("labels.csv", "node,label\n0,1\n1,0\n"), ("masks.csv", "node,split\n0,train\n1,test\n")],
        ids=["labels", "masks"],
    )
    def test_header_after_comment_or_blank_line(self, tmp_path, prefix, name, content):
        (tmp_path / "features.csv").write_text("0.0\n0.0\n")
        (tmp_path / "edges.tsv").write_text("0\t1\n")
        (tmp_path / name).write_text(prefix + content)
        g = load_dataset(tmp_path)
        if name == "labels.csv":
            assert g.labels.tolist() == [1, 0]
        else:
            assert g.train_mask.tolist() == [0] and g.test_mask.tolist() == [1]

    def test_comments_and_blank_lines(self, tmp_path):
        (tmp_path / "features.csv").write_text("0.0\n0.0\n0.0\n")
        (tmp_path / "edges.tsv").write_text("# comment\n\n0\t1\n1\t2 # trailing\n")
        g = load_dataset(tmp_path)
        assert g.num_edges == 2


BASE_KV = {
    "synthetic.clusters": "3",
    "synthetic.nodes_per_cluster": "25",
    "synthetic.intra_p": "0.3",
    "synthetic.inter_p": "0.02",
    "propagation.layers": "8",
    "propagation.embedding_dim": "5",
    "propagation.d0": "5",
    "curriculum.n_t": "2",
    "curriculum.pacing_epochs": "5",
    "train.epochs": "25",
    "seeds": "1",
    "deterministic_timing": "true",
}


def _dataset_config(directory):
    """A BASE_KV run on a fixed saved cluster graph written to ``directory``."""
    g = gen_gaussian_cluster_graph(_spec(nodes_per_cluster=10))
    save_dataset(with_masks(g, 0.2, 0.2, seed=0), directory)
    kv = {k: v for k, v in BASE_KV.items() if not k.startswith("synthetic.")}
    return build_experiment_config({**kv, "dataset.path": str(directory)})


class TestConfig:
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_gamma_prime_rejected(self, value):
        cur = build_experiment_config({}).curriculum
        with pytest.raises(ConfigError, match=f"^gamma_prime must be finite, got {value}$"):
            replace(cur, gamma_prime=value)

    def test_unknown_key_is_hard_error(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("propagation.alhpa = 0.5\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("seeds = 1\nseeds = 2\n")

    @pytest.mark.parametrize(
        "key, value", [("seeds", "-1"), ("seeds", "3,-2"), ("synthetic.seed", "-1")]
    )
    def test_negative_seed_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"key '{key}': expected a non-negative"):
            build_experiment_config({**BASE_KV, key: value})

    def test_repeated_seed_rejected(self):
        with pytest.raises(ConfigError, match="^<config>: seed 3 is listed twice$"):
            build_experiment_config({**BASE_KV, "seeds": "3,1,3"})
        cfg = build_experiment_config(dict(BASE_KV))
        with pytest.raises(ConfigError, match="^seed 2 is listed twice$"):
            replace(cfg, seeds=(2, 2))

    def test_echo_closure(self):
        cfg = build_experiment_config(dict(BASE_KV))
        echoed = build_experiment_config(parse_config_text(render_config(cfg)))
        assert render_config(echoed) == render_config(cfg)
        assert config_hash(echoed) == config_hash(cfg)

    def test_echo_closure_for_dataset_configs(self, tmp_path):
        kv = {k: v for k, v in BASE_KV.items() if not k.startswith("synthetic.")}
        cfg = build_experiment_config({**kv, "dataset.path": str(tmp_path)})
        echoed = build_experiment_config(parse_config_text(render_config(cfg)))
        assert render_config(echoed) == render_config(cfg)

    def test_hash_ignores_run_manifest(self):
        a = build_experiment_config(dict(BASE_KV))
        b = build_experiment_config({**BASE_KV, "seeds": "1,2,3", "output_dir": "x"})
        assert config_hash(a) == config_hash(b)

    def test_hash_ignores_synthetic_seed(self):
        # a run draws each graph from its run seed, never from synthetic.seed
        a = build_experiment_config({**BASE_KV, "synthetic.seed": "0"})
        b = build_experiment_config({**BASE_KV, "synthetic.seed": "9"})
        assert config_hash(a) == config_hash(b)

    def test_dataset_hash_follows_bytes_not_path(self, tmp_path):
        a, b = (_dataset_config(tmp_path / name) for name in ("a", "b"))
        assert config_hash(a) == config_hash(b)

    def test_dataset_hash_tracks_an_edited_byte(self, tmp_path):
        cfg = _dataset_config(tmp_path / "data")
        before = config_hash(cfg)
        features = tmp_path / "data" / "features.csv"
        data = bytearray(features.read_bytes())
        first_digit = next(i for i, c in enumerate(data) if chr(c).isdigit())
        data[first_digit] = ord("1") if data[first_digit] != ord("1") else ord("2")
        features.write_bytes(bytes(data))
        assert config_hash(cfg) != before

    def test_unreadable_dataset_file_fails_hash_with_its_path(self, tmp_path):
        cfg = _dataset_config(tmp_path / "data")
        (tmp_path / "data" / "masks.csv").unlink()
        (tmp_path / "data" / "masks.csv").mkdir()
        with pytest.raises(ParseError, match=r"stage dataset.*masks\.csv:0: cannot read"):
            run_seed(cfg, 1)

    @pytest.mark.parametrize(
        "line",
        [
            "train.seed = 13",
            "propagation.parametric = true",
            "train.lr_decay_epoch = 60",
            "curriculum.reset_on_finetune = true",
            "propagation.eps_rank = 1e-10",
        ],
    )
    def test_removed_keys_are_unknown(self, tmp_path, line):
        path = tmp_path / "old.txt"
        path.write_text(f"seeds = 1\n{line}\n")
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}:2: unknown key"):
            load_config(path)

    @pytest.mark.parametrize("variant", ["sgc", "pairnorm"])
    def test_relu_outside_rsoft_names_both_keys(self, variant):
        with pytest.raises(
            ConfigError,
            match=f"propagation.activation = relu .*propagation.variant = rsoft, not {variant}",
        ):
            build_experiment_config(
                {**BASE_KV, "propagation.activation": "relu", "propagation.variant": variant}
            )

    def test_relu_with_rsoft_builds(self):
        cfg = build_experiment_config({**BASE_KV, "propagation.activation": "relu"})
        assert cfg.propagation.activation == "relu" and cfg.variant == "rsoft"

    def test_hash_tracks_science_keys(self):
        a = build_experiment_config(dict(BASE_KV))
        b = build_experiment_config({**BASE_KV, "propagation.layers": "9"})
        assert config_hash(a) != config_hash(b)

    def test_dataset_conflicts_with_synthetic(self):
        with pytest.raises(ConfigError):
            build_experiment_config({**BASE_KV, "dataset.path": "somewhere"})

    def test_noisy_features_forces_input_graph_aux(self):
        cfg = build_experiment_config(
            {**BASE_KV, "noisy_features": "true", "curriculum.aux_mode": "embedding_knn"}
        )
        assert cfg.curriculum.aux_mode == "input_graph"

    @pytest.mark.parametrize("content", [None, b"\xfe\xff"], ids=["missing", "not_utf8"])
    def test_unreadable_config_names_path(self, tmp_path, content):
        path = tmp_path / "cfg.txt"
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: cannot read"):
            load_config(path)

    def test_load_config_from_file(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("\n".join(f"{k} = {v}" for k, v in BASE_KV.items()) + "\n")
        cfg = load_config(path)
        assert cfg.propagation.layers == 8


class TestRunExperiment:
    def test_seed_rows_are_isolated(self, tmp_path):
        cfg2 = build_experiment_config(
            {**BASE_KV, "seeds": "1,2", "output_dir": str(tmp_path / "two")}
        )
        rows2 = run_experiment(cfg2, write_files=False)
        cfg1 = build_experiment_config(
            {**BASE_KV, "seeds": "1", "output_dir": str(tmp_path / "one")}
        )
        rows1 = run_experiment(cfg1, write_files=False)
        two_csv = [r for r in rows_to_csv(rows2).splitlines()[1:] if r.startswith("1,")]
        one_csv = rows_to_csv(rows1).splitlines()[1:]
        assert two_csv == one_csv
        seeds_seen = {r.seed for r in rows2}
        assert seeds_seen == {1, 2}

    def test_degenerate_schedule_reduces_to_supervised(self):
        cfg = build_experiment_config(
            {**BASE_KV, "curriculum.n_t": "0", "curriculum.pacing_epochs": "0"}
        )
        rows_cl, rows_sup, _ = run_seed(cfg, 1)
        final_cl = [r for r in rows_cl if r.split == "test"][-1]
        final_sup = [r for r in rows_sup if r.split == "test"][-1]
        assert (final_cl.accuracy, final_cl.loss) == (final_sup.accuracy, final_sup.loss)

    def test_supervised_rows_equal_a_supervised_run(self):
        cfg = build_experiment_config(dict(BASE_KV))
        rows, supervised_rows, _ = run_seed(cfg, 1)
        alone, same, snapshots = run_seed(cfg, 1, with_curriculum=False)
        assert supervised_rows == alone and same == alone and snapshots is None
        assert [r.split for r in alone] == ["train", "val", "test"]
        assert rows != supervised_rows

    @pytest.mark.parametrize("with_curriculum", [True, False], ids=["curriculum", "supervised"])
    def test_train_linear_runs_once_per_task(self, monkeypatch, with_curriculum):
        import graphain.curriculum as curriculum

        calls = []
        real = curriculum.train_linear

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(curriculum, "train_linear", counting)
        cfg = build_experiment_config(dict(BASE_KV))
        run_seed(cfg, 1, with_curriculum=with_curriculum)
        # the teacher, then n_t + 1 pacing tasks and the fine-tune
        assert len(calls) == (cfg.curriculum.n_t + 3 if with_curriculum else 1)

    def test_output_files_written(self, tmp_path):
        cfg = build_experiment_config({**BASE_KV, "output_dir": str(tmp_path / "out")})
        run_experiment(cfg)
        out = tmp_path / "out"
        assert (out / "results.csv").exists()
        assert (out / "config_echo.txt").exists()
        assert (out / "diagnostics_seed1.csv").exists()
        header = (out / "results.csv").read_text().splitlines()[0]
        assert header == "seed,config_hash,task,split,accuracy,loss,wall_ms"

    def test_default_seed_scores_each_head_once(self, monkeypatch):
        # 1150 epochs: 300 teacher, 11 x 50 curriculum, 300 fine-tune, each a
        # folded step that computes no loss; each of the 13 heads is scored
        # from one softmax, with no scoring gradient.
        import graphain.classifier as classifier
        import graphain.curriculum as curriculum
        import graphain.diagnostics as diagnostics

        epochs = []
        real_train = curriculum.train_linear

        def counting_train(h, labels, cfg, warm_start=None):
            epochs.append(cfg.epochs)
            return real_train(h, labels, cfg, warm_start=warm_start)

        monkeypatch.setattr(curriculum, "train_linear", counting_train)
        calls = {"_gradient": 0, "loss_and_grad": 0, "softmax_with_log": 0}
        for name in calls:
            real = getattr(classifier, name)

            def counting(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            for module in (classifier, curriculum, diagnostics, experiment):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counting)
        rows, _, _ = run_seed(build_experiment_config({}), 0)
        assert sum(epochs) == 1150
        assert calls == {"_gradient": 0, "loss_and_grad": 0, "softmax_with_log": 13}
        assert [r.split for r in rows].count("test") == 1

    def test_write_mode_filters_each_layer_once(self, tmp_path, monkeypatch):
        import graphain.propagation as propagation

        calls = []
        real = propagation.soft_spectral_filter

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(propagation, "soft_spectral_filter", counting)
        cfg = build_experiment_config(
            {**BASE_KV, "seeds": "1,2", "output_dir": str(tmp_path / "out")}
        )
        run_experiment(cfg, write_files=True)
        assert len(calls) == 2 * cfg.propagation.layers
        assert (tmp_path / "out" / "diagnostics_seed2.csv").exists()

    def test_non_finite_dataset_fails_at_boundary(self, tmp_path):
        data = tmp_path / "data"
        g = gen_gaussian_cluster_graph(_spec(nodes_per_cluster=10))
        save_dataset(with_masks(g, 0.2, 0.2, seed=0), data)
        lines = (data / "features.csv").read_text().splitlines()
        lines[4] = "nan," + lines[4].split(",", 1)[1]
        (data / "features.csv").write_text("\n".join(lines) + "\n")
        kv = {k: v for k, v in BASE_KV.items() if not k.startswith("synthetic.")}
        cfg = build_experiment_config(
            {**kv, "dataset.path": str(data), "output_dir": str(tmp_path / "out")}
        )
        with pytest.raises(ParseError, match=r"stage dataset.*features\.csv:5: column 1") as err:
            run_experiment(cfg)
        assert err.value.line_no == 5

    def test_dataset_read_and_hashed_once_per_run(self, tmp_path, monkeypatch):
        cfg = replace(_dataset_config(tmp_path / "data"), seeds=(1, 2, 3))
        per_seed = [row for seed in cfg.seeds for row in run_seed(cfg, seed)[0]]
        loads, digests = [], []

        def counted(calls, fn):
            def wrapper(*args, **kwargs):
                calls.append(args)
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(experiment, "load_dataset", counted(loads, experiment.load_dataset))
        # every module that can hash the files, io itself (load_dataset) included
        for module in (config, experiment, io):
            monkeypatch.setattr(module, "dataset_digest", counted(digests, module.dataset_digest))
        rows = run_experiment(cfg, write_files=False)
        assert (len(loads), len(digests)) == (1, 1)
        assert rows_to_csv(rows) == rows_to_csv(per_seed)

    def test_each_dataset_file_read_once_per_run(self, tmp_path, monkeypatch):
        from pathlib import Path

        cfg = replace(_dataset_config(tmp_path / "data"), seeds=(1, 2))
        reads = []
        real = Path.read_bytes

        def counting(path):
            reads.append(path.name)
            return real(path)

        monkeypatch.setattr(Path, "read_bytes", counting)
        run_experiment(cfg, write_files=False)
        assert sorted(reads) == ["edges.tsv", "features.csv", "labels.csv", "masks.csv"]

    def test_cold_and_warm_runs_write_the_same_bytes(self, tmp_path, monkeypatch):
        # the first run parses the files and keeps their Graph; the second
        # gets it and parses no text
        cfg = replace(_dataset_config(tmp_path / "data"), seeds=(1, 2),
                      output_dir=str(tmp_path / "out"))
        parses = []
        real = np.loadtxt

        def counting(*args, **kwargs):
            parses.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(io.np, "loadtxt", counting)
        runs = []
        for _ in range(2):
            parses.clear()
            run_experiment(cfg)
            out = tmp_path / "out"
            runs.append((len(parses), {p.name: p.read_bytes() for p in sorted(out.iterdir())}))
            assert list(io._LOADED) == [io.dataset_digest(tmp_path / "data")]
        (cold_parses, cold), (warm_parses, warm) = runs
        assert (cold_parses, warm_parses) == (4, 0)
        assert {"results.csv", "config_echo.txt", "diagnostics_seed1.csv"} <= set(cold)
        assert warm == cold

        # an edited file is other bytes, parsed again: it fails at its line
        lines = (tmp_path / "data" / "features.csv").read_text().splitlines()
        lines[4] = "nan," + lines[4].split(",", 1)[1]
        (tmp_path / "data" / "features.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=r"stage dataset.*features\.csv:5: column 1") as err:
            run_experiment(cfg)
        assert err.value.line_no == 5

    def test_stage_labels_on_errors(self, tmp_path):
        kv = {k: v for k, v in BASE_KV.items() if not k.startswith("synthetic.")}
        bad = build_experiment_config({**kv, "dataset.path": str(tmp_path / "missing")})
        with pytest.raises(ParseError, match="stage dataset"):
            run_seed(bad, 1)

    @pytest.mark.parametrize("with_curriculum", [True, False], ids=["curriculum", "supervised"])
    def test_diverging_fit_names_teacher_stage(self, with_curriculum):
        cfg = build_experiment_config({**BASE_KV, "train.lr": "1e300"})
        with np.errstate(all="ignore"), pytest.raises(
            NonFiniteLossError, match=r"^\[stage teacher\] loss diverged at epoch 1$"
        ):
            run_experiment(cfg, with_curriculum=with_curriculum, write_files=False)


_RUN_CHILD = """\
import json, sys
from graphain.config import build_experiment_config
from graphain.experiment import run_experiment
run_experiment(build_experiment_config(json.loads(sys.argv[1])), export_snapshots=True)
"""
THREAD_RUNS = {
    # the largest n the dense product takes, 3 x 128 nodes
    "dense": {"synthetic.clusters": "3",
              "synthetic.nodes_per_cluster": str(graph._DENSE_MAX_N // 3),
              "propagation.layers": "64", "propagation.p": "0.5", "propagation.q": "0.5"},
    # n = 600, past the cap: the CSR kernel
    "csr": {"synthetic.clusters": "3", "synthetic.nodes_per_cluster": "200",
            "synthetic.intra_p": "0.05", "synthetic.inter_p": "0.005",
            "propagation.layers": "32"},
}


@pytest.mark.parametrize("side", list(THREAD_RUNS))
def test_run_files_are_the_same_bytes_at_one_and_two_blas_threads(tmp_path, side):
    # every file a run writes, snapshots included, from a whole run in a
    # fresh process at OPENBLAS_NUM_THREADS 1 and 2
    raw = {**THREAD_RUNS[side], "seeds": "0,1", "deterministic_timing": "true",
           "output_dir": "run"}
    cfg = build_experiment_config(raw)
    for seed in cfg.seeds:
        g = experiment.prepare_graph(cfg, seed, None)
        op = graph.normalized_adjacency(g)
        assert (op.dense is not None) == (side == "dense"), (g.n, op.matrix.nnz)
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    files = []
    for threads in ("1", "2"):
        cwd = tmp_path / threads
        cwd.mkdir()
        proc = subprocess.run(
            [sys.executable, "-c", _RUN_CHILD, json.dumps(raw)],
            env={**env, "OPENBLAS_NUM_THREADS": threads},
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        run = cwd / "run"
        files.append({p.relative_to(run).as_posix(): p.read_bytes()
                      for p in sorted(run.rglob("*")) if p.is_file()})
    assert {"results.csv", "diagnostics_seed0.csv", "diagnostics_seed1.csv",
            "config_echo.txt"} <= set(files[0])
    assert files[0] == files[1]


STAGE_LABEL = re.compile(r"^\[stage (dataset|propagation|teacher|label-estimation|entropy-filter"
                         r"|aux-graph|label-smoothing|curriculum|evaluation)\] ")


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_run_seed_returns_or_names_its_stage(data):
    # Tiny graphs (every one kept dense by the operator) at feature scales
    # from 0 to 1e300, any variant and aux mode, k up to past n, labels of
    # one class or several and splits that may be empty, with warnings as
    # errors: a seed returns its rows or raises a GraphainError whose
    # message opens with its stage.  ``event`` counts the outcomes, shown by
    # ``pytest --hypothesis-show-statistics``.
    draw = data.draw
    n = draw(st.integers(1, 14), label="n")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    width = draw(st.integers(1, 4), label="feature width")
    scale = draw(st.sampled_from([0.0, 1e-300, 1e-150, 1.0, 1e150, 1e300]), label="scale")
    edges = rng.integers(0, n, size=(draw(st.integers(0, 3 * n), label="edges"), 2))
    # one class, an unlabeled share and an empty train split each stop a
    # seed at the dataset stage, so they are drawn less often
    classes = draw(st.sampled_from([1, 2, 2, 3, 3, 3]), label="classes")
    labels = rng.permutation(np.arange(n) % classes)
    labels[rng.random(n) < draw(st.sampled_from([0.0, 0.0, 0.3]), label="unlabeled")] = -1
    split = rng.choice(4, size=n, p=draw(st.sampled_from([(1, 0, 0, 0), (0.5, 0.5, 0, 0),
                                                           (0.4, 0.2, 0.2, 0.2)]),
                                         label="split shares"))
    masks = [np.flatnonzero((split == part) & ((labels >= 0) | (part > 0)))
             for part in range(3)]
    g = build_graph(edges, n, rng.standard_normal((n, width)) * scale, labels, masks)
    variant = draw(st.sampled_from(VARIANTS), label="variant")
    d = draw(st.integers(1, 4), label="embedding_dim")
    raw = {
        "dataset.path": "unused",
        "propagation.variant": variant,
        "propagation.embedding_dim": str(d),
        "propagation.d0": str(draw(st.integers(1, d), label="d0")),
        "propagation.layers": str(draw(st.integers(1, 4), label="layers")),
        "propagation.a": draw(st.sampled_from(["0", "0.5", "1"]), label="a"),
        "propagation.p": draw(st.sampled_from(["0", "0.5"]), label="p"),
        "propagation.q": draw(st.sampled_from(["0", "0.5"]), label="q"),
        "propagation.operator_mode": draw(st.sampled_from(graph.OPERATOR_MODES), label="mode"),
        "curriculum.aux_mode": draw(st.sampled_from(AUX_MODES), label="aux"),
        "curriculum.knn_k": str(draw(st.integers(1, n + 2), label="k")),
        "curriculum.n_t": str(draw(st.integers(0, 2), label="n_t")),
        "curriculum.mask_ratio": draw(st.sampled_from(["0", "0.5", "1"]), label="mask_ratio"),
        "curriculum.pacing_epochs": "3",
        "train.epochs": "5",
    }
    cfg = build_experiment_config(raw)
    assert graph.normalized_adjacency(g).dense is not None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # a k of n or more is clamped to n - 1 with this warning, by design
        warnings.filterwarnings("ignore", r"k=\d+ >= n=\d+; clamping", UserWarning)
        try:
            rows, _, _ = run_seed(cfg, 0, inputs=("fuzz", g))
        except GraphainError as err:
            label = STAGE_LABEL.match(str(err))
            assert label, f"{type(err).__name__} names no stage: {err}"
            event(f"raised at {label.group(1)}: {type(err).__name__}")
            return
    assert rows
    event("returned")
