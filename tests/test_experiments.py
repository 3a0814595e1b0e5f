import gc
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from collections import Counter
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import replace
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphain.classifier import make_reducer
from graphain.config import (
    build_experiment_config,
    config_hash,
    load_config,
    parse_config_text,
    render_config,
)
from graphain.curriculum import AUX_MODES, build_knn_aux_graph
from graphain.errors import (
    ConfigError,
    EmptyIncludeError,
    GraphainError,
    IndexOutOfRangeError,
    MissingMaskError,
    NonFiniteFeatureError,
    NonFiniteLossError,
    ParseError,
)
from graphain.experiment import run_experiment, run_seed, rows_to_csv
from graphain.io import load_dataset, save_dataset
import graphain.config as config
import graphain.experiment as experiment
from graphain import cli, graph, io, propagation
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
        with pytest.raises(ValueError, match=r"^inter_p must be in \[0, 1\], got 1.5$"):
            _spec(inter_p=1.5)
        with pytest.raises(ValueError, match=r"^intra_p must be in \[0, 1\], got -0.1$"):
            _spec(intra_p=-0.1)

    def test_heterophilous_graph(self):
        # edges mostly across clusters when inter_p exceeds intra_p
        g = gen_gaussian_cluster_graph(_spec(intra_p=0.02, inter_p=0.15, center_spread=2.0))
        assert _edge_homophily(g) < 0.2
        full = gen_gaussian_cluster_graph(_spec(nodes_per_cluster=4, intra_p=1.0, inter_p=1.0))
        assert full.num_edges == 12 * 11 // 2

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


# an out-of-range value of each numeric key
OUT_OF_RANGE = {
    "synthetic.clusters": "1", "synthetic.nodes_per_cluster": "0",
    "synthetic.intra_p": "1.5", "synthetic.inter_p": "-0.1",
    "synthetic.center_spread": "-1", "synthetic.centers_dim": "0",
    "synthetic.feature_sigma": "-1", "synthetic.train_frac": "-0.1",
    "synthetic.val_frac": "1.5",
    "propagation.alpha": "-1", "propagation.beta": "-1", "propagation.gamma": "-1",
    "propagation.a": "1.5", "propagation.b": "-0.5", "propagation.d0": "0",
    "propagation.p": "1.5", "propagation.q": "-0.5", "propagation.layers": "0",
    "propagation.embedding_dim": "0",
    "curriculum.n_t": "-1", "curriculum.knn_k": "0", "curriculum.gamma_prime": "0",
    "curriculum.mask_ratio": "1.5", "curriculum.pacing_epochs": "-1",
    "train.lr": "0", "train.epochs": "-1", "train.weight_decay": "-1",
}


class TestConfig:
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_gamma_prime_rejected(self, value):
        cur = build_experiment_config({}).curriculum
        with pytest.raises(ConfigError, match=f"^gamma_prime must be finite, got {value}$"):
            replace(cur, gamma_prime=value)

    def test_unknown_key_is_hard_error(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("propagation.alhpa = 0.5\n")

    @pytest.mark.parametrize(
        "raw", [{"variant": "sgc"}, {"bogus.key": "1"}], ids=["variant", "bogus_key"]
    )
    def test_unknown_dict_key_is_hard_error(self, raw):
        # a dropped key would run the default: "variant" would run rsoft
        (key,) = raw
        with pytest.raises(ConfigError, match=f"^grid: unknown key '{key}'$"):
            build_experiment_config({**BASE_KV, **raw}, source="grid")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("seeds = 1\nseeds = 2\n")

    @pytest.mark.parametrize("key, value", [("seeds", "-1"), ("seeds", "3,-2")])
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
        # a baseline pass applies no activation, so the key is not read
        with pytest.raises(
            ConfigError,
            match="^<config>: propagation.activation is read only with "
            "propagation.variant = rsoft$",
        ):
            build_experiment_config({
                **{k: v for k, v in BASE_KV.items() if k != "propagation.d0"},
                "propagation.activation": "relu", "propagation.variant": variant,
            })

    def test_relu_with_rsoft_builds(self):
        cfg = build_experiment_config({**BASE_KV, "propagation.activation": "relu"})
        assert cfg.propagation.activation == "relu" and cfg.variant == "rsoft"

    def test_hash_tracks_science_keys(self):
        a = build_experiment_config(dict(BASE_KV))
        b = build_experiment_config({**BASE_KV, "propagation.layers": "9"})
        assert config_hash(a) != config_hash(b)

    def test_dataset_conflicts_with_synthetic(self):
        with pytest.raises(
            ConfigError,
            match="^<config>: synthetic.clusters is read only with a synthetic graph, "
            "not dataset.path$",
        ):
            build_experiment_config({**BASE_KV, "dataset.path": "somewhere"})

    def test_noisy_features_forces_input_graph_aux(self):
        cfg = build_experiment_config({**BASE_KV, "noisy_features": "true"})
        assert cfg.curriculum.aux_mode == "input_graph"
        with pytest.raises(
            ConfigError,
            match="^<config>: curriculum.aux_mode is read only with noisy_features = false$",
        ):
            build_experiment_config(
                {**BASE_KV, "noisy_features": "true", "curriculum.aux_mode": "embedding_knn"}
            )

    @pytest.mark.parametrize("content", [None, b"\xfe\xff"], ids=["missing", "not_utf8"])
    def test_unreadable_config_names_path(self, tmp_path, content):
        path = tmp_path / "cfg.txt"
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: cannot read"):
            load_config(path)

    @pytest.mark.parametrize("key, value", list(OUT_OF_RANGE.items()), ids=list(OUT_OF_RANGE))
    def test_range_error_names_its_key(self, key, value):
        with pytest.raises(ConfigError, match=re.escape(key.rpartition(".")[2])):
            build_experiment_config({key: value})

    def test_every_numeric_key_has_an_out_of_range_case(self):
        numeric = {key.name for key in config._KEYS if key.parse in (int, config._finite)}
        assert numeric == set(OUT_OF_RANGE)

    def test_load_config_from_file(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("\n".join(f"{k} = {v}" for k, v in BASE_KV.items()) + "\n")
        cfg = load_config(path)
        assert cfg.propagation.layers == 8


# A tiny run at which every key a config reads moves some row: three layers,
# so that the decays p and q reach a layer.
CONTRACT_KV = {"synthetic.nodes_per_cluster": "6", "propagation.layers": "3",
               "curriculum.pacing_epochs": "5", "train.epochs": "20", "seeds": "1"}
# another valid value of each hashed key; for a key with a few values, the
# next one after the value the base config gives
OTHER = {
    "synthetic.clusters": "2", "synthetic.nodes_per_cluster": "7",
    "synthetic.intra_p": "0.5", "synthetic.inter_p": "0.2",
    "synthetic.center_spread": "2", "synthetic.centers_dim": "2",
    "synthetic.feature_sigma": "3", "synthetic.train_frac": "0.3",
    "synthetic.val_frac": "0.4",
    "propagation.alpha": "0.5", "propagation.beta": "0.3", "propagation.gamma": "0.3",
    "propagation.a": "0.9", "propagation.b": "0.5", "propagation.d0": "2",
    "propagation.p": "0.5", "propagation.q": "0.5", "propagation.layers": "4",
    "propagation.activation": "relu", "propagation.operator_mode": "random_walk",
    "propagation.variant": {"rsoft": "sgc", "sgc": "pairnorm", "pairnorm": "rsoft"},
    "propagation.embedding_dim": "9",
    "curriculum.n_t": {"0": "1", "2": "3"},
    "curriculum.knn_k": "3", "curriculum.gamma_prime": "3", "curriculum.mask_ratio": "0.5",
    "curriculum.aux_mode": {"input_graph": "feature_knn", "feature_knn": "embedding_knn",
                            "embedding_knn": "input_graph"},
    "curriculum.pacing_epochs": "3",
    "train.lr": "0.1", "train.epochs": "10", "train.weight_decay": "0.01",
    "noisy_features": {"false": "true", "true": "false"},
}
# Every variant x aux_mode x noisy_features x n_t in {0, 2}.  aux_mode is
# read only on clean features with smoothing, so the other cells give none.
CONTRACT_CELLS = [
    (variant, aux, noisy, n_t)
    for variant in VARIANTS
    for noisy in ("false", "true")
    for n_t in ("0", "2")
    for aux in (AUX_MODES if noisy == "false" and n_t != "0" else (None,))
]


def _both_arms(cfg):
    rows, supervised_rows, _ = run_seed(cfg, 1)
    return [(r.task, r.split, r.accuracy, r.loss) for r in rows + supervised_rows]


@pytest.mark.parametrize(
    "variant, aux, noisy, n_t", CONTRACT_CELLS,
    ids=["-".join(filter(None, (v, a, "noisy" if z == "true" else "clean", f"n_t{n}")))
         for v, a, z, n in CONTRACT_CELLS],
)
def test_config_echoes_accepts_and_hashes_only_keys_the_run_reads(variant, aux, noisy, n_t):
    # Each hashed key the echo keeps, set to another value, moves some row
    # of the two arms; each it leaves out is rejected when given, naming the
    # key and a condition it fails.  The unhashed keys are the run manifest,
    # which moves no row, and dataset.path, which picks the graph's source.
    base = {**CONTRACT_KV, "propagation.variant": variant, "noisy_features": noisy,
            "curriculum.n_t": n_t}
    if aux is not None:
        base["curriculum.aux_mode"] = aux
    cfg = build_experiment_config(base)
    echo = render_config(cfg)
    echoed = {line.split(" = ")[0] for line in echo.splitlines()}
    fed_back = build_experiment_config(parse_config_text(echo))
    assert fed_back == cfg and config_hash(fed_back) == config_hash(cfg)
    rows = _both_arms(cfg)
    for key in config._KEYS:
        if not key.hashed:
            continue
        other = OTHER[key.name]
        if key.name not in echoed:
            value = other if isinstance(other, str) else next(iter(other.values()))
            with pytest.raises(ConfigError) as err:
                build_experiment_config({**base, key.name: value})
            assert any(str(err.value) == f"<config>: {key.name} is read only with {when}"
                       for when in key.when), str(err.value)
            continue
        if not isinstance(other, str):
            other = other[base[key.name]]
        raw = {**base, key.name: other}
        if raw["noisy_features"] == "true":
            raw.pop("curriculum.aux_mode", None)  # not read under noisy features
        assert _both_arms(build_experiment_config(raw)) != rows, key.name


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

    def test_no_aux_graph_without_smoothing(self, monkeypatch):
        # n_t = 0 smooths nothing, so the run builds no auxiliary graph; the
        # rows below are those of a run that built one and never read it
        calls = []
        real = experiment.build_knn_aux_graph
        monkeypatch.setattr(
            experiment, "build_knn_aux_graph", lambda *args: calls.append(args) or real(*args)
        )
        rows, _, _ = run_seed(build_experiment_config({**BASE_KV, "curriculum.n_t": "0"}), 1)
        assert calls == []
        assert [(r.task, r.split, r.accuracy) for r in rows] == [
            (0, "train", 1.0), (0, "val", 1.0), (1, "train", 1.0), (1, "val", 1.0),
            (1, "test", 1.0),
        ]
        assert [r.loss for r in rows] == pytest.approx(
            [1.0901766969521163, 1.0687807193021899, 0.75838405381660889,
             0.71584476759507298, 0.73843999730733001], rel=1e-12,
        )

    def test_supervised_rows_equal_a_supervised_run(self):
        cfg = build_experiment_config(dict(BASE_KV))
        supervised = replace(cfg, curriculum=None)
        rows, supervised_rows, _ = run_seed(cfg, 1)
        alone, same, snapshots = run_seed(supervised, 1)
        # a supervised run hashes no curriculum key, so only the hash differs
        assert {r.config_hash for r in alone} == {config_hash(supervised)}
        assert {r.config_hash for r in supervised_rows} == {config_hash(cfg)}
        unhashed = [replace(r, config_hash=config_hash(supervised)) for r in supervised_rows]
        assert unhashed == alone and same == alone and snapshots is None
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
        run_seed(cfg if with_curriculum else replace(cfg, curriculum=None), 1)
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
            run_experiment(
                cfg if with_curriculum else replace(cfg, curriculum=None), write_files=False
            )

    def test_an_all_masked_curriculum_task_names_its_snapshot(self):
        # At mask_ratio 1 only the train rows survive the entropy filter, and
        # each smoothing step masks the rows whose auxiliary neighbours are
        # all masked, until the smoothest snapshot, the first task's, has no
        # row left.
        cfg = build_experiment_config({
            "curriculum.mask_ratio": "1", "curriculum.n_t": "2", "curriculum.knn_k": "1",
            "synthetic.train_frac": "0.02", "synthetic.nodes_per_cluster": "50",
            "propagation.layers": "4",
        })
        with pytest.raises(
            EmptyIncludeError,
            match=r"^\[stage curriculum\] empty node subset: task 0 trains on snapshot 2, "
            r"whose rows are all masked; lower curriculum\.mask_ratio$",
        ):
            run_seed(cfg, 0)


def _files_config(directory, seeds=(1, 2, 3)):
    """A write-mode run shaped as the benchmark's ``files`` workload, at a
    tenth of its nodes: a saved sparse 3 x 50 graph with 32-wide features."""
    g = gen_gaussian_cluster_graph(
        _spec(nodes_per_cluster=50, intra_p=0.1, inter_p=0.01, centers_dim=32)
    )
    save_dataset(with_masks(g, 0.1, 0.2, seed=0), directory / "data")
    kv = {k: v for k, v in BASE_KV.items() if not k.startswith("synthetic.")}
    cfg = build_experiment_config({**kv, "dataset.path": str(directory / "data")})
    return replace(cfg, seeds=seeds, output_dir=str(directory / "out"))


@pytest.fixture
def operator_builds(monkeypatch):
    """The (mode, centered) of every operator a run builds, through
    ``experiment`` (a dataset's) or the forward pass (a synthetic seed's)."""
    calls = []
    real = graph.normalized_adjacency

    def counting(g, mode="symmetric", centered=False):
        calls.append((mode, centered))
        return real(g, mode, centered)

    for module in (experiment, propagation):
        monkeypatch.setattr(module, "normalized_adjacency", counting)
    return calls


def _built_per_seed(monkeypatch):
    """Every seed's operator built in its forward pass, as before the memo."""
    monkeypatch.setattr(experiment, "_dataset_operator", lambda cfg, dataset: None)


def _run_files(cfg):
    """(rows, written files) of a run into a fresh ``cfg.output_dir``."""
    out = Path(cfg.output_dir)
    shutil.rmtree(out, ignore_errors=True)
    rows = run_experiment(cfg)
    return rows_to_csv(rows), {p.name: p.read_bytes() for p in sorted(out.iterdir())}


class TestDatasetKeptBuilds:
    def test_a_dataset_run_builds_its_operator_once(self, tmp_path, operator_builds,
                                                    monkeypatch):
        cfg = _files_config(tmp_path)
        kept = _run_files(cfg)
        assert operator_builds == [("symmetric", True)]
        assert {"diagnostics_seed1.csv", "diagnostics_seed3.csv"} <= set(kept[1])
        operator_builds.clear()
        _built_per_seed(monkeypatch)
        per_seed = _run_files(cfg)
        assert operator_builds == [("symmetric", True)] * 3
        assert kept == per_seed

    def test_repeated_run_seed_calls_reuse_it(self, tmp_path, operator_builds):
        # as scripts/run_grid.py calls it: no inputs, so each call loads the
        # dataset, and gets the Graph io keeps
        cfg = _files_config(tmp_path)
        rows = [run_seed(cfg, seed)[0] for seed in (1, 2, 1)]
        assert operator_builds == [("symmetric", True)]
        assert rows[0] == rows[2]

    def test_each_mode_and_centring_has_its_own_operator(self, tmp_path, operator_builds):
        cfg = _files_config(tmp_path, seeds=(1,))
        prop = cfg.propagation
        cells = [
            replace(cfg, variant="rsoft"),
            replace(cfg, variant="pairnorm"),  # centred too: shares rsoft's
            replace(cfg, variant="sgc"),
            replace(cfg, propagation=replace(prop, operator_mode="random_walk")),
        ]
        for cell in cells:
            run_seed(cell, 1)
        (dataset,) = io._LOADED.values()
        assert operator_builds == [
            ("symmetric", True), ("symmetric", False), ("random_walk", True)]
        ops = {key: value for key, value in experiment._OPERATORS[dataset].items()}
        assert list(ops) == operator_builds
        assert [op.shift is None for op in ops.values()] == [False, True, False]
        assert len({id(op) for op in ops.values()}) == 3

    def test_noisy_seeds_share_the_operator(self, tmp_path, operator_builds, monkeypatch):
        base = _files_config(tmp_path)
        cfg = build_experiment_config({
            **{k: v for k, v in BASE_KV.items() if not k.startswith("synthetic.")},
            "dataset.path": base.dataset_path, "noisy_features": "true"})
        cfg = replace(cfg, seeds=base.seeds, output_dir=base.output_dir)
        kept = _run_files(cfg)
        assert operator_builds == [("symmetric", True)]
        with monkeypatch.context() as per_seed:
            _built_per_seed(per_seed)
            assert _run_files(cfg) == kept

    def test_a_grid_keeps_one_operator_per_dataset(self, tmp_path, operator_builds):
        # cells that differ only past the forward pass, as a run_grid.py
        # sweep over the auxiliary graph makes them, keep nothing more
        cfg = _files_config(tmp_path, seeds=(1,))
        for aux_mode in ("embedding_knn", "feature_knn", "input_graph"):
            for knn_k in (3, 7):
                for gamma_prime in (0.5, 1.0):
                    cell = replace(cfg, curriculum=replace(
                        cfg.curriculum, aux_mode=aux_mode, knn_k=knn_k,
                        gamma_prime=gamma_prime))
                    run_seed(cell, 1)
        (dataset,) = io._LOADED.values()
        assert operator_builds == [("symmetric", True)]
        assert list(experiment._OPERATORS[dataset]) == operator_builds
        assert len(experiment._OPERATORS) == 1

    def test_synthetic_seeds_never_enter_it(self, operator_builds):
        cfg = build_experiment_config({**BASE_KV, "seeds": "1,2"})
        run_experiment(cfg, write_files=False)
        assert operator_builds == [("symmetric", True)] * 2
        assert len(experiment._OPERATORS) == 0

    def test_an_entry_dies_with_its_graph(self, tmp_path):
        cfg = _files_config(tmp_path, seeds=(1,))
        run_experiment(cfg, write_files=False)
        (dataset,) = io._LOADED.values()
        (op,) = experiment._OPERATORS[dataset].values()
        refs = weakref.ref(dataset), weakref.ref(op)
        del dataset, op
        gc.collect()
        assert all(ref() is not None for ref in refs)  # io still keeps the Graph
        io._LOADED.clear()
        gc.collect()
        assert [ref() for ref in refs] == [None, None]
        assert len(experiment._OPERATORS) == 0


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
    # n = 600, past the cap: the sparse kernel
    "csr": {"synthetic.clusters": "3", "synthetic.nodes_per_cluster": "200",
            "synthetic.intra_p": "0.05", "synthetic.inter_p": "0.005",
            "propagation.layers": "32"},
    # pairnorm on the benchmark's wide graph, n = 3000: its two norms span
    # n x 8 entries, past the size where a BLAS dot product splits across
    # threads, which n = 600 is not
    "pairnorm": {"synthetic.clusters": "3", "synthetic.nodes_per_cluster": "1000",
                 "synthetic.intra_p": "0.01", "synthetic.inter_p": "0.0005",
                 "propagation.layers": "64", "propagation.variant": "pairnorm"},
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


STAGES = ("dataset", "propagation", "teacher", "label-estimation", "entropy-filter", "aux-graph",
          "label-smoothing", "curriculum", "evaluation")
STAGE_LABEL = re.compile(rf"^\[stage ({'|'.join(STAGES)})\] ")


def _draw_run(draw):
    """(graph, raw dataset config) of one fuzzed seed: a tiny graph (every
    one kept dense by the operator) at a feature scale from 0 to 1e300, any
    variant and aux mode, k up to past n, labels of one class or several
    and splits that may be empty."""
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
    # every key is drawn, so the draws stay in order, but a config gives
    # only the keys its variant, smoothing depth and aux mode read
    unread = []
    if variant != "rsoft":
        unread += ["propagation.d0", "propagation.a", "propagation.p", "propagation.q"]
    if raw["curriculum.n_t"] == "0":
        unread += ["curriculum.aux_mode", "curriculum.knn_k"]
    elif raw["curriculum.aux_mode"] == "input_graph":
        unread.append("curriculum.knn_k")
    for key in unread:
        del raw[key]
    assert graph.normalized_adjacency(g).dense is not None
    return g, raw


@contextmanager
def _fuzz_warnings():
    """Warnings as errors, but for the one a k of n or more gives by design
    when it is clamped to n - 1."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.filterwarnings("ignore", r"k=\d+ >= n=\d+; clamping", UserWarning)
        yield


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def _fuzz_run_seed(outcomes, data):
    g, raw = _draw_run(data.draw)
    cfg = build_experiment_config(raw)
    with _fuzz_warnings():
        try:
            rows, _, _ = run_seed(cfg, 0, inputs=("fuzz", g))
        except GraphainError as err:
            label = STAGE_LABEL.match(str(err))
            assert label, f"{type(err).__name__} names no stage: {err}"
            outcomes[label.group(1), type(err).__name__] += 1
            return
    assert rows
    outcomes["returned", ""] += 1


# The share of the fuzz's examples that reaches each stage (raises there or
# later, or returns) may not fall below these.  Derandomized under
# Hypothesis 6.155, the 150 examples reach propagation 98 times (65%), the
# teacher 75 (50%) and return 61 (41%); 4 raise at the curriculum stage.
REACH_FLOOR = {"propagation": 0.6, "teacher": 0.4, "returned": 0.3}


def test_run_seed_returns_or_names_its_stage():
    # Each example returns its rows or raises a GraphainError whose message
    # opens with its stage, with warnings as errors.  A strategy whose draws
    # all stop at one early stage would test little, so the share that
    # reaches each stage has a floor.  ``pytest -s`` prints the counts.
    outcomes = Counter()  # (stage or "returned", error type) -> examples
    _fuzz_run_seed(outcomes)
    ends = Counter()
    for (end, _), count in outcomes.items():
        ends[end] += count
    total = sum(ends.values())
    order = (*STAGES, "returned")
    reach = {stage: sum(ends[end] for end in order[i:]) for i, stage in enumerate(order)}
    report = (
        f"run_seed fuzz, of {total} examples, reaching each stage: "
        + ", ".join(f"{stage} {count}" for stage, count in reach.items())
        + "; raised: "
        + ", ".join(f"{kind} at {end} {count}" for (end, kind), count in sorted(outcomes.items())
                    if kind)
    )
    print(report)
    for stage, floor in REACH_FLOOR.items():
        assert reach[stage] >= floor * total, report


# Draws whose input passes the teacher and then overflows in the
# feature_knn auxiliary graph or in its smoothing: each kind's stage and
# the start of its message.
PAST_TEACHER = {
    "norm": ("aux-graph", "kNN auxiliary graph: the squared norm of row "),
    "distance": ("aux-graph", "kNN auxiliary graph: the squared distance between rows "),
    "weight": ("aux-graph", "kNN auxiliary graph: the weight of edge ("),
    "degree": ("label-smoothing", "auxiliary graph: the weighted degree of node "),
}


def _draw_past_teacher(draw):
    """(graph, raw dataset config, kind) of a seed on a labeled path whose
    raw features overflow only where ``feature_knn`` reads them:

    - norm, distance: features of width f carry a component of about 1e155
      (norm: a squared norm overflows) or 0.8e154 of either sign (distance:
      squared norms below 2^1023, but two rows' squared distance overflows)
      along a direction the seed's reducer maps to rounding, about 1e139,
      so the propagation sees finite products;
    - weight, degree: rows of norm about 1e77 and nearly parallel, at a
      gamma' that takes the largest kept g past the largest double (weight)
      or to 1e308, so that each node's three or more edges weigh past it
      (degree)."""
    n = draw(st.integers(6, 14), label="n")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    width = draw(st.integers(2, 5), label="feature width")
    d = draw(st.integers(1, width - 1), label="embedding_dim")
    kind = draw(st.sampled_from(sorted(PAST_TEACHER)), label="kind")
    k = draw(st.integers(3, n - 1), label="k")
    z = rng.standard_normal((n, width))
    gamma = 1.0
    if kind in ("norm", "distance"):
        reducer = make_reducer(width, d, int(experiment._child_seeds(0)["reducer"]))
        away = np.linalg.qr(reducer, mode="complete")[0][:, d]  # orthogonal to its columns
        sign = np.where(rng.random(n) < 0.5, 1.0, -1.0) * (rng.random(n) < 0.5)
        sign[:2] = 1.0, -1.0  # two rows of opposite signs at least
        scale = (1e155 if kind == "norm" else 0.8e154) * (1.0 + 0.1 * rng.random(n))
        x = z + (scale * sign)[:, None] * away
    else:
        u = rng.standard_normal(width)
        x = 1e77 * (u / np.linalg.norm(u) + 0.01 * z)
        top = math.log(build_knn_aux_graph(x, k, 1.0).weights.max())
        gamma = (310 if kind == "weight" else 308) * math.log(10) / top
    nodes = np.arange(n)
    masks = (nodes[nodes % 3 == 0], nodes[nodes % 3 == 1], nodes[nodes % 3 == 2])
    g = build_graph(np.column_stack([nodes[:-1], nodes[1:]]), n, x, nodes % 2, masks)
    variant = draw(st.sampled_from(VARIANTS), label="variant")
    raw = {
        "dataset.path": "unused",
        "propagation.variant": variant,
        "propagation.embedding_dim": str(d),
        "propagation.layers": "2",
        "curriculum.aux_mode": "feature_knn",
        "curriculum.knn_k": str(k),
        "curriculum.gamma_prime": repr(gamma),
        "curriculum.n_t": "2",
        "curriculum.mask_ratio": draw(st.sampled_from(["0", "0.5"]), label="mask_ratio"),
        "curriculum.pacing_epochs": "3",
        "train.epochs": "5",
    }
    if variant == "rsoft":
        raw["propagation.d0"] = str(d)
    return g, raw, kind


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_run_seed_past_the_teacher_names_its_stage(data):
    # Bad values from input that reach the aux graph and the smoothing fail
    # there, typed and named, with warnings as errors.
    g, raw, kind = _draw_past_teacher(data.draw)
    stage, message = PAST_TEACHER[kind]
    with _fuzz_warnings(), pytest.raises(NonFiniteFeatureError) as err:
        run_seed(build_experiment_config(raw), 0, inputs=("fuzz", g))
    assert str(err.value).startswith(f"[stage {stage}] {message}")


CLI_ERROR = re.compile(rf"^error: (\[stage ({'|'.join(STAGES)})\]|\S+:\d+:) [^\n]*\n$")


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_cli_curriculum_exits_0_or_2_in_one_line(tmp_path_factory, data):
    # The fuzz's draws, saved as datasets and run by `graphain curriculum`:
    # exit 0 with only finite floats on stdout, but for the NaNs README
    # documents (the train accuracy of a task with no labeled row, and the
    # val accuracy and loss of a split with no labeled node), or exit 2 with
    # one `error:` line naming the stage or the file and line.
    g, raw = _draw_run(data.draw)
    tmp = tmp_path_factory.mktemp("cli")
    save_dataset(g, tmp / "data")
    cfg = tmp / "cfg.txt"
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in raw.items()))
    stdout, stderr = StringIO(), StringIO()
    with _fuzz_warnings(), redirect_stdout(stdout), redirect_stderr(stderr):
        code = cli.main(["curriculum", "--graph", str(tmp / "data"), "--config", str(cfg),
                         "--out", str(tmp / "out")])
    if code == 2:
        assert CLI_ERROR.match(stderr.getvalue()), stderr.getvalue()
        assert stdout.getvalue() == ""
        return
    assert code == 0 and stderr.getvalue() == ""
    header, *rows = stdout.getvalue().splitlines()
    assert header == "seed,config_hash,task,split,accuracy,loss,wall_ms" and rows
    val_labeled = bool((g.labels[g.val_mask] >= 0).any())
    nan_ok = {"train": ("accuracy",), "val": () if val_labeled else ("accuracy", "loss")}
    for row in rows:
        _, _, _, split, accuracy, loss, wall = row.split(",")
        for name, cell in (("accuracy", accuracy), ("loss", loss), ("wall_ms", wall)):
            if cell == "nan":
                assert name in nan_ok.get(split, ()), row
            else:
                assert math.isfinite(float(cell)), row
