import warnings
from dataclasses import replace

import numpy as np
import pytest

from diagnostics_csv import records_from_csv
from graphain.cli import main

CFG = """
synthetic.clusters = 3
synthetic.nodes_per_cluster = 15
synthetic.intra_p = 0.35
synthetic.inter_p = 0.02
propagation.layers = 6
propagation.embedding_dim = 4
propagation.d0 = 4
curriculum.n_t = 2
curriculum.pacing_epochs = 5
train.epochs = 20
seeds = 1
deterministic_timing = true
"""

SATURATING = "seeds = 0\nsynthetic.nodes_per_cluster = 20\ntrain.lr = 1e300\n"

TINY = ("synthetic.clusters = 3\nsynthetic.nodes_per_cluster = 10\n"
        "propagation.layers = 4\ndeterministic_timing = true\n")


@pytest.fixture
def workspace(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(CFG)
    data = tmp_path / "data"
    assert main(["gen", "--spec", str(cfg), "--out", str(data)]) == 0
    return tmp_path, cfg, data


class TestCli:
    def test_gen_writes_dataset(self, workspace):
        _, _, data = workspace
        for name in ("edges.tsv", "features.csv", "labels.csv", "masks.csv"):
            assert (data / name).exists()

    @pytest.mark.parametrize(
        "text",
        [
            CFG,
            CFG + "noisy_features = true\n",
            # sgc reads no propagation.d0
            CFG.replace("propagation.d0 = 4\n", "")
            + "propagation.variant = sgc\ncurriculum.aux_mode = feature_knn\n",
        ],
        ids=["default", "noisy_features", "sgc_feature_knn"],
    )
    def test_gen_writes_the_graph_the_run_draws(self, tmp_path, capsys, text):
        # gen saves the graph, split and noise of the first run seed, so a
        # --graph run on it prints the run's rows; only config_hash differs,
        # as a dataset config hashes the dataset's bytes
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(text)
        data = tmp_path / "data"
        assert main(["gen", "--spec", str(cfg), "--out", str(data)]) == 0
        capsys.readouterr()
        for command in ("train", "curriculum"):
            printed = []
            for graph in ([], ["--graph", str(data)]):
                out = ["--out", str(tmp_path / command)]
                assert main([command, "--config", str(cfg), *out, *graph]) == 0
                rows = [line.split(",") for line in capsys.readouterr().out.splitlines()]
                assert rows[0][1] == "config_hash" and len(rows) > 1
                printed.append([row[:1] + row[2:] for row in rows])
            assert printed[0] == printed[1], command

    def test_propagate_trace(self, workspace):
        tmp, cfg, data = workspace
        out = tmp / "prop"
        code = main(
            ["propagate", "--graph", str(data), "--config", str(cfg),
             "--out", str(out), "--trace"]
        )
        assert code == 0
        emb = np.loadtxt(out / "embeddings.csv", delimiter=",")
        assert emb.shape == (45, 4)
        records = records_from_csv(out / "diagnostics.csv")
        assert len(records) == 6

    def test_propagate_without_trace_keeps_final_layer(self, workspace):
        tmp, cfg, data = workspace
        out = tmp / "prop_final"
        assert main(
            ["propagate", "--graph", str(data), "--config", str(cfg),
             "--out", str(out)]
        ) == 0
        records = records_from_csv(out / "diagnostics.csv")
        assert len(records) == 1
        assert records[0].layer == 6

    def test_train_and_curriculum(self, workspace, capsys):
        tmp, cfg, data = workspace
        assert main(
            ["train", "--graph", str(data), "--config", str(cfg),
             "--out", str(tmp / "sup")]
        ) == 0
        sup_out = capsys.readouterr().out
        assert sup_out.startswith("seed,config_hash,task,split,accuracy,loss,wall_ms")
        assert main(
            ["curriculum", "--graph", str(data), "--config", str(cfg),
             "--out", str(tmp / "cur"), "--export-snapshots"]
        ) == 0
        cur_out = capsys.readouterr().out
        assert len(cur_out.splitlines()) > len(sup_out.splitlines())
        snaps = sorted((tmp / "cur" / "snapshots").glob("snapshot_*.csv"))
        assert len(snaps) == 3

    def test_train_split_without_the_highest_class(self, workspace, capsys):
        from graphain.graph import build_graph
        from graphain.io import load_dataset, save_dataset

        tmp, cfg, data = workspace
        g = load_dataset(data)
        nodes = np.arange(g.n)
        train = nodes[(g.labels < g.num_classes - 1) & (nodes % 3 == 0)]
        masks = (train, nodes[nodes % 3 == 1], nodes[nodes % 3 == 2])
        assert (g.labels[masks[1]] == g.num_classes - 1).any()
        partial = tmp / "partial"
        save_dataset(build_graph(g.edges, g.n, g.features, y=g.labels, masks=masks), partial)
        for command in ("train", "curriculum"):
            assert main(
                [command, "--graph", str(partial), "--config", str(cfg),
                 "--out", str(tmp / command)]
            ) == 0
        assert capsys.readouterr().err == ""

    def test_single_class_dataset_exits_2(self, workspace, capsys):
        # a softmax head needs two classes; a ring whose labels are all 0
        # fails at the dataset stage, not inside the label matrix
        from graphain.graph import build_graph
        from graphain.io import save_dataset

        tmp, cfg, _ = workspace
        n = 30
        nodes = np.arange(n)
        edges = [(i, (i + 1) % n) for i in range(n)]
        x = np.random.default_rng(0).standard_normal((n, 4))
        masks = (nodes[nodes % 3 == 0], nodes[nodes % 3 == 1], nodes[nodes % 3 == 2])
        ring = tmp / "ring"
        save_dataset(build_graph(edges, n, x, y=np.zeros(n, dtype=np.int64), masks=masks), ring)
        for command in ("train", "curriculum"):
            assert main(
                [command, "--graph", str(ring), "--config", str(cfg),
                 "--out", str(tmp / command)]
            ) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: [stage dataset] ")
            assert "1 class" in err

    def test_rsoft_on_a_zero_centred_product_exits_2(self, workspace, capsys):
        # constant feature rows on a path: rsoft's first centred product is
        # rounding noise, which the run rejects instead of whitening it
        from graphain.graph import build_graph
        from graphain.io import save_dataset

        tmp, cfg, _ = workspace
        cfg.write_text(CFG + "propagation.operator_mode = random_walk\n")
        n = 12
        nodes = np.arange(n)
        edges = [(i, i + 1) for i in range(n - 1)]
        x = np.tile([0.7, -1.3, 2.1], (n, 1))
        masks = (nodes[nodes % 3 == 0], nodes[nodes % 3 == 1], nodes[nodes % 3 == 2])
        path = tmp / "path"
        save_dataset(build_graph(edges, n, x, y=nodes % 2, masks=masks), path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(
                ["curriculum", "--graph", str(path), "--config", str(cfg),
                 "--out", str(tmp / "out")]
            ) == 2
        err = capsys.readouterr().err
        assert err == ("error: [stage propagation] layer 1: "
                       "centered activation collapsed to zero\n")

    def test_overflowing_knn_weight_exits_2(self, workspace, capsys):
        # feature_knn on raw features of norm 1e80 at gamma' = 2: the
        # weights overflow, and the run stops at the aux-graph stage with a
        # typed error instead of smoothing infinite weights into NaN labels
        from graphain.graph import build_graph
        from graphain.io import save_dataset

        tmp, cfg, _ = workspace
        cfg.write_text(CFG + "curriculum.aux_mode = feature_knn\ncurriculum.gamma_prime = 2\n")
        n = 30
        nodes = np.arange(n)
        edges = [(i, (i + 1) % n) for i in range(n)]
        x = np.random.default_rng(0).standard_normal((n, 4))
        x *= 1e80 / np.linalg.norm(x, axis=1, keepdims=True)
        masks = (nodes[nodes % 3 == 0], nodes[nodes % 3 == 1], nodes[nodes % 3 == 2])
        ring = tmp / "ring"
        save_dataset(build_graph(edges, n, x, y=nodes % 2, masks=masks), ring)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(
                ["curriculum", "--graph", str(ring), "--config", str(cfg),
                 "--out", str(tmp / "out")]
            ) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [stage aux-graph] kNN auxiliary graph: the weight of edge (")

    def test_saturated_head_writes_positive_zero_loss(self, tmp_path):
        # at lr 1e300 and no decay one step saturates the head: each softmax
        # row is one-hot on its label, and every loss term is zero
        cfg = tmp_path / "saturated.txt"
        cfg.write_text(SATURATING + "train.weight_decay = 0\n")
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        rows = (tmp_path / "out" / "results.csv").read_text().splitlines()[1:]
        assert rows and {row.split(",")[5] for row in rows} == {"0"}

    def test_diverging_head_exits_2_without_a_numpy_warning(self, tmp_path, capsys):
        cfg = tmp_path / "diverging.txt"
        cfg.write_text(SATURATING)  # with the default weight decay
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "error: [stage teacher] loss diverged at epoch 1\n"

    @pytest.mark.parametrize(
        "command, line, expect",
        [
            # the squared Frobenius norm of rsoft's first product overflows
            ("curriculum", "synthetic.center_spread = 1e160",
             "[stage propagation] layer 1: norm of the centered activation is inf, not finite"),
            # the same features under sgc, whose plain product is not centred
            ("curriculum", "synthetic.center_spread = 1e160\npropagation.variant = sgc",
             "[stage propagation] layer 1: norm of the activation is inf, not finite"),
            # the decay term of the loss overflows once the step has grown w
            ("train", "train.weight_decay = 1e300",
             "[stage teacher] loss diverged at epoch 2"),
        ],
        ids=["rsoft_norm_overflow", "sgc_norm_overflow", "weight_decay_overflow"],
    )
    def test_overflow_exits_2_without_a_numpy_warning(
        self, tmp_path, capsys, command, line, expect
    ):
        cfg = tmp_path / "overflow.txt"
        cfg.write_text(TINY + line + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "RuntimeWarning" not in err
        assert err.splitlines() == [f"error: {expect}"]

    def test_train_neither_echoes_nor_hashes_the_curriculum(self, tmp_path, capsys):
        # a supervised run reads no curriculum key, so two configs that differ
        # only in one run alike, under one hash
        outputs = []
        for n_t in (2, 5):
            cfg = tmp_path / f"n_t{n_t}.txt"
            cfg.write_text(TINY + f"curriculum.n_t = {n_t}\n")
            out = tmp_path / f"out{n_t}"
            assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
            outputs.append(capsys.readouterr().out)
            echo = (out / "config_echo.txt").read_text()
            assert "curriculum." not in echo
        assert outputs[0] == outputs[1]
        # the echo fed back to train reproduces the run, hash included
        assert main(["train", "--config", str(out / "config_echo.txt"),
                     "--out", str(tmp_path / "again")]) == 0
        assert capsys.readouterr().out == outputs[0]

    def test_d0_above_embedding_dim_exits_2(self, workspace, capsys):
        tmp, cfg, data = workspace
        bad = tmp / "wide_d0.txt"
        bad.write_text(CFG.replace("propagation.d0 = 4", "propagation.d0 = 10"))
        for command in (["echo-config"], ["curriculum", "--graph", str(data)]):
            assert main(command + ["--config", str(bad)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {bad}: ")
            assert "propagation.d0 = 10" in err
            assert "propagation.embedding_dim = 4" in err
        # d0 only bounds the rsoft filter: sgc reads no d0, so its default 8
        # passes and a given one is rejected
        sgc = tmp / "sgc.txt"
        sgc.write_text(CFG.replace("propagation.d0 = 4\n", "") + "propagation.variant = sgc\n")
        assert main(["echo-config", "--config", str(sgc)]) == 0
        sgc.write_text(bad.read_text() + "propagation.variant = sgc\n")
        assert main(["echo-config", "--config", str(sgc)]) == 2
        assert capsys.readouterr().err.endswith(
            "propagation.d0 is read only with propagation.variant = rsoft\n"
        )

    def test_export_snapshots_reuses_the_run(self, workspace, monkeypatch):
        import graphain.experiment as experiment
        from graphain.config import load_config
        from graphain.curriculum import export_snapshots

        tmp, cfg, data = workspace
        calls = []
        real = experiment.smooth_labels

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(experiment, "smooth_labels", counting)
        out = tmp / "cur"
        assert main(
            ["curriculum", "--graph", str(data), "--config", str(cfg),
             "--out", str(out), "--export-snapshots"]
        ) == 0
        assert len(calls) == 1  # one seed

        # the snapshots an independent run of the first seed exports
        run_cfg = replace(
            load_config(cfg), dataset_path=str(data), synthetic=None, output_dir=str(out)
        )
        _, _, snapshots = experiment.run_seed(run_cfg, run_cfg.seeds[0])
        want = export_snapshots(snapshots, tmp / "expected")
        got = sorted((out / "snapshots").glob("snapshot_*.csv"))
        assert [p.name for p in got] == [p.name for p in want]
        for g_path, w_path in zip(got, want):
            assert g_path.read_bytes() == w_path.read_bytes()

    def test_train_rejects_export_snapshots(self, workspace, capsys):
        # the supervised baseline builds no snapshots, so the flag would
        # silently export nothing
        tmp, cfg, data = workspace
        out = tmp / "sup"
        with pytest.raises(SystemExit) as exit_info:
            main(
                ["train", "--graph", str(data), "--config", str(cfg),
                 "--out", str(out), "--export-snapshots"]
            )
        assert exit_info.value.code == 2
        assert "--export-snapshots" in capsys.readouterr().err
        assert not out.exists()

    def test_verify_suite_exit_code(self, capsys):
        assert main(["verify", "--suite", "theorem3"]) == 0
        out = capsys.readouterr().out
        assert "PASS theorem3" in out

    def test_verify_host_suite_passes_on_this_host(self, capsys):
        assert main(["verify", "--suite", "host"]) == 0
        out = capsys.readouterr().out
        assert "PASS host/dense-product-thread-bytes: max 0.000e+00" in out
        assert "PASS host/sparse-kernel-bytes: max 0.000e+00" in out

    def test_verify_host_suite_fails_on_a_sparse_product_off_by_one_ulp(
        self, monkeypatch, capsys
    ):
        # a sparse kernel that rounds unlike scipy's CSR kernel, as one
        # compiled with FMA contraction might, fails the check on every entry
        from graphain import verify

        real = verify.apply_operator
        monkeypatch.setattr(
            verify, "apply_operator", lambda op, m: np.nextafter(real(op, m), np.inf)
        )
        assert main(["verify", "--suite", "host"]) == 1
        out = capsys.readouterr().out
        assert "PASS host/dense-product-thread-bytes" in out
        assert "FAIL host/sparse-kernel-bytes: max 1.872e+06" in out

    def test_verify_host_suite_fails_on_bytes_that_follow_the_threads(
        self, monkeypatch, capsys
    ):
        # a child whose output depends on OPENBLAS_NUM_THREADS stands in for
        # a BLAS that rounds differently at 1 and 2 threads
        from graphain import verify

        monkeypatch.setattr(
            verify,
            "_HOST_CHILD",
            "import os, sys\nimport numpy as np\n"
            "sys.stdout.buffer.write(np.full(3, float(os.environ['OPENBLAS_NUM_THREADS'])).tobytes())\n",
        )
        assert main(["verify", "--suite", "host"]) == 1
        assert "FAIL host/dense-product-thread-bytes: max 3.000e+00" in capsys.readouterr().out

    def test_verify_suite_names_are_pinned(self):
        from graphain.verify import SUITES

        assert sorted(SUITES) == [
            "host",
            "labelprop",
            "oversmooth",
            "theorem1",
            "theorem2",
            "theorem3",
        ]

    def test_gen_on_a_dataset_config_exits_2_in_one_line(self, workspace, capsys):
        tmp, _, data = workspace
        spec = tmp / "dataset.txt"
        spec.write_text(f"dataset.path = {data}\n")
        assert main(["gen", "--spec", str(spec), "--out", str(tmp / "gen")]) == 2
        assert capsys.readouterr().err == (
            f"error: {spec}: gen needs synthetic.* keys, not dataset.path\n"
        )
        assert not (tmp / "gen").exists()

    def test_error_paths_exit_nonzero(self, tmp_path, capsys):
        cfg = tmp_path / "bad.txt"
        cfg.write_text("unknown.key = 1\n")
        assert main(["echo-config", "--config", str(cfg)]) == 2
        assert "unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, expect",
        [
            ("synthetic.clusters = 1", ["two clusters"]),
            ("synthetic.inter_p = 1.5", ["inter_p must be in [0, 1]"]),
            ("synthetic.train_frac = -0.1", ["synthetic.train_frac", "synthetic.val_frac"]),
            ("synthetic.val_frac = 0.95", ["synthetic.train_frac", "synthetic.val_frac"]),
            ("curriculum.gamma_prime = nan", ["curriculum.gamma_prime", "finite"]),
            ("seeds = 3,3", ["seed 3 is listed twice"]),
        ],
    )
    def test_config_range_errors_exit_2(self, tmp_path, capsys, line, expect):
        cfg = tmp_path / "bad.txt"
        cfg.write_text(line + "\n")
        assert main(["echo-config", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: ")
        for fragment in expect:
            assert fragment in err

    def test_echo_config_round_trips(self, workspace, capsys):
        tmp, cfg, _ = workspace
        assert main(["echo-config", "--config", str(cfg)]) == 0
        echo = capsys.readouterr().out
        cfg2 = tmp / "echo.txt"
        cfg2.write_text(echo)
        assert main(["echo-config", "--config", str(cfg2)]) == 0
        assert capsys.readouterr().out == echo
