"""Time graphain's kernels into ``BENCH_<case>.json``, one report per case.

head    ``loss_and_grad`` per call and ``train_linear`` per epoch (us), d = 8,
        at C = 3 (the synthetic configs) and C = 7 (a Cora-shaped head), on
        the row counts of the teacher, curriculum and fine-tune and on
        100,002 rows, the scale case's.
aux     the cluster graph generator on the benchmark's ``wide`` and ``files``
        specs and on 3 x 33,333 nodes at ``wide``'s expected degree (intra
        10, inter 1), and the kNN auxiliary graph (ms per call), with the
        ``tracemalloc`` peak of one more kNN call in MB (10^6 bytes) and the
        entries of the blocks of distances that call forms
        (``_leaf_product``) and their count: on isotropic Gaussian rows,
        where no leaf's box is far from another's and only the per-row box
        test prunes; on four propagated embeddings, clustered like the ones
        a run smooths over: the ``deep`` spec (n = 300, one leaf), the
        ``wide`` spec (n = 3000), and 3 x 3000 and 3 x 33,334 nodes at
        ``wide``'s expected degree (n = 9000 and 100,002), each after
        ``wide``'s 64 layers, the last the scale case, timed in 3 repeats
        against a 3 s target for the kNN at n = 10^5 (``target_ms``); and
        on the raw features of a Cora-shaped graph (7 x 387 nodes, 1433
        columns), as ``feature_knn`` builds it.
io      ``load_dataset``, ``save_dataset`` and ``dataset_digest`` on the saved
        ``files`` graph, about 1.15 MB (ms per call): ``load_dataset_ms`` a
        cold load (the kept Graphs dropped untimed before each call, so each
        call parses the text), ``load_dataset_cached_ms`` a load of the same
        bytes, which returns the kept Graph; and ``save_dataset_peak_mb``, the
        ``tracemalloc`` peak of one more, untimed ``save_dataset`` call in MB
        (10^6 bytes), on the ``files`` graph and on the generator's 3 x 33,333
        nodes at ``wide``'s expected degree.
layers  the rsoft forward pass (us per layer): n = 300 at the paper's depth of
        10^4 layers and at the benchmark's ``deep`` depth of 256 layers, and
        n = 9000 at ``wide``'s degree, 64 layers, all at p = q = 0.5; and the
        ``wide`` spec (n = 3000) at p = q = 0, 64 layers, as the benchmark's
        ``wide`` runs it.  Each case records the operator product it ran
        (``dense`` or ``csc``, ``graph.dense_pays``) and also splits a layer
        into its parts, from a second set of passes with a timer around each
        part: the centred operator product (``spmm``, whichever product
        ran), the skip mix, the filter and the ``eigh`` inside it
        (``sym_eig``), and the rest of the layer.  The timers add their own
        cost to those passes, whose whole time is reported as ``wrapped``.
        ``operator_ms`` times one build of the centred operator that rsoft
        multiplies by (ms per call), the build a dataset config makes once
        per process: on each case's graph and, in the ``operators`` rows,
        on 3 x 33,334 nodes at ``wide``'s expected degree.
        The ``kernels`` rows time one product of scipy's CSR kernel
        (``csr_matvecs``, on the CSR arrays of ``oracles.csr_arrays``) and
        of its CSC kernel (``graph.csc_matmul``) on the same operator (us
        per product, width 8), after checking that the two give the same
        bytes: on the benchmark's ``wide`` and ``files`` graphs and on
        3 x 33,333 nodes at ``wide``'s expected degree.  The ``crossover``
        sweep times one product of the CSC kernel and of the dense GEMM
        (same units) on random graphs at n = 64 to 512 and 1/64 to 1/4 of
        the entries filled, the numbers behind ``dense_pays``.
import  a fresh interpreter per repeat: the wall time of ``import
        graphain.experiment`` (ms), ``ru_maxrss`` after it and after one
        ``run_experiment`` seed of the benchmark's ``wide`` spec (MB, 2^20
        bytes, as the benchmark's ``peak_rss_mb``).
labels  the label path of the benchmark's ``deep``, ``files`` and ``wide``
        workloads at run seed 0 (us per call): on the propagated embedding,
        its kNN auxiliary graph and the teacher's filtered pseudo-labels,
        ``smooth_labels`` at the default n_t = 10, one ``SoftLabelMatrix``
        of the last snapshot, a scoring-only ``run_curriculum`` (every task
        at zero epochs, so each is one softmax and its scores) and one
        ``LayerRecorder`` call on the embedding.  Each repeat makes as many
        calls as fill about 20 ms (``calls_per_repeat``).

Every timed figure is one untimed call, then 7 timed repeats (3 for the
kNN scale case): their median, interquartile range and samples; none is
gated.  Each run is appended to ``runs[label]`` of the case's report in the
working directory, with the numpy, scipy and BLAS versions,
``os.cpu_count()``, the BLAS thread environment and its UTC start time, and
the script prints, per timed field, the median of every run under the label.

An IQR measures the spread within one run only, and load on a shared host
moves whole runs by more than that.  To compare two versions of the code,
alternate runs of each (with its own ``src`` on ``PYTHONPATH``) under two labels.

Usage: PYTHONPATH=src python scripts/bench.py [--case head|aux|io|layers|import|labels ...] [--label current]
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
import tracemalloc
from datetime import datetime, timezone
from functools import partial
from pathlib import Path

import numpy as np
import scipy

from graphain import curriculum, io, linalg, propagation
from graphain.classifier import TrainConfig, loss_and_grad, make_reducer, train_linear
from graphain.config import build_experiment_config
from graphain.curriculum import (
    build_knn_aux_graph,
    entropy_filter,
    estimate_labels_teacher,
    run_curriculum,
    smooth_labels,
)
from graphain.diagnostics import LayerRecorder
from graphain.experiment import compute_embedding, prepare_graph
from graphain.graph import _sparsetools, build_graph, csc_matmul, dense_pays, normalized_adjacency
from graphain.io import DATASET_FILES, dataset_digest, load_dataset, save_dataset
from graphain.labels import SoftLabelMatrix
from graphain.oracles import csr_arrays, dense_csc
from graphain.propagation import run_fuzzy_r_softgraphain
from graphain.synthetic import SyntheticSpec, gen_gaussian_cluster_graph, with_masks

REPEATS = 7
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
HEAD_ROWS, HEAD_DIM, HEAD_CLASSES = (30, 300, 3000, 100_002), 8, (3, 7)
GENERATOR_SPECS = {
    "wide": dict(clusters=3, nodes_per_cluster=1000, intra_p=0.01, inter_p=0.0005),
    "files": dict(clusters=3, nodes_per_cluster=500, intra_p=0.05, inter_p=0.005, centers_dim=32),
    "wide_100k": dict(
        clusters=3, nodes_per_cluster=33_333, intra_p=10 / 33_333, inter_p=0.5 / 33_333
    ),
}
KNN_ROWS, KNN_DIM, KNN_K = (1500, 3000, 9000), 8, 7
KNN_EMBEDDINGS = {
    "deep": dict(clusters=3, nodes_per_cluster=100, intra_p=0.3, inter_p=0.02),
    "wide": GENERATOR_SPECS["wide"],
    "wide_9000": dict(clusters=3, nodes_per_cluster=3000, intra_p=10 / 3000, inter_p=0.5 / 3000),
    "wide_100k": dict(
        clusters=3, nodes_per_cluster=33_334, intra_p=10 / 33_334, inter_p=0.5 / 33_334
    ),
}
KNN_LAYERS = 64
# Cora's shape (Pei et al. 2020): 7 classes, 1433 features, mean degree about
# 4 at edge homophily 0.81, drawn as equal clusters.
KNN_FEATURES = {
    "cora": dict(clusters=7, nodes_per_cluster=387, intra_p=0.81 * 4 / 386,
                 inter_p=0.19 * 4 / 2322, centers_dim=1433),
}
# Past this n an embedding is a scale case, timed in fewer repeats against a
# 3 s target for the kNN at n = 10^5.
KNN_SCALE_N, KNN_SCALE_TARGET_MS, SCALE_REPEATS = 30_000, 3000.0, 3
LAYER_CASES = {
    # name: (cluster spec, layers, p = q)
    "n300_L10000": (KNN_EMBEDDINGS["deep"], 10_000, 0.5),
    "deep": (KNN_EMBEDDINGS["deep"], 256, 0.5),
    "n9000_L64": (
        dict(clusters=3, nodes_per_cluster=3000, intra_p=0.01 / 3, inter_p=0.0005 / 3),
        64,
        0.5,
    ),
    "wide_n3000_L64": (GENERATOR_SPECS["wide"], 64, 0.0),
}
# The graphs whose operator build the ``operators`` rows time, with no forward pass.
OPERATOR_SPECS = {"wide_100k": KNN_EMBEDDINGS["wide_100k"]}
# The graphs whose operators the kernels rows multiply by.
KERNEL_SPECS = {name: GENERATOR_SPECS[name] for name in ("wide", "files", "wide_100k")}
# The crossover sweep: node counts, shares of the n^2 entries filled, width.
CROSSOVER_N, CROSSOVER_FILL, CROSSOVER_WIDTH = (64, 128, 192, 256, 320, 384, 448, 512), (
    1 / 64, 1 / 32, 1 / 16, 1 / 8, 1 / 4), 8
# The benchmark's ``wide`` workload at run seed 0, as the import case's seed.
WIDE_SEED = {"synthetic.clusters": "3", "synthetic.nodes_per_cluster": "1000",
             "synthetic.intra_p": "0.01", "synthetic.inter_p": "0.0005",
             "propagation.layers": "64", "seeds": "0"}
# The benchmark's workloads whose label path the labels case times: their
# config keys, and the spec of the saved graph a dataset workload loads.
LABEL_CASES = {
    "deep": ({"synthetic.nodes_per_cluster": "100", "propagation.layers": "256",
              "propagation.p": "0.5", "propagation.q": "0.5"}, None),
    "files": ({"dataset.path": "files", "propagation.layers": "64"}, "files"),
    "wide": ({key: value for key, value in WIDE_SEED.items() if key != "seeds"}, None),
}
LABEL_REPEAT_S = 0.02  # a labels repeat makes as many calls as fill this
IMPORT_CHILD = """\
import json, resource, sys, time
start = time.perf_counter()
import graphain.experiment
import_ms = (time.perf_counter() - start) * 1e3
import_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
from graphain.config import build_experiment_config
cfg = build_experiment_config(json.loads(sys.argv[1]), source="bench.py import")
graphain.experiment.run_experiment(cfg, write_files=False)
seed_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"import_ms": import_ms, "import_rss_mb": import_rss_mb,
                  "seed_rss_mb": seed_rss_mb}))
"""
# A layer's parts, each the self time of the function that does it: the
# product is the centred operator's (the centring rides in it), the skip mix
# residual_combine without its product, the filter soft_spectral_filter
# without its eigendecomposition.
LAYER_PARTS = (
    ("spmm", propagation, "apply_operator"),
    ("skip_mix", propagation, "residual_combine"),
    ("filter", propagation, "soft_spectral_filter"),
    ("eigh", linalg, "sym_eig"),
)


def _summary(samples):
    q1, median, q3 = np.percentile(samples, [25, 50, 75])
    return {"median": float(median), "iqr": float(q3 - q1), "samples": samples}


def _timed(fn, scale, repeats=REPEATS, before=None):
    """Median, IQR and samples of ``repeats`` timed calls of ``fn()``, after
    one untimed call; each sample is the call's seconds times ``scale``.
    ``before()``, when given, runs untimed ahead of every call."""
    before = before or (lambda: None)
    before()
    fn()
    samples = []
    for _ in range(repeats):
        before()
        start = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - start) * scale)
    return _summary(samples)


def _split_pass(fn):
    """Seconds of each of ``LAYER_PARTS`` in one call of ``fn()`` with a timer
    around each part, the rest as ``other`` and the whole as ``wrapped``."""
    totals = dict.fromkeys([name for name, _, _ in LAYER_PARTS], 0.0)
    children = []  # per open part, the seconds spent in the parts it called

    def timer(name, real):
        def timed(*args, **kwargs):
            children.append(0.0)
            start = time.perf_counter()
            try:
                return real(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                totals[name] += elapsed - children.pop()
                if children:
                    children[-1] += elapsed
        return timed

    reals = [(module, attr, getattr(module, attr)) for _, module, attr in LAYER_PARTS]
    for (name, _, _), (module, attr, real) in zip(LAYER_PARTS, reals):
        setattr(module, attr, timer(name, real))
    try:
        start = time.perf_counter()
        fn()
        wrapped = time.perf_counter() - start
    finally:
        for module, attr, real in reals:
            setattr(module, attr, real)
    totals["other"] = wrapped - sum(totals.values())
    totals["filter"] += totals["eigh"]
    totals["wrapped"] = wrapped
    return totals


def _timed_parts(fn, scale):
    """As ``_timed``, for each field of ``_split_pass(fn)``."""
    _split_pass(fn)
    runs = [_split_pass(fn) for _ in range(REPEATS)]
    return {name: _summary([run[name] * scale for run in runs]) for name in runs[0]}


def _peak_mb(fn):
    """``tracemalloc`` peak of one call of ``fn()``, in MB."""
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 1e6


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu_count": os.cpu_count(),
        "blas_threads": {var: os.environ.get(var, "default") for var in THREAD_VARS},
    }


def _head_rows(rows, classes):
    rng = np.random.default_rng(rows)
    h = rng.standard_normal((rows, HEAD_DIM))
    y = rng.dirichlet(np.ones(classes), size=rows)
    w = rng.standard_normal((HEAD_DIM, classes))
    labels = SoftLabelMatrix(y=y, masked=np.zeros(rows, dtype=bool))
    count = max(50, 60000 // rows) if rows <= 3000 else 10
    cfg = TrainConfig(lr=0.5, epochs=count, weight_decay=5e-4)

    def calls():
        for _ in range(count):
            loss_and_grad(h, y, w, 5e-4)

    return {
        "rows": rows,
        "calls_per_repeat": count,
        "loss_and_grad_us_per_call": _timed(calls, 1e6 / count),
        "train_linear_us_per_epoch": _timed(
            partial(train_linear, h, labels, cfg), 1e6 / count
        ),
    }


def _generator(name):
    spec = SyntheticSpec(**GENERATOR_SPECS[name], seed=0)
    gen_ms = _timed(partial(gen_gaussian_cluster_graph, spec), 1e3)
    return {"spec": name, "n": spec.clusters * spec.nodes_per_cluster, "gen_ms_per_call": gen_ms}


def _blocks(fn):
    """(count, entries) of the blocks of distances that one call of ``fn()``
    forms, counted around ``curriculum._leaf_product``, which returns them."""
    real = curriculum._leaf_product
    products = entries = 0

    def counting(*args):
        nonlocal products, entries
        blocks = real(*args)
        products += 1
        entries += blocks.size
        return blocks

    curriculum._leaf_product = counting
    try:
        fn()
    finally:
        curriculum._leaf_product = real
    return products, entries


def _knn_timed(vectors, repeats=REPEATS):
    call = partial(build_knn_aux_graph, vectors, KNN_K, 1.0)
    products, entries = _blocks(call)
    return {"knn_ms_per_call": _timed(call, 1e3, repeats),
            "knn_tracemalloc_peak_mb": _peak_mb(call),
            "knn_block_entries_per_call": entries,
            "knn_products_per_call": products}


def _knn(n):
    vectors = np.random.default_rng(n).standard_normal((n, KNN_DIM))
    return {"n": n, "dim": KNN_DIM, "k": KNN_K, **_knn_timed(vectors)}


def _knn_embedding(name):
    """The kNN on the rsoft embedding of ``KNN_EMBEDDINGS[name]`` at seed 0."""
    g = gen_gaussian_cluster_graph(SyntheticSpec(**KNN_EMBEDDINGS[name], seed=0))
    cfg = build_experiment_config(
        {"propagation.layers": str(KNN_LAYERS)}, source=f"bench.py aux {name}"
    )
    reducer = make_reducer(g.feature_dim, cfg.embedding_dim, 0)
    vectors = run_fuzzy_r_softgraphain(g, cfg.propagation, reducer=reducer)
    scale = g.n > KNN_SCALE_N
    return {"embedding": name, "n": g.n, "dim": vectors.shape[1], "k": KNN_K,
            "layers": KNN_LAYERS, **({"target_ms": KNN_SCALE_TARGET_MS} if scale else {}),
            **_knn_timed(vectors, SCALE_REPEATS if scale else REPEATS)}


def _knn_features(name):
    """The kNN on the features of ``KNN_FEATURES[name]`` at seed 0."""
    vectors = gen_gaussian_cluster_graph(SyntheticSpec(**KNN_FEATURES[name], seed=0)).features
    return {"features": name, "n": vectors.shape[0], "dim": vectors.shape[1], "k": KNN_K,
            **_knn_timed(vectors)}


def _saved_graph(name):
    spec = SyntheticSpec(**GENERATOR_SPECS[name], seed=0)
    return with_masks(gen_gaussian_cluster_graph(spec), 0.1, 0.2, 0)


def _save_peak_mb(name):
    """The ``tracemalloc`` peak of one ``save_dataset`` call on the graph of
    ``GENERATOR_SPECS[name]``, in MB."""
    g = _saved_graph(name)
    with tempfile.TemporaryDirectory() as tmp:
        return _peak_mb(partial(save_dataset, g, tmp))


def _dataset_io():
    g = _saved_graph("files")
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        save_dataset(g, directory)
        load = partial(load_dataset, directory, require_masks=True)
        return {
            "n": g.n,
            "edges": g.num_edges,
            "feature_dim": g.feature_dim,
            "bytes": sum((directory / name).stat().st_size for name in DATASET_FILES),
            "load_dataset_ms": _timed(load, 1e3, before=io._LOADED.clear),
            "load_dataset_cached_ms": _timed(load, 1e3),
            "save_dataset_ms": _timed(partial(save_dataset, g, directory), 1e3),
            "dataset_digest_ms": _timed(partial(dataset_digest, directory), 1e3),
            "save_dataset_peak_mb": {name: _save_peak_mb(name) for name in ("files", "wide_100k")},
        }


def _operator_ms(g):
    """ms per build of g's centred operator, rsoft's."""
    return _timed(partial(normalized_adjacency, g, "symmetric", True), 1e3)


def _operator(name):
    g = gen_gaussian_cluster_graph(SyntheticSpec(**OPERATOR_SPECS[name], seed=0))
    return {"spec": name, "n": g.n, "operator_nnz": normalized_adjacency(g).matrix.nnz,
            "operator_ms": _operator_ms(g)}


def _layer_case(name):
    spec, layers, decay = LAYER_CASES[name]
    g = gen_gaussian_cluster_graph(SyntheticSpec(**spec, seed=0))
    cfg = build_experiment_config(
        {"propagation.layers": str(layers), "propagation.p": str(decay),
         "propagation.q": str(decay)},
        source=f"bench.py layers {name}",
    )
    reducer = make_reducer(g.feature_dim, cfg.embedding_dim, 0)
    run = partial(run_fuzzy_r_softgraphain, g, cfg.propagation, reducer=reducer)
    op = normalized_adjacency(g)
    return {"case": name, "n": g.n, "operator_nnz": op.matrix.nnz,
            "product": "csc" if op.dense is None else "dense",
            "width": cfg.embedding_dim, "layers": layers, "p_q": decay,
            "operator_ms": _operator_ms(g),
            "us_per_layer": _timed(run, 1e6 / layers),
            "parts_us_per_layer": _timed_parts(run, 1e6 / layers)}


def _kernels(name):
    """One product of scipy's CSR and CSC kernels, width ``CROSSOVER_WIDTH``,
    on the operator of the graph of ``KERNEL_SPECS[name]``, which give the
    same bytes."""
    g = gen_gaussian_cluster_graph(SyntheticSpec(**KERNEL_SPECS[name], seed=0))
    a = normalized_adjacency(g).matrix
    indptr, indices, data = csr_arrays(a)
    m = np.random.default_rng(0).standard_normal((g.n, CROSSOVER_WIDTH))
    out = np.empty_like(m)

    def csr_product(m, out):
        out[...] = 0.0
        _sparsetools.csr_matvecs(
            g.n, g.n, m.shape[1], indptr, indices, data, m.ravel(), out.ravel()
        )
        return out

    if csr_product(m, out).tobytes() != csc_matmul(a, m).tobytes():
        raise RuntimeError(f"{name}: scipy's CSR and CSC kernels give different bytes")
    count = max(5, 20_000_000 // a.nnz)

    def products(product):
        for _ in range(count):
            product(m, out=out)

    return {"spec": name, "n": g.n, "nnz": a.nnz, "products_per_repeat": count,
            "csr_us": _timed(partial(products, csr_product), 1e6 / count),
            "csc_us": _timed(partial(products, partial(csc_matmul, a)), 1e6 / count)}


def _crossover(n, fill):
    """One product of the CSC kernel and of the dense GEMM on a random graph
    of n nodes with about ``fill`` of its n^2 operator entries stored."""
    rng = np.random.default_rng([n, round(1 / fill)])
    iu, ju = np.triu_indices(n, k=1)
    pick = rng.random(iu.size) < (fill * n * n - n) / (n * (n - 1))
    a = normalized_adjacency(
        build_graph(np.column_stack([iu[pick], ju[pick]]), n, np.zeros((n, 1)))
    ).matrix
    dense = dense_csc(a)
    m = rng.standard_normal((n, CROSSOVER_WIDTH))
    out = np.empty_like(m)
    count = max(50, 2_000_000 // (n * n))

    def products(product):
        for _ in range(count):
            product(m, out=out)

    return {"point": f"n={n} fill=1/{round(1 / fill)}", "nnz": a.nnz,
            "dense_pays": dense_pays(n, a.nnz),
            "products_per_repeat": count,
            "csc_us": _timed(partial(products, partial(csc_matmul, a)), 1e6 / count),
            "dense_us": _timed(partial(products, partial(np.matmul, dense)), 1e6 / count)}


def _per_call_us(fn):
    """(calls a repeat, ``_timed`` summary in us per call), with as many
    calls a repeat as one first, untimed call says fill ``LABEL_REPEAT_S``."""
    start = time.perf_counter()
    fn()
    count = max(1, round(LABEL_REPEAT_S / (time.perf_counter() - start)))

    def calls():
        for _ in range(count):
            fn()

    return count, _timed(calls, 1e6 / count)


def _label_path(name):
    """The label path's calls on workload ``name`` of ``LABEL_CASES`` at run
    seed 0, as ``experiment.run_seed`` makes their inputs."""
    raw, dataset = LABEL_CASES[name]
    cfg = build_experiment_config(raw, source=f"bench.py labels {name}")
    g = prepare_graph(cfg, 0, None if dataset is None else _saved_graph(dataset))
    h = compute_embedding(cfg, g, 0)
    teacher = run_curriculum(g, h, [], cfg.train, 0)
    estimated = estimate_labels_teacher(teacher.probs, g.labels[g.train_mask], g.train_mask)
    filtered = entropy_filter(estimated, cfg.curriculum.mask_ratio, labeled_set=g.train_mask)
    aux = build_knn_aux_graph(h, cfg.curriculum.knn_k, cfg.curriculum.gamma_prime)
    snapshots = smooth_labels(aux, filtered, cfg.curriculum.n_t)
    last = snapshots[-1]
    calls = {
        "smooth_labels": partial(smooth_labels, aux, filtered, cfg.curriculum.n_t),
        "soft_label_matrix": partial(SoftLabelMatrix, y=last.y, masked=last.masked),
        "scoring_run_curriculum": partial(
            run_curriculum, g, h, snapshots, TrainConfig(cfg.train.lr, 0), 0
        ),
        "layer_recorder": partial(LayerRecorder(g), cfg.propagation.layers, h),
    }
    entry = {"workload": name, "n": g.n, "classes": g.num_classes, "n_t": cfg.curriculum.n_t,
             "calls_per_repeat": {}}
    for call, fn in calls.items():
        entry["calls_per_repeat"][call], entry[f"{call}_us"] = _per_call_us(fn)
    return entry


def _fresh_import():
    """The fields of ``IMPORT_CHILD`` from one new interpreter, which inherits
    this one's environment and so its ``PYTHONPATH``."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_CHILD, json.dumps(WIDE_SEED)],
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def _import_and_seed():
    _fresh_import()
    runs = [_fresh_import() for _ in range(REPEATS)]
    return {"spec": "wide", **{name: _summary([run[name] for run in runs]) for name in runs[0]}}


# Each case: the header fields of its report, and what returns one run's results.
CASES = {
    "head": (
        {"dim": HEAD_DIM, "unit": "us"},
        lambda: {f"{classes} classes": [_head_rows(rows, classes) for rows in HEAD_ROWS]
                 for classes in HEAD_CLASSES},
    ),
    "aux": ({"unit": "ms"}, lambda: {"generator": [_generator(name) for name in GENERATOR_SPECS],
                                     "knn": [_knn(n) for n in KNN_ROWS],
                                     "knn_embedding": [_knn_embedding(name)
                                                       for name in KNN_EMBEDDINGS],
                                     "knn_features": [_knn_features(name)
                                                      for name in KNN_FEATURES]}),
    "io": ({"spec": "files", "unit": "ms"}, _dataset_io),
    "layers": ({"unit": "us per layer or product, ms per operator build"},
               lambda: {"cases": [_layer_case(name) for name in LAYER_CASES],
                        "operators": [_operator(name) for name in OPERATOR_SPECS],
                        "kernels": [_kernels(name) for name in KERNEL_SPECS],
                        "crossover": [_crossover(n, fill) for n in CROSSOVER_N
                                      for fill in CROSSOVER_FILL]}),
    "import": ({"spec": "wide", "unit": "ms or MB"}, _import_and_seed),
    "labels": ({"unit": "us"}, lambda: [_label_path(name) for name in LABEL_CASES]),
}


def _medians(results, name=""):
    """(name, median) of each timed field in ``results``; a list entry is
    named by its first field, such as ``rows=30``."""
    if isinstance(results, list):
        for entry in results:
            key, value = next(iter(entry.items()))
            yield from _medians(entry, f"{name} {key}={value}")
    elif "median" in results:
        yield name.strip(), results["median"]
    else:
        for key, value in results.items():
            if isinstance(value, (dict, list)):
                yield from _medians(value, f"{name} {key}")


def record_run(case, label):
    """Run ``case``, append the run to ``runs[label]`` of ``BENCH_<case>.json``
    in the working directory and return every run under ``label``."""
    started = datetime.now(timezone.utc).isoformat(timespec="seconds")
    header, run = CASES[case]
    entry = {"environment": environment(), "started": started, "results": run()}
    out = Path(f"BENCH_{case}.json")
    report = (
        json.loads(out.read_text(encoding="utf-8"))
        if out.exists()
        else {"case": case, **header, "repeats": REPEATS, "runs": {}}
    )
    report["runs"].setdefault(label, []).append(entry)
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return report["runs"][label]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--case", action="append", choices=list(CASES))
    parser.add_argument("--label", default="current")
    args = parser.parse_args()
    for case in args.case or CASES:
        medians = {}
        for run in record_run(case, args.label):
            for name, median in _medians(run["results"]):
                medians.setdefault(name, []).append(median)
        for name, values in medians.items():
            listed = ", ".join(f"{value:.4g}" for value in values)
            print(f"{case} {args.label} {name}: {listed} {CASES[case][0]['unit']}")


if __name__ == "__main__":
    main()
