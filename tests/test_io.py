"""The bulk readers of the dataset files against the per-line readers they
fall back to, and the bytes of ``save_dataset``, the snapshots and the
embeddings, written a block at a time, against the whole-string writers they
replaced."""

import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphain import cli, io
from graphain.curriculum import export_snapshots
from graphain.errors import GraphainError, IndexOutOfRangeError, MissingMaskError, ParseError
from graphain.graph import build_graph
from graphain.labels import SoftLabelMatrix
from graphain.synthetic import SyntheticSpec, gen_gaussian_cluster_graph, with_masks

ROOT = Path(__file__).resolve().parents[1]

# every byte class on which the two readers could part: line breaks that only
# str.splitlines honours, stripped whitespace, comments, and what float() reads
PIECES = list("0123456789\t,.-+eE#_\r\x0b\x0c\x1c \n") + ["inf", "nan", "\n", "\n"]
NOISE = st.lists(st.sampled_from(PIECES), max_size=30).map("".join)
FLOAT = st.one_of(
    st.floats().map(lambda v: "%.17g" % v),
    st.integers(-3, 3).map(str),
    st.sampled_from(["1.", ".5", "+1", "1e5", "1E-5", "007", "1e999", "-0"]),
)
INDEX = st.one_of(st.integers(0, 5).map(str), st.sampled_from(["007", "99999999999999999999"]))


@st.composite
def _table(draw, cell, separator):
    """Rows of cells, one-row and one-column tables included, sometimes with
    one piece spliced in anywhere."""
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 3))
    text = "\n".join(
        separator.join(draw(cell) for _ in range(cols)) for _ in range(rows)
    ) + draw(st.sampled_from(["", "\n", "\n\n"]))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(PIECES)) + text[at:]
    return text


def _file(cell, separator):
    return st.one_of(_table(cell, separator), NOISE, st.just(""))


GRAPH_ARRAYS = ("edges", "features", "labels", "train_mask", "val_mask", "test_mask")


def _outcome(call):
    """The arrays of the graph ``call`` returns, or its error's type and text."""
    try:
        g = call()
    except GraphainError as err:
        return type(err), str(err)
    arrays = (getattr(g, name) for name in GRAPH_ARRAYS)
    return g.n, *((a.dtype.str, a.shape, a.tobytes()) for a in arrays)


def _cold_load(root: Path, **kwargs):
    """load_dataset with no Graph kept, so that it parses the files."""
    io._LOADED.clear()
    return io.load_dataset(root, **kwargs)


def _load_again(root: Path, first):
    """Check that a second load of ``root`` gives ``first`` again: the kept
    Graph, with nothing parsed, when the first load was accepted."""
    accepted = isinstance(first[0], int)
    assert (io.dataset_digest(root) in io._LOADED) == accepted
    if not accepted:
        assert _outcome(lambda: io.load_dataset(root)) == first
        return
    with mock.patch.object(io, "_parse_dataset", side_effect=AssertionError("parsed")):
        assert _outcome(lambda: io.load_dataset(root)) == first


def _per_line(root: Path):
    """load_dataset with the per-line reader alone, in load_dataset's order."""
    path = root / io.FEATURES_FILE
    features = io._parse_features(path, path.read_bytes())
    n = features.shape[0]
    path = root / io.EDGES_FILE
    edges = io._parse_edges(path, path.read_bytes(), n)
    return build_graph(edges, n, features)


@settings(max_examples=400, deadline=None)
@given(edges=_file(INDEX, "\t"), features=_file(FLOAT, ","))
def test_bulk_and_per_line_readers_agree(edges, features):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / io.EDGES_FILE).write_text(edges, encoding="utf-8", newline="")
        (root / io.FEATURES_FILE).write_text(features, encoding="utf-8", newline="")
        first = _outcome(lambda: _cold_load(root))
        assert first == _outcome(lambda: _per_line(root))
        _load_again(root, first)




# the cells that make a pair file fail or leave the bulk path, in a graph of
# 8 nodes: out of range, zero-padded, too large, empty, negative, misnamed
BAD_CELLS = ["8", "007", "9" * 20, "", "-1", "-2", "trains", "tes", "1", " 3"]
PAIR_FILES = {
    io.LABELS_FILE: ("node,label", st.integers(0, 12).map(str)),
    io.MASKS_FILE: ("node,split", st.sampled_from(io.SPLIT_NAMES)),
}


@st.composite
def _pair_file(draw, header, value):
    """``save_dataset``'s form (an optional header, then `node,value` rows on
    distinct nodes), sometimes with a row repeated, a bad cell, the last
    line break dropped, or one piece spliced in anywhere."""
    nodes = draw(st.lists(st.integers(0, 7), min_size=1, max_size=6, unique=True))
    cells = [[str(node), draw(value)] for node in nodes]
    if draw(st.integers(0, 3)) == 0:
        cells.append(list(draw(st.sampled_from(cells))))
    if draw(st.integers(0, 3)) == 0:
        row = draw(st.sampled_from(cells))
        row[draw(st.integers(0, 1))] = draw(st.sampled_from(BAD_CELLS))
    text = draw(st.sampled_from(["", header + "\n"]))
    text += "".join(f"{node},{val}\n" for node, val in cells)
    if draw(st.booleans()):
        text = text[:-1]
    if draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(PIECES + [","])) + text[at:]
    return text


@pytest.mark.parametrize("name", sorted(PAIR_FILES))
def test_bulk_and_per_line_pair_readers_agree(name):
    @settings(max_examples=150, deadline=None)
    @given(_pair_file(*PAIR_FILES[name]))
    def check(text):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            (root / io.EDGES_FILE).write_text("0\t1\n", encoding="utf-8")
            (root / io.FEATURES_FILE).write_text("0\n" * 8, encoding="utf-8")
            (root / name).write_text(text, encoding="utf-8", newline="")
            bulk = _outcome(lambda: _cold_load(root))
            _load_again(root, bulk)
            with mock.patch.object(io, "_bulk_pairs", return_value=None):
                assert bulk == _outcome(lambda: _cold_load(root))

    check()


_ASTRAL_CHECK = """
import sys, tempfile
from pathlib import Path
from graphain.errors import ParseError
from graphain.io import load_dataset

root = Path(tempfile.mkdtemp())
good = {"features.csv": "0.0\\n0.0\\n", "edges.tsv": "0\\t1\\n"}
for name in good:
    for other, text in good.items():
        (root / other).write_text(text, encoding="utf-8")
    for _ in range(300):
        (root / name).write_text(good[name] + "\\U0010b354\\n", encoding="utf-8")
        try:
            load_dataset(root)
        except ParseError as err:
            assert (Path(err.path).name, err.line_no) == (name, good[name].count("\\n") + 1), err
        else:
            sys.exit(f"{name}: no ParseError")
print("ok")
"""


def test_astral_text_raises_parse_error_without_crashing():
    # numpy 2.4's loadtxt can crash the interpreter on such text; a crash
    # here fails this test instead of ending the test session
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", _ASTRAL_CHECK],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


FILES_SPECS = {
    "files": dict(clusters=3, nodes_per_cluster=500, intra_p=0.05, inter_p=0.005, centers_dim=32),
    "tiny": dict(clusters=3, nodes_per_cluster=15, intra_p=0.3, inter_p=0.02, centers_dim=16),
    # Cora's width: five rows a block, and the last block holds two
    "wide": dict(clusters=3, nodes_per_cluster=9, intra_p=0.5, inter_p=0.2, centers_dim=1433),
}


def _legacy_save(g, directory: Path):
    """The per-value writer save_dataset replaced, each file one string."""
    edge_lines = [f"{i}\t{j}" for i, j in g.edges]
    (directory / io.EDGES_FILE).write_text(
        "\n".join(edge_lines) + ("\n" if edge_lines else ""), encoding="utf-8"
    )
    feat_lines = [",".join(format(v, ".17g") for v in row) for row in g.features]
    (directory / io.FEATURES_FILE).write_text("\n".join(feat_lines) + "\n", encoding="utf-8")
    label_lines = ["node,label"] + [f"{v},{g.labels[v]}" for v in range(g.n) if g.labels[v] >= 0]
    if len(label_lines) > 1:
        (directory / io.LABELS_FILE).write_text("\n".join(label_lines) + "\n", encoding="utf-8")
    masks = (g.train_mask, g.val_mask, g.test_mask)
    mask_lines = ["node,split"]
    mask_lines += [f"{v},{name}" for name, mask in zip(io.SPLIT_NAMES, masks) for v in mask]
    if len(mask_lines) > 1:
        (directory / io.MASKS_FILE).write_text("\n".join(mask_lines) + "\n", encoding="utf-8")


def _saved_as_before(g, tmp_path: Path):
    """Save ``g`` with save_dataset and with ``_legacy_save``, and check that
    the same files hold the same bytes."""
    io.save_dataset(g, tmp_path / "new")
    (tmp_path / "old").mkdir()
    _legacy_save(g, tmp_path / "old")
    assert sorted(p.name for p in (tmp_path / "new").iterdir()) == sorted(
        p.name for p in (tmp_path / "old").iterdir()
    )
    for file in (tmp_path / "old").iterdir():
        assert (tmp_path / "new" / file.name).read_bytes() == file.read_bytes(), file.name


@pytest.mark.parametrize("name", sorted(FILES_SPECS))
def test_saved_files_are_written_as_before_and_read_in_bulk(tmp_path, monkeypatch, name):
    g = gen_gaussian_cluster_graph(SyntheticSpec(**FILES_SPECS[name], seed=3))
    g = with_masks(g, 0.1, 0.2, 3)
    _saved_as_before(g, tmp_path)
    assert len(list((tmp_path / "new").iterdir())) == len(io.DATASET_FILES)

    def no_fallback(path, *args):
        raise AssertionError(f"{path} left the bulk path")

    monkeypatch.setattr(io, "_parse_edges", no_fallback)
    monkeypatch.setattr(io, "_parse_features", no_fallback)
    monkeypatch.setattr(io, "_parse_pairs", no_fallback)
    loaded = io.load_dataset(tmp_path / "new", require_masks=True)
    for field in ("edges", "features", "labels", "train_mask", "val_mask", "test_mask"):
        got, want = getattr(loaded, field), getattr(g, field)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), field


def test_an_edgeless_graph_with_rows_wider_than_a_block_is_saved_as_before(tmp_path):
    # one row is more values than a block holds, so each block is one row;
    # unlabeled nodes, an empty split and split boundaries inside a block
    rng = np.random.default_rng(0)
    labels = np.array([0, 1, -1, 2, -1, 1, 0])
    masks = (np.array([0, 1, 3]), np.array([], dtype=np.int64), np.array([6, 5, 2]))
    g = build_graph([], 7, rng.standard_normal((7, io.BLOCK_VALUES + 1)), y=labels, masks=masks)
    _saved_as_before(g, tmp_path)
    assert (tmp_path / "new" / io.EDGES_FILE).read_bytes() == b""
    loaded = io.load_dataset(tmp_path / "new")
    assert _outcome(lambda: loaded) == _outcome(lambda: g)


def test_a_saved_graph_is_written_a_block_at_a_time(tmp_path):
    # 3 x 10,000 nodes, 165,163 edges: the whole-string writer peaked at
    # 35 MB, the block writer at 0.88 MB
    spec = SyntheticSpec(clusters=3, nodes_per_cluster=10_000, intra_p=10 / 10_000,
                         inter_p=0.5 / 10_000, seed=0)
    g = with_masks(gen_gaussian_cluster_graph(spec), 0.1, 0.2, 0)
    tracemalloc.start()
    try:
        io.save_dataset(g, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def test_snapshots_and_embeddings_in_several_blocks_are_written_as_one_string(tmp_path):
    rng = np.random.default_rng(0)
    snaps = []
    for n, classes in ((3 * io.BLOCK_VALUES // 4 + 1, 3), (3, io.BLOCK_VALUES)):
        y = rng.random((n, classes))
        y /= y.sum(axis=1, keepdims=True)
        masked = rng.random(n) < 0.25
        y[masked] = 0.0
        snaps.append(SoftLabelMatrix(y=y, masked=masked))
    for snap, path in zip(snaps, export_snapshots(snaps, tmp_path / "snapshots")):
        header = "node," + ",".join(f"class_{c}" for c in range(snap.num_classes))
        lines = [header] + [f"{node},{row}" for node, row in enumerate(io.float_rows(snap.y))]
        assert path.read_text(encoding="utf-8").split("\n") == [*lines, ""]
    for h in (rng.standard_normal((2 * io.BLOCK_VALUES // 8 + 3, 8)),
              rng.standard_normal((2, io.BLOCK_VALUES + 7))):
        cli._write_embeddings(h, tmp_path / "embeddings.csv")
        text = (tmp_path / "embeddings.csv").read_text(encoding="utf-8")
        assert text.split("\n") == [*io.float_rows(h), ""]


def _saved_tiny(directory: Path, seed: int = 3):
    g = gen_gaussian_cluster_graph(SyntheticSpec(**FILES_SPECS["tiny"], seed=seed))
    io.save_dataset(with_masks(g, 0.1, 0.2, seed), directory)


def test_the_same_bytes_in_any_directory_give_the_kept_graph(tmp_path):
    _saved_tiny(tmp_path / "a")
    _saved_tiny(tmp_path / "b")
    first = io.load_dataset(tmp_path / "a", require_masks=True)
    with mock.patch.object(io, "_parse_dataset", side_effect=AssertionError("parsed")):
        assert io.load_dataset(tmp_path / "b", require_masks=True) is first
    # an edited file is other bytes: parsed, and kept beside the first
    with (tmp_path / "b" / io.EDGES_FILE).open("a") as edges:
        edges.write("# a comment\n")
    with mock.patch.object(io, "_parse_dataset", wraps=io._parse_dataset) as parse:
        edited = io.load_dataset(tmp_path / "b", require_masks=True)
    assert parse.call_count == 1 and edited is not first
    assert _outcome(lambda: edited) == _outcome(lambda: first)
    assert list(io._LOADED.values()) == [first, edited]


def test_the_last_loaded_graphs_are_kept(tmp_path):
    dirs = [tmp_path / str(seed) for seed in range(io._LOADED_MAX + 1)]
    for seed, directory in enumerate(dirs):
        _saved_tiny(directory, seed)
    graphs = [io.load_dataset(directory) for directory in dirs[:-1]]
    assert io.load_dataset(dirs[0]) is graphs[0]  # now the newest
    io.load_dataset(dirs[-1])  # drops the oldest, dirs[1]'s
    assert [io.dataset_digest(d) in io._LOADED for d in dirs] == [True, False, True, True, True]
    with mock.patch.object(io, "_parse_dataset", wraps=io._parse_dataset) as parse:
        assert io.load_dataset(dirs[1]) is not graphs[1]
    assert parse.call_count == 1


def test_a_rejected_dataset_is_not_kept(tmp_path):
    _saved_tiny(tmp_path)
    with mock.patch.object(io, "build_graph", side_effect=IndexOutOfRangeError("rejected")):
        with pytest.raises(IndexOutOfRangeError, match="^rejected$"):
            io.load_dataset(tmp_path)
    assert io._LOADED == {}


def test_a_kept_graph_without_masks_fails_when_masks_are_required(tmp_path):
    _saved_tiny(tmp_path)
    (tmp_path / io.MASKS_FILE).unlink()
    kept = io.load_dataset(tmp_path)
    with pytest.raises(MissingMaskError, match="masks.csv is missing"):
        io.load_dataset(tmp_path, require_masks=True)
    assert io.load_dataset(tmp_path) is kept
    # an empty train split fails on the kept Graph as on a parsed one
    (tmp_path / io.MASKS_FILE).write_text("node,split\n0,test\n")
    for _ in range(2):
        with pytest.raises(MissingMaskError, match="empty train split"):
            io.load_dataset(tmp_path, require_masks=True)


def test_extreme_floats_round_trip_bit_equal(tmp_path):
    x = np.array(
        [[-0.0, 5e-324, 1.7976931348623157e308], [1e16, -2.2250738585072014e-308, 0.1]]
    )
    g = build_graph([(0, 1)], 2, x)
    io.save_dataset(g, tmp_path)
    assert io.load_dataset(tmp_path).features.tobytes() == x.tobytes()


@pytest.mark.parametrize(
    "name, content, line",
    [
        (io.EDGES_FILE, "0\t1\n1\t7\n", 2),
        (io.EDGES_FILE, "0\t1\n1\n", 2),
        (io.FEATURES_FILE, "0.0\n1e999\n", 2),
        (io.FEATURES_FILE, "0.0\n\n0.0,1.0\n", 3),
        (io.LABELS_FILE, "node,label\n0,1\n1,4000000000000\n", 3),
    ],
    ids=["edge_past_n", "edge_one_column", "feature_overflow", "feature_width",
         "label_past_n"],
)
def test_whitelisted_bad_files_fail_at_their_line(tmp_path, name, content, line):
    (tmp_path / io.FEATURES_FILE).write_text("0.0\n0.0\n")
    (tmp_path / io.EDGES_FILE).write_text("0\t1\n")
    (tmp_path / name).write_text(content)
    with pytest.raises(ParseError) as err:
        io.load_dataset(tmp_path)
    assert (err.value.path, err.value.line_no) == (str(tmp_path / name), line)


@pytest.mark.parametrize(
    "value, text",
    [
        (float("nan"), "nan"),
        (float("inf"), "inf"),
        (float("-inf"), "-inf"),
        (-0.0, "-0"),
        (None, ""),
        (True, "true"),
        (False, "false"),
        ((0, 3, 12), "0,3,12"),
        (7, "7"),
        ("rsoft", "rsoft"),
    ],
)
def test_format_value(value, text):
    assert io.format_value(value) == text


@pytest.mark.parametrize("value", [0.1, 1e-300, 5e-324, -2.2250738585072014e-308])
def test_format_value_floats_read_back_bit_equal(value):
    text = io.format_value(value)
    assert float(text) == value
    assert np.float64(float(text)).tobytes() == np.float64(value).tobytes()


def test_records_csv_header_is_the_field_names():
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class Row:
        seed: int
        name: str
        value: float
        extra: float | None

    text = io.records_csv(Row, [Row(3, "val", 0.1, None), Row(4, "test", -0.0, 2.5)])
    assert text == "seed,name,value,extra\n3,val,0.10000000000000001,\n4,test,-0,2.5\n"
    assert io.records_csv(Row, []) == "seed,name,value,extra\n"
