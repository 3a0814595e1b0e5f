"""Dataset directory format.

edges.tsv      one `i<TAB>j` pair per line, 0-based, `#` starts a comment
features.csv   row i = features of node i, no header
labels.csv     `node,label` with a header line (optional file)
masks.csv      `node,split` with split in {train, val, test} (optional file)
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from .errors import IndexOutOfRangeError, MissingMaskError, ParseError
from .graph import Graph, build_graph

EDGES_FILE = "edges.tsv"
FEATURES_FILE = "features.csv"
LABELS_FILE = "labels.csv"
MASKS_FILE = "masks.csv"

SPLIT_NAMES = ("train", "val", "test")


def _read_bytes(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except OSError as err:
        raise ParseError(path, 0, f"cannot read file: {err}") from err


def dataset_digest(directory) -> str:
    """sha256 over the name, length and bytes of each dataset file present."""
    digest = hashlib.sha256()
    for name in (EDGES_FILE, FEATURES_FILE, LABELS_FILE, MASKS_FILE):
        path = Path(directory) / name
        if path.exists():
            data = _read_bytes(path)
            digest.update(f"{name} {len(data)}\n".encode("utf-8") + data)
    return digest.hexdigest()


def _read_lines(path: Path):
    data = _read_bytes(path)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        line_no = data.count(b"\n", 0, err.start) + 1
        raise ParseError(path, line_no, f"not UTF-8: {err.reason}") from err
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield no, line


def _load_edges(path: Path, n: int):
    edges = []
    for no, line in _read_lines(path):
        toks = line.split("\t")
        if len(toks) == 1:
            toks = line.split()
        if len(toks) != 2:
            raise ParseError(path, no, f"expected `i<TAB>j`, got {line!r}")
        try:
            i, j = int(toks[0]), int(toks[1])
        except ValueError as err:
            raise ParseError(path, no, f"bad node index: {err}") from err
        if not (0 <= i < n and 0 <= j < n):
            raise ParseError(path, no, f"node index outside [0, {n}) in {line!r}")
        edges.append((i, j))
    return edges


def _load_features(path: Path) -> np.ndarray:
    rows = []
    line_nos = []
    width = None
    for no, line in _read_lines(path):
        toks = line.split(",")
        if width is None:
            width = len(toks)
        elif len(toks) != width:
            raise ParseError(path, no, f"expected {width} columns, got {len(toks)}")
        try:
            rows.append([float(t) for t in toks])
        except ValueError as err:
            raise ParseError(path, no, f"bad float: {err}") from err
        line_nos.append(no)
    if not rows:
        raise ParseError(path, 1, "empty feature file")
    features = np.asarray(rows, dtype=np.float64)
    bad = np.argwhere(~np.isfinite(features))
    if bad.size:
        row, col = bad[0]
        raise ParseError(
            path, line_nos[row], f"column {col + 1} is {features[row, col]}, not finite"
        )
    return features


def _load_pairs(path: Path, header: str, n: int):
    """Yield (line number, node, value) for `node,value` lines with nodes in
    [0, n), skipping an optional header on the first content line (after any
    blank or comment lines)."""
    for index, (no, line) in enumerate(_read_lines(path)):
        if index == 0 and line.replace(" ", "") == header:
            continue
        toks = [t.strip() for t in line.split(",")]
        if len(toks) != 2:
            raise ParseError(path, no, f"expected `node,value`, got {line!r}")
        try:
            node = int(toks[0])
        except ValueError as err:
            raise ParseError(path, no, f"bad node index: {err}") from err
        if not 0 <= node < n:
            raise IndexOutOfRangeError(f"{path}:{no}: node {node} outside [0, {n})")
        yield no, node, toks[1]


def load_dataset(directory, require_masks: bool = False) -> Graph:
    """Read a dataset directory back into a Graph.

    Labels and masks are optional files; ``require_masks`` turns a missing or
    empty train split into MissingMaskError.
    """
    directory = Path(directory)
    features = _load_features(directory / FEATURES_FILE)
    n = features.shape[0]
    edges = _load_edges(directory / EDGES_FILE, n)

    labels = None
    labels_path = directory / LABELS_FILE
    if labels_path.exists():
        labels = np.full(n, -1, dtype=np.int64)
        for no, node, value in _load_pairs(labels_path, "node,label", n):
            try:
                labels[node] = int(value)
            except (ValueError, OverflowError) as err:
                raise ParseError(labels_path, no, f"bad label: {err}") from err
            if labels[node] < -1:
                raise ParseError(labels_path, no, f"label {value} is below -1")

    masks = None
    masks_path = directory / MASKS_FILE
    if masks_path.exists():
        split_sets = {name: [] for name in SPLIT_NAMES}
        for no, node, value in _load_pairs(masks_path, "node,split", n):
            if value not in SPLIT_NAMES:
                raise ParseError(masks_path, no, f"unknown split {value!r}")
            split_sets[value].append(node)
        masks = tuple(split_sets[name] for name in SPLIT_NAMES)
    elif require_masks:
        raise MissingMaskError(f"{masks_path} is missing")

    g = build_graph(edges, n, features, y=labels, masks=masks)
    if require_masks and g.train_mask.size == 0:
        raise MissingMaskError("dataset has an empty train split")
    return g


def save_dataset(g: Graph, directory) -> None:
    """Write a Graph as a dataset directory (labels/masks only when present)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    edge_lines = [f"{i}\t{j}" for i, j in g.edges]
    (directory / EDGES_FILE).write_text(
        "\n".join(edge_lines) + ("\n" if edge_lines else ""), encoding="utf-8"
    )

    feat_lines = [
        ",".join(format(v, ".17g") for v in row) for row in g.features
    ]
    (directory / FEATURES_FILE).write_text(
        "\n".join(feat_lines) + "\n", encoding="utf-8"
    )

    labeled = np.flatnonzero(g.labels >= 0)
    if labeled.size:
        lines = ["node,label"]
        lines.extend(f"{int(v)},{int(g.labels[v])}" for v in labeled)
        (directory / LABELS_FILE).write_text("\n".join(lines) + "\n", encoding="utf-8")

    if g.train_mask.size or g.val_mask.size or g.test_mask.size:
        lines = ["node,split"]
        for name, mask in zip(SPLIT_NAMES, (g.train_mask, g.val_mask, g.test_mask)):
            lines.extend(f"{int(v)},{name}" for v in mask)
        (directory / MASKS_FILE).write_text("\n".join(lines) + "\n", encoding="utf-8")
