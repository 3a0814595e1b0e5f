"""Dataset directory format, and how every run file writes a value.

edges.tsv      one `i<TAB>j` pair per line, 0-based, `#` starts a comment
features.csv   row i = features of node i, no header
labels.csv     `node,label` with an optional header line and labels in
               [-1, n), -1 for unlabeled (optional file)
masks.csv      `node,split` with split in {train, val, test} (optional file)

Blank lines are skipped and `#` starts a comment in every file.  A node is
listed at most once in labels.csv and at most once in masks.csv.

Every file is read in bulk.  When every byte of the file is one
``save_dataset`` writes there (`0-9`, TAB and LF in edges.tsv; `0-9 . , - +
e E` and LF in features.csv; `0-9`, comma and LF in labels.csv, and the
letters of the split names too in masks.csv, after the exact header line
``save_dataset`` writes; tested with ``bytes.translate``), one
``np.loadtxt`` call parses the whole file, given the bytes as ASCII, and the
shape, the index range, finiteness, repeated nodes and the split names are
checked on the array.  A file with any other byte, and one that the bulk
parse or its checks reject, goes to the per-line reader: it reads a
hand-written file (comments, spaces, CRLF) as it always has, and on a bad
file raises the ParseError that names the line.  The fast path therefore
changes no result and no error message.

``load_dataset`` keeps the Graphs of the last few datasets it loaded, by
the sha256 of the files' bytes (``dataset_digest``), so a process that runs
the same dataset again, under other configs or seeds, parses it once.  A
Graph is frozen and its arrays read-only, so the runs can share it.  On the
benchmark's `files` dataset (3 x 500 nodes, 32 features, 1.15 MB) a load of
kept bytes took 1.0 ms, nearly all of it reading and hashing them, against
18 ms for a load that parsed them, in alternated runs of ``scripts/bench.py
--case io`` on 2 shared vCPUs; most of a parse is reading 48,000 floats of
17 digits.

``np.loadtxt`` never sees a byte outside the whitelist, for two reasons.
The readers must agree: ``str.splitlines`` also breaks lines at CR, VT, FF
and FS to RS, where ``np.loadtxt`` does not, and the per-line reader strips
tabs, spaces and comments, so without the whitelist some files would parse
differently (``tests/test_io.py`` fuzzes both readers).  And numpy 2.4.6's
``np.loadtxt`` was seen to crash the interpreter on text with astral-plane
characters, which must fail as a ParseError instead.

Run files write each value with ``format_value`` (floats in ``%.17g``, which
reads back bit-equal): ``records_csv`` makes the results and diagnostics CSVs
from their dataclass records, one column per field, and the config echo
formats its values the same way.  Float matrices (features, embeddings,
snapshots) go through ``float_rows``, one ``%`` per row.
"""

from __future__ import annotations

import hashlib
from dataclasses import fields
from io import BytesIO
from pathlib import Path

import numpy as np

from .errors import IndexOutOfRangeError, MissingMaskError, ParseError
from .graph import Graph, build_graph

EDGES_FILE = "edges.tsv"
FEATURES_FILE = "features.csv"
LABELS_FILE = "labels.csv"
MASKS_FILE = "masks.csv"
DATASET_FILES = (EDGES_FILE, FEATURES_FILE, LABELS_FILE, MASKS_FILE)

SPLIT_NAMES = ("train", "val", "test")

_EDGE_BYTES = b"0123456789\t\n"
_FEATURE_BYTES = b"0123456789.,-+eE\n"
_LABEL_BYTES = b"0123456789,\n"
_MASK_BYTES = _LABEL_BYTES + b"trainvalest"  # the letters of SPLIT_NAMES

# dataset_digest -> Graph of the last _LOADED_MAX datasets loaded, oldest
# first.  A Graph is frozen and its arrays read-only, so every load of the
# same bytes can share one.
_LOADED: dict = {}
_LOADED_MAX = 4


def _read_bytes(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except OSError as err:
        raise ParseError(path, 0, f"cannot read file: {err}") from err


def read_dataset_files(directory) -> dict:
    """The bytes of each dataset file present in ``directory``, by name, each
    file read once: a run hashes and parses the same bytes."""
    paths = {name: Path(directory) / name for name in DATASET_FILES}
    return {name: _read_bytes(path) for name, path in paths.items() if path.exists()}


def dataset_digest(directory, files: dict | None = None) -> str:
    """sha256 over the name, length and bytes of each dataset file present;
    ``files`` is ``read_dataset_files(directory)``, read here when None."""
    files = read_dataset_files(directory) if files is None else files
    digest = hashlib.sha256()
    for name, data in files.items():
        digest.update(f"{name} {len(data)}\n".encode("utf-8"))
        digest.update(data)  # not concatenated: that copies the file
    return digest.hexdigest()


def _bulk(data: bytes, allowed: bytes, dtype, delimiter: str):
    """The whole table in one ``np.loadtxt`` call, or None when ``data``
    holds a byte outside ``allowed``, holds no value, or does not parse."""
    if data.translate(None, allowed) or not data.strip():
        return None
    try:
        return np.loadtxt(
            BytesIO(data), dtype=dtype, delimiter=delimiter, encoding="ascii", ndmin=2
        )
    except ValueError:
        return None


def _lines(path: Path, data: bytes):
    """(line number, content) of each line with content, comments and
    surrounding whitespace stripped."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        line_no = data.count(b"\n", 0, err.start) + 1
        raise ParseError(path, line_no, f"not UTF-8: {err.reason}") from err
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield no, line


def _parse_edges(path: Path, data: bytes, n: int) -> np.ndarray:
    edges = []
    for no, line in _lines(path, data):
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
    return np.array(edges, dtype=np.int64).reshape(-1, 2)


def _load_edges(path: Path, data: bytes, n: int) -> np.ndarray:
    edges = _bulk(data, _EDGE_BYTES, np.int64, "\t")
    # the whitelist has no sign, so every parsed index is >= 0
    if edges is not None and edges.shape[1] == 2 and edges.max() < n:
        return edges
    return _parse_edges(path, data, n)


def _parse_features(path: Path, data: bytes) -> np.ndarray:
    rows = []
    line_nos = []
    width = None
    for no, line in _lines(path, data):
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


def _load_features(path: Path, data: bytes) -> np.ndarray:
    features = _bulk(data, _FEATURE_BYTES, np.float64, ",")
    if features is not None and np.isfinite(features).all():
        return features
    return _parse_features(path, data)


def _parse_pairs(path: Path, data: bytes, header: str, n: int):
    """Yield (line number, node, value) for `node,value` lines with nodes in
    [0, n), each node at most once, skipping an optional header on the first
    content line (after any blank or comment lines)."""
    seen = bytearray(n)  # one flag per node; indexed from Python faster than numpy
    for index, (no, line) in enumerate(_lines(path, data)):
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
        if seen[node]:
            raise ParseError(path, no, f"node {node} is listed twice")
        seen[node] = 1
        yield no, node, toks[1]


def _bulk_pairs(data: bytes, header: str, allowed: bytes, value_dtype, n: int):
    """(nodes, values) of a `node,value` file as ``save_dataset`` writes it,
    the header line exactly as written and then whitelisted rows, or None
    when ``_bulk`` refuses the rows or a node is out of range or repeated."""
    head = header.encode("ascii") + b"\n"
    body = data[len(head) :] if data.startswith(head) else data
    table = _bulk(body, allowed, [("node", np.int64), ("value", value_dtype)], ",")
    if table is None:
        return None
    # the whitelist has no sign, so every parsed node is >= 0
    nodes = table["node"].ravel()
    if nodes.max() >= n or np.bincount(nodes).max() > 1:
        return None
    return nodes, table["value"].ravel()


def _load_labels(path: Path, data: bytes, n: int) -> np.ndarray:
    labels = np.full(n, -1, dtype=np.int64)
    pairs = _bulk_pairs(data, "node,label", _LABEL_BYTES, np.int64, n)
    # the whitelist has no sign, so every parsed label is >= 0
    if pairs is not None and pairs[1].max() < n:
        labels[pairs[0]] = pairs[1]
        return labels
    for no, node, value in _parse_pairs(path, data, "node,label", n):
        try:
            labels[node] = int(value)
        except (ValueError, OverflowError) as err:
            raise ParseError(path, no, f"bad label: {err}") from err
        if labels[node] < -1:
            raise ParseError(path, no, f"label {value} is below -1")
        if labels[node] >= n:
            raise ParseError(path, no, f"label {value} is not below the node count {n}")
    return labels


def _load_masks(path: Path, data: bytes, n: int) -> tuple:
    # six characters: a longer value is cut to six, which match no split name
    pairs = _bulk_pairs(data, "node,split", _MASK_BYTES, "U6", n)
    if pairs is not None:
        nodes, splits = pairs
        masks = tuple(nodes[splits == name] for name in SPLIT_NAMES)
        if sum(mask.size for mask in masks) == nodes.size:
            return masks
    split_sets = {name: [] for name in SPLIT_NAMES}
    for no, node, value in _parse_pairs(path, data, "node,split", n):
        if value not in SPLIT_NAMES:
            raise ParseError(path, no, f"unknown split {value!r}")
        split_sets[value].append(node)
    return tuple(split_sets[name] for name in SPLIT_NAMES)


def _parse_dataset(directory: Path, files: dict, require_masks: bool) -> Graph:
    """The Graph of the dataset ``files``, parsed from their bytes."""

    def data(name):  # a missing required file fails as its read does
        return files[name] if name in files else _read_bytes(directory / name)

    features = _load_features(directory / FEATURES_FILE, data(FEATURES_FILE))
    n = features.shape[0]
    edges = _load_edges(directory / EDGES_FILE, data(EDGES_FILE), n)

    labels = None
    if LABELS_FILE in files:
        labels = _load_labels(directory / LABELS_FILE, files[LABELS_FILE], n)

    masks = None
    if MASKS_FILE in files:
        masks = _load_masks(directory / MASKS_FILE, files[MASKS_FILE], n)
    elif require_masks:
        raise MissingMaskError(f"{directory / MASKS_FILE} is missing")

    return build_graph(edges, n, features, y=labels, masks=masks)


def load_dataset(
    directory, require_masks: bool = False, files: dict | None = None, digest: str | None = None
) -> Graph:
    """Read a dataset directory back into a Graph.

    ``files`` is ``read_dataset_files(directory)`` and ``digest`` its
    ``dataset_digest``, each taken here when None.  The Graphs of the last
    ``_LOADED_MAX`` datasets loaded are kept by digest, and a load of the
    same bytes, from any directory, returns the kept Graph and parses
    nothing.  Labels and masks are optional files; ``require_masks`` turns a
    missing or empty train split into MissingMaskError.
    """
    directory = Path(directory)
    files = read_dataset_files(directory) if files is None else files
    digest = dataset_digest(directory, files) if digest is None else digest
    g = _LOADED.get(digest)
    # a required masks file that is missing fails in the parse, as before
    if g is None or (require_masks and MASKS_FILE not in files):
        g = _parse_dataset(directory, files, require_masks)
    _LOADED.pop(digest, None)
    _LOADED[digest] = g  # the newest last
    if len(_LOADED) > _LOADED_MAX:
        del _LOADED[next(iter(_LOADED))]
    if require_masks and g.train_mask.size == 0:
        raise MissingMaskError("dataset has an empty train split")
    return g


def format_value(value) -> str:
    """One value as a run file writes it: None empty, a bool ``true`` or
    ``false``, a float in ``%.17g`` (it reads back bit-equal), a tuple its
    values joined by commas, anything else ``str``."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def records_csv(cls, records) -> str:
    """CSV text of dataclass ``records``: the field names of ``cls`` as the
    header, then one line of ``format_value`` fields per record."""
    names = [field.name for field in fields(cls)]
    lines = [",".join(names)]
    for record in records:
        lines.append(",".join(format_value(getattr(record, name)) for name in names))
    return "".join(line + "\n" for line in lines)


def float_rows(values: np.ndarray) -> list:
    """Each row of a 2-D float array as comma-separated ``%.17g`` values,
    which read back bit-equal; formatted a row at a time from ``tolist``."""
    row = ",".join(["%.17g"] * values.shape[1])
    return [row % tuple(r) for r in values.tolist()]


def save_dataset(g: Graph, directory) -> None:
    """Write a Graph as a dataset directory (labels/masks only when present)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    (directory / EDGES_FILE).write_text(
        "".join(f"{i}\t{j}\n" for i, j in g.edges.tolist()), encoding="utf-8"
    )

    (directory / FEATURES_FILE).write_text(
        "".join(line + "\n" for line in float_rows(g.features)), encoding="utf-8"
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
