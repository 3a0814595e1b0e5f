"""Fuzzing of the input boundary: on any input, the config and dataset
readers return or raise GraphainError, the one type the CLI reports as
`error: ...` with exit code 2."""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphain.config import (
    build_experiment_config,
    load_config,
    parse_config_text,
    render_config,
)
from graphain.errors import GraphainError, ParseError
from graphain.io import (
    EDGES_FILE,
    FEATURES_FILE,
    LABELS_FILE,
    MASKS_FILE,
    SPLIT_NAMES,
    load_dataset,
)

# every key: the echo of the defaults has all but the dataset key
KEYS = ["dataset.path"] + [
    line.split(" = ")[0]
    for line in render_config(build_experiment_config({})).splitlines()
]

# small indices land inside a small graph; the wide range passes int64
INDEX = st.one_of(st.integers(-1, 4), st.integers(-(2**70), 2**70)).map(str)
NUMBER = st.one_of(INDEX, st.floats().map(repr))
SPLIT = st.one_of(INDEX, st.sampled_from(SPLIT_NAMES))
TOKEN = st.one_of(
    NUMBER,
    st.sampled_from(["true", "false", "relu", "random_walk", "pairnorm", "feature_knn"]),
    st.text(max_size=6),
)


@st.composite
def _table(draw, separator, cell, width=None):
    width = width or draw(st.integers(1, 3))
    row = st.lists(cell, min_size=width, max_size=width).map(separator.join)
    return "\n".join(draw(st.lists(row, min_size=1, max_size=6)))


def _file(separator, cell, width=None, header=""):
    """Mostly well-formed rows of ``cell``, so that a run gets past the
    first file; otherwise rows of any token, or any text."""
    return st.one_of(
        _table(separator, cell, width).map(header.__add__),
        _table(separator, TOKEN).map(header.__add__),
        st.text(max_size=20),
    )


def _returns_or_raises_graphain_error(call):
    try:
        call()
    except GraphainError:
        pass


@settings(max_examples=200)
@given(st.dictionaries(st.sampled_from(KEYS), TOKEN, max_size=6))
def test_config_build_raises_only_graphain_errors(values):
    # every error names the config file, as the CLI prints it
    text = "".join(f"{key} = {value}\n" for key, value in values.items())
    try:
        build_experiment_config(parse_config_text(text, "c.txt"), "c.txt")
    except GraphainError as err:
        assert str(err).startswith("c.txt:"), str(err)


@settings(max_examples=100)
@given(st.binary(max_size=64))
def test_load_config_raises_only_graphain_errors(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.txt"
        path.write_bytes(data)
        _returns_or_raises_graphain_error(lambda: load_config(path))


@settings(max_examples=200)
@given(
    edges=_file("\t", INDEX, width=2),
    features=_file(",", NUMBER),
    labels=st.one_of(st.none(), _file(",", INDEX, width=2, header="node,label\n")),
    masks=st.one_of(st.none(), _file(",", SPLIT, width=2, header="node,split\n")),
)
def test_load_dataset_raises_only_graphain_errors(edges, features, labels, masks):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / EDGES_FILE).write_text(edges, encoding="utf-8")
        (root / FEATURES_FILE).write_text(features, encoding="utf-8")
        if labels is not None:
            (root / LABELS_FILE).write_text(labels, encoding="utf-8")
        if masks is not None:
            (root / MASKS_FILE).write_text(masks, encoding="utf-8")
        _returns_or_raises_graphain_error(lambda: load_dataset(root))


# A valid 5-node graph, so that every example reaches the fuzzed file
VALID_EDGES = "0\t1\n1\t2\n2\t3\n3\t4\n"
VALID_FEATURES = "".join(f"{i}.5,-{i}\n" for i in range(5))
NODE = st.one_of(st.integers(0, 4).map(str), INDEX)
# (header, value cells, the ParseErrors that fuzzing must reach)
PAIR_FILES = {
    LABELS_FILE: ("node,label\n", INDEX, ("is listed twice", "is below -1")),
    MASKS_FILE: (
        "node,split\n",
        st.one_of(st.sampled_from(SPLIT_NAMES), SPLIT),
        ("is listed twice", "unknown split"),
    ),
}


@pytest.mark.parametrize("name", sorted(PAIR_FILES))
def test_labels_and_masks_readers_raise_only_graphain_errors(name):
    header, value, expected = PAIR_FILES[name]
    rows = st.lists(st.tuples(NODE, value).map(",".join), min_size=1, max_size=6)
    table = rows.map("\n".join)
    messages = []

    @settings(max_examples=150)
    @given(st.one_of(table.map(header.__add__), table, st.text(max_size=20)))
    def fuzz(text):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            (root / EDGES_FILE).write_text(VALID_EDGES, encoding="utf-8")
            (root / FEATURES_FILE).write_text(VALID_FEATURES, encoding="utf-8")
            (root / name).write_text(text, encoding="utf-8")
            try:
                load_dataset(root)
            except ParseError as err:
                messages.append(str(err))
            except GraphainError:
                pass

    fuzz()
    for text in expected:
        assert any(text in message for message in messages), text
