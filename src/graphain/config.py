"""Flat key/value experiment configuration.

Format: one `key = value` per line, `#` starts a comment, keys are dotted
and case-sensitive.  Unknown and repeated keys are hard errors.  `_KEYS` is
the one list of keys: each entry gives a key's parser, default and meaning
and the `ExperimentConfig` attribute it sets, and parsing, defaults,
construction, the canonical echo and the config hash are all read from it.
Each key also names the conditions under which a run reads it: the echo and
the hash keep a key only when all of them hold, and a key given when one
fails is a ConfigError.  So a config names either a dataset directory or the
synthetic graph, not both, and a baseline variant takes none of rsoft's
mixing, filter, decay or activation keys.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from operator import attrgetter
from pathlib import Path
from typing import Callable

from .classifier import TrainConfig
from .curriculum import AUX_MODES
from .errors import ConfigError, InvalidCoefficientsError
from .io import dataset_digest, format_value
from .linalg import SpectralFilterParams
from .propagation import VARIANTS, PropagationConfig
from .synthetic import SyntheticSpec


@dataclass(frozen=True)
class CurriculumParams:
    n_t: int
    knn_k: int
    gamma_prime: float
    mask_ratio: float
    aux_mode: str
    pacing_epochs: int

    def __post_init__(self):
        for name in ("n_t", "pacing_epochs"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.knn_k < 1:
            raise ConfigError(f"knn_k must be >= 1, got {self.knn_k}")
        if self.aux_mode not in AUX_MODES:
            raise ConfigError(f"unknown aux_mode {self.aux_mode!r}")
        if not 0.0 <= self.mask_ratio <= 1.0:
            raise ConfigError("mask_ratio must be in [0, 1]")
        if not math.isfinite(self.gamma_prime):
            raise ConfigError(f"gamma_prime must be finite, got {self.gamma_prime}")
        if self.gamma_prime <= 0.0:
            raise ConfigError("gamma_prime must be positive")


@dataclass(frozen=True)
class ExperimentConfig:
    """A run's settings.  ``curriculum`` is None for the supervised fit alone
    (``graphain train``), which then reads no ``curriculum.*`` key."""

    dataset_path: str | None
    synthetic: SyntheticSpec | None
    train_frac: float
    val_frac: float
    propagation: PropagationConfig
    embedding_dim: int
    variant: str
    curriculum: CurriculumParams | None
    train: TrainConfig
    noisy_features: bool
    seeds: tuple
    output_dir: str
    deterministic_timing: bool

    def __post_init__(self):
        if (self.dataset_path is None) == (self.synthetic is None):
            raise ConfigError("set exactly one of dataset_path and synthetic")
        if not self.seeds:
            raise ConfigError("need at least one seed")
        for index, seed in enumerate(self.seeds):
            if seed in self.seeds[:index]:
                raise ConfigError(f"seed {seed} is listed twice")
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}")
        if self.embedding_dim < 1:
            raise ConfigError("embedding_dim must be >= 1")
        if self.variant == "rsoft" and self.propagation.filter.d0 > self.embedding_dim:
            raise ConfigError(
                f"{_KEY_OF['propagation.filter.d0']} = {self.propagation.filter.d0} "
                f"exceeds {_KEY_OF['embedding_dim']} = {self.embedding_dim}"
            )
        if not (
            0.0 <= self.train_frac
            and 0.0 <= self.val_frac
            and self.train_frac + self.val_frac <= 1.0
        ):
            raise ConfigError(
                f"{_KEY_OF['train_frac']} and {_KEY_OF['val_frac']} must be "
                "nonnegative and sum to at most 1"
            )


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _finite(raw: str) -> float:
    """float(raw), rejecting nan and the infinities that float accepts."""
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {raw!r}")
    return value


def _seed(raw: str) -> int:
    """int(raw), rejecting the negative values numpy cannot seed from."""
    value = int(raw)
    if value < 0:
        raise ValueError(f"expected a non-negative integer, got {raw.strip()!r}")
    return value


def _parse_seeds(raw: str) -> tuple:
    return tuple(_seed(tok) for tok in raw.split(",") if tok.strip())


# The conditions under which a run reads a key: predicates on the built
# config, each named by the text an error prints for a key given without it.
_RSOFT = "propagation.variant = rsoft"
_CLEAN = "noisy_features = false"
# None only once `graphain train` drops the section, so it heads each
# `curriculum.*` key's conditions, whose others read the section
_CURRICULUM = "a curriculum run, not graphain train"
_SMOOTHING = "curriculum.n_t > 0"
_KNN = "curriculum.aux_mode = feature_knn or embedding_knn"
_SYNTHETIC = "a synthetic graph, not dataset.path"
_DATASET = "dataset.path set"
_HOLDS = {
    _RSOFT: lambda cfg: cfg.variant == "rsoft",
    _CLEAN: lambda cfg: not cfg.noisy_features,
    _CURRICULUM: lambda cfg: cfg.curriculum is not None,
    _SMOOTHING: lambda cfg: cfg.curriculum.n_t > 0,
    _KNN: lambda cfg: cfg.curriculum.aux_mode != "input_graph",
    _SYNTHETIC: lambda cfg: cfg.synthetic is not None,
    _DATASET: lambda cfg: cfg.dataset_path is not None,
}


@dataclass(frozen=True)
class _Key:
    """One config key.

    ``attr`` is the attribute path the key sets on ExperimentConfig, the key
    itself when left empty.  ``hashed`` is false where ``config_hash`` must not
    look: the run manifest and the dataset path (its files' bytes are hashed).
    ``when`` holds the conditions, keys of ``_HOLDS``, under which a run
    reads the key.
    """

    name: str
    parse: Callable[[str], object]
    default: object
    meaning: str
    attr: str = ""
    hashed: bool = True
    when: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "attr", self.attr or self.name)


# In echo order.  A None default means "not set": only dataset configs set it.
_KEYS = (
    _Key("dataset.path", str, None, "dataset directory", attr="dataset_path",
         hashed=False, when=(_DATASET,)),
    _Key("synthetic.clusters", int, 3, "cluster count (>= 2)", when=(_SYNTHETIC,)),
    _Key("synthetic.nodes_per_cluster", int, 100, "nodes in each cluster", when=(_SYNTHETIC,)),
    _Key("synthetic.intra_p", _finite, 0.3, "within-cluster edge probability",
         when=(_SYNTHETIC,)),
    _Key("synthetic.inter_p", _finite, 0.02, "cross-cluster edge probability",
         when=(_SYNTHETIC,)),
    _Key("synthetic.center_spread", _finite, 6.0, "stddev of the cluster centers",
         when=(_SYNTHETIC, _CLEAN)),
    _Key("synthetic.centers_dim", int, 3, "feature dimension of the clusters",
         when=(_SYNTHETIC,)),
    _Key("synthetic.feature_sigma", _finite, 1.0, "per-point feature noise",
         when=(_SYNTHETIC, _CLEAN)),
    _Key("synthetic.train_frac", _finite, 0.1, "stratified train fraction",
         attr="train_frac", when=(_SYNTHETIC,)),
    _Key("synthetic.val_frac", _finite, 0.2, "stratified val fraction (rest is test)",
         attr="val_frac", when=(_SYNTHETIC,)),
    _Key("propagation.alpha", _finite, 0.9,
         "aggregation weight (renormalized with beta, gamma)", when=(_RSOFT,)),
    _Key("propagation.beta", _finite, 0.05, "residual weight", when=(_RSOFT,)),
    _Key("propagation.gamma", _finite, 0.05, "initial-connection weight", when=(_RSOFT,)),
    _Key("propagation.a", _finite, 0.5, "soft-filter strength in [0, 1]",
         attr="propagation.filter.a", when=(_RSOFT,)),
    _Key("propagation.b", _finite, 1.0, "soft-filter exponent in [0, 1]",
         attr="propagation.filter.b", when=(_RSOFT,)),
    _Key("propagation.d0", int, 8, "kept eigenchannels (<= embedding width)",
         attr="propagation.filter.d0", when=(_RSOFT,)),
    _Key("propagation.p", _finite, 0.0, "fuzzy residual decay in [0, 1]", when=(_RSOFT,)),
    _Key("propagation.q", _finite, 0.0, "fuzzy initial decay in [0, 1]", when=(_RSOFT,)),
    _Key("propagation.layers", int, 16, "depth L >= 1"),
    _Key("propagation.activation", str, "identity", "identity | relu", when=(_RSOFT,)),
    _Key("propagation.operator_mode", str, "symmetric", "symmetric | random_walk"),
    _Key("propagation.variant", str, "rsoft", "rsoft | sgc | pairnorm",
         attr="variant"),
    _Key("propagation.embedding_dim", int, 8, "working width d (reducer output)",
         attr="embedding_dim"),
    _Key("curriculum.n_t", int, 10, "smoothing depth", when=(_CURRICULUM,)),
    _Key("curriculum.knn_k", int, 7, "neighbors per node in the auxiliary graph",
         when=(_CURRICULUM, _SMOOTHING, _KNN)),
    _Key("curriculum.gamma_prime", _finite, 1.0, "auxiliary edge-weight exponent",
         when=(_CURRICULUM, _SMOOTHING, _KNN)),
    _Key("curriculum.mask_ratio", _finite, 0.0, "entropy filter ratio in [0, 1]",
         when=(_CURRICULUM,)),
    _Key("curriculum.aux_mode", str, "embedding_knn",
         "input_graph | feature_knn | embedding_knn",
         when=(_CURRICULUM, _CLEAN, _SMOOTHING)),
    _Key("curriculum.pacing_epochs", int, 50, "epochs per smoothing task",
         when=(_CURRICULUM,)),
    _Key("train.lr", _finite, 0.5, "learning rate"),
    _Key("train.epochs", int, 300, "fine-tune / supervised epochs"),
    _Key("train.weight_decay", _finite, 5e-4, "L2 coefficient"),
    _Key("noisy_features", _parse_bool, False,
         "replace features by N(0, 1) noise; forces input_graph aux_mode"),
    _Key("seeds", _parse_seeds, (0,), "comma-separated run seeds (>= 0)", hashed=False),
    _Key("output_dir", str, "out", "where results are written", hashed=False),
    _Key("deterministic_timing", _parse_bool, False,
         "write wall_ms as 0 for reproducible CSVs", hashed=False),
)
_NAMES = {key.name for key in _KEYS}
_KEY_OF = {key.attr: key.name for key in _KEYS}


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Parse the flat key/value format into raw string values."""
    values = {}
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{no}: expected `key = value`, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _NAMES:
            raise ConfigError(f"{source}:{no}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{source}:{no}: duplicate key {key!r}")
        values[key] = value
    return values


def build_experiment_config(raw: dict, source: str = "<config>") -> ExperimentConfig:
    """Parse raw string values, fill in defaults and build the nested config.

    An unknown key, a bad value or range, or a key given where the run
    would not read it raises ConfigError naming ``source``; the range checks
    include the mixing coefficients, decays, depth, activation and operator
    mode that PropagationConfig makes.
    """
    for name in raw:
        if name not in _NAMES:
            raise ConfigError(f"{source}: unknown key {name!r}")
    # fields[section][name]: "propagation.filter.a" lands in
    # fields["propagation.filter"]["a"], "variant" in fields[""]["variant"]
    fields = {}
    for key in _KEYS:
        value = key.default
        if key.name in raw:
            try:
                value = key.parse(raw[key.name])
            except ValueError as err:
                raise ConfigError(f"{source}: key {key.name!r}: {err}") from err
        section, _, name = key.attr.rpartition(".")
        fields.setdefault(section, {})[name] = value

    from_dataset = "dataset.path" in raw
    try:
        cfg = ExperimentConfig(
            synthetic=None if from_dataset else SyntheticSpec(**fields["synthetic"]),
            propagation=PropagationConfig(
                filter=SpectralFilterParams(**fields["propagation.filter"]),
                **fields["propagation"],
            ),
            train=TrainConfig(**fields["train"]),
            curriculum=CurriculumParams(**fields["curriculum"]),
            **fields[""],
        )
    except (ValueError, ConfigError, InvalidCoefficientsError) as err:
        raise ConfigError(f"{source}: {err}") from err
    if cfg.noisy_features:
        # noisy features carry no information, so the auxiliary graph falls
        # back to the input structure
        cfg = replace(cfg, curriculum=replace(cfg.curriculum, aux_mode="input_graph"))
    for key in _KEYS:
        if key.name in raw and (unmet := _unmet(key, cfg)):
            raise ConfigError(f"{source}: {key.name} is read only with {unmet}")
    return cfg


def load_config(path) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"{path}: cannot read config: {err}") from err
    return build_experiment_config(parse_config_text(text, str(path)), str(path))


def _unmet(key: _Key, cfg: ExperimentConfig) -> str | None:
    """The first condition of ``key`` that ``cfg`` fails; None when a run reads it."""
    return next((when for when in key.when if not _HOLDS[when](cfg)), None)


def _echo(cfg: ExperimentConfig):
    """(key, `key = value` line) for every key the run reads, in table order."""
    return [
        (key, f"{key.name} = {format_value(attrgetter(key.attr)(cfg))}")
        for key in _KEYS
        if _unmet(key, cfg) is None
    ]


def render_config(cfg: ExperimentConfig) -> str:
    """Canonical echo of every key the run reads; feeding it back reproduces the run."""
    return "".join(line + "\n" for _, line in _echo(cfg))


def config_hash(cfg: ExperimentConfig, dataset_sha256: str | None = None) -> str:
    """Short digest of what results depend on: the hashed keys the run
    reads and, for a dataset config, its files' bytes, wherever they are.
    ``dataset_sha256`` is ``io.dataset_digest`` of the dataset, taken here
    when None."""
    lines = [line for key, line in _echo(cfg) if key.hashed]
    if cfg.dataset_path is not None:
        if dataset_sha256 is None:
            dataset_sha256 = dataset_digest(cfg.dataset_path)
        lines.append(f"dataset.sha256 = {dataset_sha256}")
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()[:12]
