"""Flat key/value experiment configuration.

Format: one `key = value` per line, `#` starts a comment, keys are dotted
and case-sensitive.  Unknown keys are hard errors.  The full key list:

dataset.path              dataset directory (exclusive with synthetic.*)
synthetic.clusters        cluster count (>= 2)
synthetic.nodes_per_cluster
synthetic.intra_p         within-cluster edge probability
synthetic.inter_p         cross-cluster edge probability
synthetic.center_spread   stddev of the cluster centers
synthetic.centers_dim     feature dimension of the Gaussian clusters
synthetic.feature_sigma   per-point feature noise
synthetic.seed            generation seed used by `gen`
synthetic.train_frac      stratified train fraction
synthetic.val_frac        stratified val fraction (rest is test)
propagation.alpha         aggregation weight (renormalized with beta, gamma)
propagation.beta          residual weight
propagation.gamma         initial-connection weight
propagation.a             soft-filter strength in [0, 1]
propagation.b             soft-filter exponent in [0, 1]
propagation.d0            kept eigenchannels (<= embedding_dim)
propagation.eps_rank      relative rank cutoff
propagation.p             fuzzy residual decay in [0, 1]
propagation.q             fuzzy initial decay in [0, 1]
propagation.layers        depth L >= 1
propagation.activation    identity | relu
propagation.operator_mode symmetric | random_walk
propagation.parametric    true | false
propagation.variant       rsoft | sgc | pairnorm (model used by propagate/train)
propagation.embedding_dim working width d (reducer output)
curriculum.n_t            smoothing depth
curriculum.knn_k          neighbors per node in the auxiliary graph
curriculum.gamma_prime    auxiliary edge-weight exponent
curriculum.mask_ratio     entropy filtering ratio in [0, 1]
curriculum.aux_mode       input_graph | feature_knn | embedding_knn
curriculum.pacing_epochs  epochs per smoothing task
curriculum.reset_on_finetune  true | false
train.lr                  learning rate
train.epochs              fine-tune / supervised epochs
train.weight_decay        L2 coefficient
train.lr_decay_epoch      epoch at which the lr is halved
train.seed                classifier seed (reserved; init is deterministic)
noisy_features            true | false (replace features by N(0,1) noise)
seeds                     comma-separated run seeds
output_dir                where results are written
deterministic_timing      true | false (write wall_ms as 0 for reproducible CSVs)
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from pathlib import Path

from .classifier import TrainConfig
from .curriculum import AUX_MODES
from .errors import ConfigError
from .linalg import SpectralFilterParams
from .propagation import VARIANTS, PropagationConfig
from .synthetic import SyntheticSpec


@dataclass(frozen=True)
class CurriculumParams:
    n_t: int = 10
    knn_k: int = 7
    gamma_prime: float = 1.0
    mask_ratio: float = 0.0
    aux_mode: str = "embedding_knn"
    pacing_epochs: int = 50
    reset_on_finetune: bool = False

    def __post_init__(self):
        if self.n_t < 0 or self.knn_k < 1 or self.pacing_epochs < 0:
            raise ConfigError("curriculum counts must be nonnegative (knn_k >= 1)")
        if self.aux_mode not in AUX_MODES:
            raise ConfigError(f"unknown aux_mode {self.aux_mode!r}")
        if not 0.0 <= self.mask_ratio <= 1.0:
            raise ConfigError("mask_ratio must be in [0, 1]")
        if self.gamma_prime <= 0.0:
            raise ConfigError("gamma_prime must be positive")


@dataclass(frozen=True)
class ExperimentConfig:
    dataset_path: str | None
    synthetic: SyntheticSpec | None
    train_frac: float
    val_frac: float
    propagation: PropagationConfig
    embedding_dim: int
    variant: str
    curriculum: CurriculumParams
    train: TrainConfig
    noisy_features: bool
    seeds: tuple
    output_dir: str
    deterministic_timing: bool

    def __post_init__(self):
        if (self.dataset_path is None) == (self.synthetic is None):
            raise ConfigError("set exactly one of dataset.path and synthetic.*")
        if not self.seeds:
            raise ConfigError("need at least one seed")
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}")
        if self.embedding_dim < 1:
            raise ConfigError("embedding_dim must be >= 1")


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _parse_seeds(raw: str) -> tuple:
    return tuple(int(tok) for tok in raw.split(",") if tok.strip())


# key -> (parser, default); None default means "no default, optional section"
_SCHEMA = {
    "dataset.path": (str, None),
    "synthetic.clusters": (int, 3),
    "synthetic.nodes_per_cluster": (int, 100),
    "synthetic.intra_p": (float, 0.3),
    "synthetic.inter_p": (float, 0.02),
    "synthetic.center_spread": (float, 6.0),
    "synthetic.centers_dim": (int, 3),
    "synthetic.feature_sigma": (float, 1.0),
    "synthetic.seed": (int, 0),
    "synthetic.train_frac": (float, 0.1),
    "synthetic.val_frac": (float, 0.2),
    "propagation.alpha": (float, 0.9),
    "propagation.beta": (float, 0.05),
    "propagation.gamma": (float, 0.05),
    "propagation.a": (float, 0.5),
    "propagation.b": (float, 1.0),
    "propagation.d0": (int, 8),
    "propagation.eps_rank": (float, 1e-12),
    "propagation.p": (float, 0.0),
    "propagation.q": (float, 0.0),
    "propagation.layers": (int, 16),
    "propagation.activation": (str, "identity"),
    "propagation.operator_mode": (str, "symmetric"),
    "propagation.parametric": (_parse_bool, False),
    "propagation.variant": (str, "rsoft"),
    "propagation.embedding_dim": (int, 8),
    "curriculum.n_t": (int, 10),
    "curriculum.knn_k": (int, 7),
    "curriculum.gamma_prime": (float, 1.0),
    "curriculum.mask_ratio": (float, 0.0),
    "curriculum.aux_mode": (str, "embedding_knn"),
    "curriculum.pacing_epochs": (int, 50),
    "curriculum.reset_on_finetune": (_parse_bool, False),
    "train.lr": (float, 0.5),
    "train.epochs": (int, 300),
    "train.weight_decay": (float, 5e-4),
    "train.lr_decay_epoch": (int, 10**9),
    "train.seed": (int, 0),
    "noisy_features": (_parse_bool, False),
    "seeds": (_parse_seeds, (0,)),
    "output_dir": (str, "out"),
    "deterministic_timing": (_parse_bool, False),
}

# keys that describe the run manifest rather than the science; excluded from
# the config hash so per-seed rows are stable across different seed lists
_HASH_EXCLUDED = ("seeds", "output_dir", "deterministic_timing")


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
        if key not in _SCHEMA:
            raise ConfigError(f"{source}:{no}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{source}:{no}: duplicate key {key!r}")
        values[key] = value
    return values


def build_experiment_config(raw: dict, source: str = "<config>") -> ExperimentConfig:
    parsed = {}
    for key, (parser, default) in _SCHEMA.items():
        if key in raw:
            try:
                parsed[key] = parser(raw[key])
            except ValueError as err:
                raise ConfigError(f"{source}: key {key!r}: {err}") from err
        else:
            parsed[key] = default

    use_dataset = "dataset.path" in raw
    use_synth = any(k.startswith("synthetic.") for k in raw)
    if use_dataset and use_synth:
        raise ConfigError(f"{source}: dataset.path conflicts with synthetic.* keys")
    synthetic = None
    dataset_path = None
    if use_dataset:
        dataset_path = parsed["dataset.path"]
    else:
        synthetic = SyntheticSpec(
            clusters=parsed["synthetic.clusters"],
            nodes_per_cluster=parsed["synthetic.nodes_per_cluster"],
            intra_p=parsed["synthetic.intra_p"],
            inter_p=parsed["synthetic.inter_p"],
            center_spread=parsed["synthetic.center_spread"],
            centers_dim=parsed["synthetic.centers_dim"],
            feature_sigma=parsed["synthetic.feature_sigma"],
            seed=parsed["synthetic.seed"],
        )

    try:
        filt = SpectralFilterParams(
            a=parsed["propagation.a"],
            b=parsed["propagation.b"],
            d0=parsed["propagation.d0"],
            eps_rank=parsed["propagation.eps_rank"],
        )
        prop = PropagationConfig(
            alpha=parsed["propagation.alpha"],
            beta=parsed["propagation.beta"],
            gamma=parsed["propagation.gamma"],
            filter=filt,
            layers=parsed["propagation.layers"],
            p=parsed["propagation.p"],
            q=parsed["propagation.q"],
            activation=parsed["propagation.activation"],
            operator_mode=parsed["propagation.operator_mode"],
            parametric=parsed["propagation.parametric"],
        )
        train = TrainConfig(
            lr=parsed["train.lr"],
            epochs=parsed["train.epochs"],
            weight_decay=parsed["train.weight_decay"],
            lr_decay_epoch=parsed["train.lr_decay_epoch"],
            seed=parsed["train.seed"],
        )
        curriculum = CurriculumParams(
            n_t=parsed["curriculum.n_t"],
            knn_k=parsed["curriculum.knn_k"],
            gamma_prime=parsed["curriculum.gamma_prime"],
            mask_ratio=parsed["curriculum.mask_ratio"],
            aux_mode=parsed["curriculum.aux_mode"],
            pacing_epochs=parsed["curriculum.pacing_epochs"],
            reset_on_finetune=parsed["curriculum.reset_on_finetune"],
        )
    except (ValueError, ConfigError) as err:
        if isinstance(err, ConfigError):
            raise
        raise ConfigError(f"{source}: {err}") from err

    noisy = parsed["noisy_features"]
    if noisy and curriculum.aux_mode != "input_graph":
        # noisy features carry no information, so the auxiliary graph falls
        # back to the input structure
        curriculum = replace(curriculum, aux_mode="input_graph")

    return ExperimentConfig(
        dataset_path=dataset_path,
        synthetic=synthetic,
        train_frac=parsed["synthetic.train_frac"],
        val_frac=parsed["synthetic.val_frac"],
        propagation=prop,
        embedding_dim=parsed["propagation.embedding_dim"],
        variant=parsed["propagation.variant"],
        curriculum=curriculum,
        train=train,
        noisy_features=noisy,
        seeds=parsed["seeds"],
        output_dir=parsed["output_dir"],
        deterministic_timing=parsed["deterministic_timing"],
    )


def load_config(path) -> ExperimentConfig:
    text = Path(path).read_text(encoding="utf-8")
    return build_experiment_config(parse_config_text(text, str(path)), str(path))


def _fmt_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def render_config(cfg: ExperimentConfig) -> str:
    """Canonical echo of every effective key; feeding it back reproduces the run."""
    pairs = []
    if cfg.dataset_path is not None:
        # loaded datasets carry their own masks, so no synthetic.* keys
        # (including the split fractions) may appear in the echo
        pairs.append(("dataset.path", cfg.dataset_path))
    else:
        s = cfg.synthetic
        pairs.extend(
            [
                ("synthetic.clusters", s.clusters),
                ("synthetic.nodes_per_cluster", s.nodes_per_cluster),
                ("synthetic.intra_p", s.intra_p),
                ("synthetic.inter_p", s.inter_p),
                ("synthetic.center_spread", s.center_spread),
                ("synthetic.centers_dim", s.centers_dim),
                ("synthetic.feature_sigma", s.feature_sigma),
                ("synthetic.seed", s.seed),
                ("synthetic.train_frac", cfg.train_frac),
                ("synthetic.val_frac", cfg.val_frac),
            ]
        )
    pairs.extend(
        [
            ("propagation.alpha", cfg.propagation.alpha),
            ("propagation.beta", cfg.propagation.beta),
            ("propagation.gamma", cfg.propagation.gamma),
            ("propagation.a", cfg.propagation.filter.a),
            ("propagation.b", cfg.propagation.filter.b),
            ("propagation.d0", cfg.propagation.filter.d0),
            ("propagation.eps_rank", cfg.propagation.filter.eps_rank),
            ("propagation.p", cfg.propagation.p),
            ("propagation.q", cfg.propagation.q),
            ("propagation.layers", cfg.propagation.layers),
            ("propagation.activation", cfg.propagation.activation),
            ("propagation.operator_mode", cfg.propagation.operator_mode),
            ("propagation.parametric", cfg.propagation.parametric),
            ("propagation.variant", cfg.variant),
            ("propagation.embedding_dim", cfg.embedding_dim),
            ("curriculum.n_t", cfg.curriculum.n_t),
            ("curriculum.knn_k", cfg.curriculum.knn_k),
            ("curriculum.gamma_prime", cfg.curriculum.gamma_prime),
            ("curriculum.mask_ratio", cfg.curriculum.mask_ratio),
            ("curriculum.aux_mode", cfg.curriculum.aux_mode),
            ("curriculum.pacing_epochs", cfg.curriculum.pacing_epochs),
            ("curriculum.reset_on_finetune", cfg.curriculum.reset_on_finetune),
            ("train.lr", cfg.train.lr),
            ("train.epochs", cfg.train.epochs),
            ("train.weight_decay", cfg.train.weight_decay),
            ("train.lr_decay_epoch", cfg.train.lr_decay_epoch),
            ("train.seed", cfg.train.seed),
            ("noisy_features", cfg.noisy_features),
            ("seeds", cfg.seeds),
            ("output_dir", cfg.output_dir),
            ("deterministic_timing", cfg.deterministic_timing),
        ]
    )
    return "\n".join(f"{k} = {_fmt_value(v)}" for k, v in pairs) + "\n"


def config_hash(cfg: ExperimentConfig) -> str:
    """Short digest of the scientific configuration (run manifest excluded)."""
    lines = [
        line
        for line in render_config(cfg).splitlines()
        if line.split(" =", 1)[0] not in _HASH_EXCLUDED
    ]
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()[:12]
