"""Deep graph propagation with soft covariance whitening, residual and fuzzy
skip connections, and a label-smoothing curriculum, verified against dense
brute-force oracles at desk scale."""

from .classifier import TrainConfig, accuracy, loss_and_grad, make_reducer, train_linear
from .config import CurriculumParams, ExperimentConfig, config_hash, load_config
from .curriculum import (
    AuxGraph,
    aux_from_graph,
    build_knn_aux_graph,
    entropy_filter,
    estimate_labels_teacher,
    run_curriculum,
    smooth_labels,
)
from .diagnostics import DiagnosticsRecord, LayerRecorder, pairwise_stats
from .errors import GraphainError
from .experiment import ResultRow, run_experiment, run_seed
from .graph import (
    Graph,
    NormalizedOperator,
    apply_centering,
    apply_operator,
    build_graph,
    normalized_adjacency,
)
from .io import load_dataset, save_dataset
from .labels import SoftLabelMatrix, one_hot, one_hot_matrix
from .linalg import (
    EigPair,
    SpectralFilterParams,
    orthonormal_projection,
    principal_subspace_distance,
    soft_spectral_filter,
    sym_eig,
)
from .oracles import (
    dense_abar,
    dense_ahat,
    dense_spectrum,
    label_prop_closed_form,
    oversmoothing_limit_check,
    pga_oracle_hard,
    pga_oracle_residual,
    top_d_eigvectors,
)
from .propagation import (
    PropagationConfig,
    pairnorm_step,
    residual_combine,
    run_fuzzy_r_softgraphain,
)
from .synthetic import (
    SyntheticSpec,
    add_feature_noise,
    circulant_graph,
    gen_gaussian_cluster_graph,
    random_connected_graph,
    split_masks,
    with_masks,
)

__version__ = "0.1.0"
