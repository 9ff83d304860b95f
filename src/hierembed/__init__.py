"""Order-preserving hierarchy embeddings and hierarchy-aware classifiers."""

from .geometry import (
    ConeParams,
    GeometryError,
    cone_energy,
    energy_gradients,
    euclid_aperture,
    euclid_xi,
    exp_map,
    hyper_aperture,
    hyper_xi,
    oe_energy,
    poincare_distance,
    project_to_domain,
    riemannian_rescale,
)
from .hierarchy import (
    EdgeSet,
    Hierarchy,
    HierarchyError,
    Node,
    SamplingError,
    SplitResult,
    augment_eval_negatives,
    generate_synthetic_tree,
    split_edges,
    transitive_closure,
)
from .joint import (
    FeatureMatrix,
    JointModel,
    reconstruct_labels,
    train_joint,
)
from .metrics import ConfusionCounts, aggregate, hit_at_k, precision_recall_f1, tpr_tnr
from .training import (
    EmbeddingTable,
    TrainConfig,
    TrainingError,
    evaluate_edge_prediction,
    optimizer_step,
    train_label_embeddings,
)

__version__ = "0.1.0"
