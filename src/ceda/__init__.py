"""Categorical exploratory data analysis toolkit."""

__version__ = "0.1.0"

from .association import (
    ContingencyTable,
    contingency_table,
    mce_matrix,
    rank_features_by_label_association,
)
from .chain import (
    ChainLink,
    FeatureChain,
    chain_categories,
    dissect_external,
    knn_baseline_predict,
)
from .dataset import (
    DataTable,
    LabeledDataset,
    SplitSpec,
    load_csv,
    split_train_test,
    synth_generate,
    write_csv,
)
from .discretize import Binning, build_histogram, categorize_many
from .errors import CedaError, ComputationError, ConfigError, DataError
from .hclust import Dendrogram, agglomerate, cut
from .label_tree import (
    DominanceMatrix,
    build_label_tree,
    dominance_to_distance,
    sample_triplet_orderings,
    tree_from_training,
)
from .predictive_map import (
    Category,
    CategoryTable,
    CompetitionConfig,
    predictive_map,
    tabulate_predictions,
)
from .rma import (
    ErrorReport,
    LocalityLattice,
    ResponseSpec,
    build_locality_lattice,
    error_metrics,
    minor_feature_entropy,
    ols_fit,
    rma_predict_rows,
    score_major_candidate,
)
