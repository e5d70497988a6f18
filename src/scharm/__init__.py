"""Structural connectome harmonization toolkit.

Linear and deep (fully connected / graph convolutional) harmonization of
streamline-count connectivity matrices across simulated acquisition sites,
with a synthetic ground-truth cohort generator and a full evaluation battery.
"""

from .core import (
    CohortManifest,
    ConnectivityMatrix,
    SiteDescriptor,
    SubjectRecord,
    devectorize,
    edge_count,
    highest_quality_site,
    lowest_quality_site,
    split_cohort,
    table1_sites,
    validate_matrix,
    vectorize_upper,
)
from .synthetic import SyntheticSiteEffect, default_cohort, generate_synthetic_cohort, redraw_retest
from .augment import augment_cohort, augment_site, augmentation_report, mixup_pair
from .linear import LinearEdgeModel, fit_lr, lr_harmonize
from .deep import (
    ArchitectureConfig,
    HarmonizerModel,
    TrainingConfig,
    TrainingHistory,
    export_embeddings,
    lambda_schedule,
    select_best_epoch,
    train,
    training_inputs,
)
from .evaluation import (
    MetricReport,
    edge_metrics,
    evaluate_cohorts,
    evaluate_method,
    fingerprint_accuracy,
    identifiability_difference,
    normalized_report,
    pairwise_distances,
    topology_metrics,
)

__version__ = "0.1.0"
