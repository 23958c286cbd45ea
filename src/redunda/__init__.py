"""Redundancy-aware subset selection for labeled embedding datasets.

Clusters each class with complete-linkage agglomerative clustering under
cosine dissimilarity, keeps the medoid of every cluster, and reports how
redundant the dropped samples were.
"""

__version__ = "0.1.0"

from .analysis import (
    DissimilarityReport,
    NearestExcludedPair,
    SizeHistogram,
    avg_dissimilarity,
    nearest_excluded,
    size_histogram,
)
from .cluster import (
    Dendrogram,
    MergeStep,
    Partition,
    agglomerate_fast,
    cut_dendrogram,
)
from .errors import (
    ConfigError,
    DegenerateClusterError,
    FormatError,
    InvalidArgumentError,
    MarginError,
    MemoryCapError,
    RedundaError,
    UnknownClassError,
    ValidationError,
)
from .metric import cosine_dissimilarity, pairwise_condensed
from .selection import (
    ClassResult,
    SubsetManifest,
    build_cluster_subset,
    build_random_subset,
    per_class_k,
    select_representative,
)
from .store import EmbeddingDataset, EmbeddingRecord, load_dataset, write_dataset
from .synth import PlantedSpec, SeparationCertificate, generate, measure_separation

__all__ = [
    "ClassResult",
    "ConfigError",
    "DegenerateClusterError",
    "Dendrogram",
    "DissimilarityReport",
    "EmbeddingDataset",
    "EmbeddingRecord",
    "FormatError",
    "InvalidArgumentError",
    "MarginError",
    "MemoryCapError",
    "MergeStep",
    "NearestExcludedPair",
    "Partition",
    "PlantedSpec",
    "RedundaError",
    "SeparationCertificate",
    "SizeHistogram",
    "SubsetManifest",
    "UnknownClassError",
    "ValidationError",
    "agglomerate_fast",
    "avg_dissimilarity",
    "build_cluster_subset",
    "build_random_subset",
    "cosine_dissimilarity",
    "cut_dendrogram",
    "generate",
    "load_dataset",
    "measure_separation",
    "nearest_excluded",
    "pairwise_condensed",
    "per_class_k",
    "select_representative",
    "size_histogram",
    "write_dataset",
    "__version__",
]
