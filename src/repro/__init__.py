"""repro — LSH-accelerated centroid-based clustering.

A from-scratch, production-quality reproduction of

    McConville, Cao, Liu & Miller,
    "Accelerating Large Scale Centroid-based Clustering with Locality
    Sensitive Hashing", ICDE 2016.

The paper's idea: centroid algorithms spend their time comparing every
item against every one of k centroids.  Index the *items* once with a
banded LSH (MinHash for categorical data), let every indexed item carry
a mutable reference to its current cluster, and each assignment step
only needs exact distances against the small *shortlist* of clusters
owned by an item's hash neighbours.

Quick start::

    import numpy as np
    from repro import KModes, MHKModes, RuleBasedGenerator, cluster_purity
    from repro.api import LSHSpec

    data = RuleBasedGenerator(n_clusters=500, n_attributes=60, seed=0).generate(5_000)
    fast = MHKModes(n_clusters=500, lsh=LSHSpec(bands=20, rows=5, seed=0)).fit(data.X)
    exact = KModes(n_clusters=500, seed=0).fit(data.X)
    print(cluster_purity(fast.labels_, data.labels),
          cluster_purity(exact.labels_, data.labels))

    model = fast.fitted_model()        # immutable ClusterModel artifact
    model.save("model")                # npz + json sidecar; serves predict
                                       # without the training estimator

Package map — each subpackage is documented in its own ``__init__``:

* :mod:`repro.api` — spec-driven estimator API: typed config objects
  (:class:`LSHSpec` / :class:`EngineSpec` / :class:`TrainSpec`), the
  shared estimator protocol (``get_params``/``set_params``/``clone``),
  the :func:`make_estimator` registry and the immutable fitted
  :class:`ClusterModel` artifact
* :mod:`repro.core` — MH-K-Modes and the generic acceleration framework
* :mod:`repro.kmodes` — exhaustive K-Modes baseline
* :mod:`repro.kmeans` — K-Means / mini-batch / LSH-K-Means (numeric extension)
* :mod:`repro.lsh` — MinHash, banding, the clustered index, SimHash, p-stable
* :mod:`repro.engine` — serial and thread execution backends, the
  sharded index powering parallel fits (``EngineSpec`` / ``backend=``)
  and the persistent worker pools shared with serving
* :mod:`repro.serve` — :class:`ModelServer`, concurrent batch-predict
  serving on :class:`ClusterModel` (``ServeSpec`` / ``repro serve``)
* :mod:`repro.data` — datgen clone, Yahoo-like corpus, TF-IDF pipeline, I/O
* :mod:`repro.metrics` — purity, NMI, ARI, Jaccard
* :mod:`repro.experiments` — configs/runner/reports for every paper figure
* :mod:`repro.instrumentation` — per-iteration statistics
* :mod:`repro.obs` — metrics registry, tracing spans, JSON trace
  events and the ``GET /metrics`` Prometheus surface
* :mod:`repro.resilience` — admission control, micro-batching and
  deadlines in front of the server (``ResilienceSpec``), and
  deterministic kernel-delay injection for the deadline tests
"""

from repro.api import (
    ClusterModel,
    EngineSpec,
    EstimatorProtocol,
    LSHSpec,
    ResilienceSpec,
    ServeSpec,
    StreamSpec,
    TrainSpec,
    available_estimators,
    make_estimator,
)

from repro.core import (
    MHKModes,
    StreamingMHKModes,
    candidate_pair_probability,
    cluster_recall_probability,
    error_bound,
    suggest_bands_rows,
)
from repro.data import (
    CategoricalDataset,
    CategoricalEncoder,
    QuestionCorpus,
    RuleBasedGenerator,
    YahooAnswersSynthesizer,
    corpus_to_dataset,
    load_cluster_model,
    load_model,
    load_serve_spec,
    save_model,
)
from repro.engine import (
    ExecutionBackend,
    SerialBackend,
    ShardedClusteredLSHIndex,
    ThreadBackend,
    resolve_backend,
)
from repro.exceptions import (
    ConfigurationError,
    ConvergenceError,
    DataValidationError,
    DeadlineExceededError,
    EmptyClusterError,
    NotFittedError,
    OverloadedError,
    ReproError,
    ServerClosedError,
    check_fitted,
)
from repro.kmeans import KMeans, LSHKMeans, MiniBatchKMeans
from repro.kmodes import FuzzyKModes, KModes
from repro.lsh import ClusteredLSHIndex, MinHasher, TokenSets
from repro.metrics import (
    adjusted_rand_index,
    cluster_purity,
    jaccard_similarity,
    normalized_mutual_information,
)
from repro.serve import ModelServer

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # spec-driven API
    "LSHSpec",
    "EngineSpec",
    "TrainSpec",
    "ResilienceSpec",
    "ServeSpec",
    "StreamSpec",
    "ClusterModel",
    "EstimatorProtocol",
    "make_estimator",
    "available_estimators",
    # serving
    "ModelServer",
    # core
    "MHKModes",
    "error_bound",
    "candidate_pair_probability",
    "cluster_recall_probability",
    "suggest_bands_rows",
    # baselines and extensions
    "KModes",
    "FuzzyKModes",
    "KMeans",
    "MiniBatchKMeans",
    "LSHKMeans",
    "StreamingMHKModes",
    # lsh
    "MinHasher",
    "TokenSets",
    "ClusteredLSHIndex",
    # engine
    "ExecutionBackend",
    "SerialBackend",
    "ThreadBackend",
    "resolve_backend",
    "ShardedClusteredLSHIndex",
    # data
    "CategoricalDataset",
    "RuleBasedGenerator",
    "YahooAnswersSynthesizer",
    "QuestionCorpus",
    "corpus_to_dataset",
    "CategoricalEncoder",
    "save_model",
    "load_model",
    "load_cluster_model",
    # metrics
    "cluster_purity",
    "normalized_mutual_information",
    "adjusted_rand_index",
    "jaccard_similarity",
    # exceptions
    "ReproError",
    "ConfigurationError",
    "DataValidationError",
    "NotFittedError",
    "ConvergenceError",
    "EmptyClusterError",
    "ServerClosedError",
    "OverloadedError",
    "DeadlineExceededError",
    "check_fitted",
]
