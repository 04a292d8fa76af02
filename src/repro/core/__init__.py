"""Core clustering library — the paper's primary contribution.

This package implements the analysis pipeline of Jiang et al. (CoNEXT
2013): quality-metric classification of video sessions, the cluster
lattice over client/session attributes, problem-cluster detection
(Section 3.1), the critical-cluster phase-transition algorithm
(Section 3.2), and the temporal prevalence/persistence machinery
(Section 4.1).
"""

from repro.core.attributes import (
    AttributeSchema,
    DEFAULT_SCHEMA,
    DEFAULT_ATTRIBUTES,
)
from repro.core.sessions import Session, SessionTable
from repro.core.metrics import (
    QualityMetric,
    MetricThresholds,
    BUFFERING_RATIO,
    JOIN_TIME,
    BITRATE,
    JOIN_FAILURE,
    ALL_METRICS,
    metric_by_name,
    register_metric,
    unregister_metric,
)
from repro.core.clusters import ClusterKey, ClusterLattice
from repro.core.epoching import EpochGrid, split_into_epochs
from repro.core.aggregation import (
    ClusterStats,
    EpochAggregate,
    KeyCodec,
    aggregate_epoch,
)
from repro.core.index import TraceClusterIndex
from repro.core.problems import (
    ProblemClusterConfig,
    ProblemClusters,
    cluster_problem_flags,
    find_problem_clusters,
)
from repro.core.critical import CriticalClusters, find_critical_clusters
from repro.core.streaks import (
    ClusterTimeline,
    Streak,
    build_timelines,
    coalesce_streaks,
    merge_timelines,
    prevalence,
    persistence_streaks,
    shift_streaks,
)
from repro.core.pipeline import (
    AnalysisConfig,
    EpochAnalysis,
    MetricAnalysis,
    PipelineTimings,
    TraceAnalysis,
    analyze_trace,
    resolve_worker_count,
)
from repro.core.substrate import (
    AnalysisSubstrate,
    StreamingSubstrate,
    analyze_sweep,
)
from repro.core.shards import (
    ShardInfo,
    ShardStore,
    ShardStoreBuilder,
    analyze_shards,
    build_shard_store,
    merge_shard_analyses,
    shard_boundaries,
    sweep_shards,
)
from repro.core.online import AlertEvent, ClusterAlert, OnlineDetector
from repro.core.overlap import jaccard_similarity, top_k_critical_overlap
from repro.core.hhh import HHHConfig, find_hierarchical_heavy_hitters

__all__ = [
    "AttributeSchema",
    "DEFAULT_SCHEMA",
    "DEFAULT_ATTRIBUTES",
    "Session",
    "SessionTable",
    "QualityMetric",
    "MetricThresholds",
    "BUFFERING_RATIO",
    "JOIN_TIME",
    "BITRATE",
    "JOIN_FAILURE",
    "ALL_METRICS",
    "metric_by_name",
    "register_metric",
    "unregister_metric",
    "ClusterKey",
    "ClusterLattice",
    "EpochGrid",
    "split_into_epochs",
    "ClusterStats",
    "EpochAggregate",
    "KeyCodec",
    "TraceClusterIndex",
    "aggregate_epoch",
    "ProblemClusterConfig",
    "ProblemClusters",
    "cluster_problem_flags",
    "find_problem_clusters",
    "CriticalClusters",
    "find_critical_clusters",
    "ClusterTimeline",
    "Streak",
    "build_timelines",
    "coalesce_streaks",
    "merge_timelines",
    "prevalence",
    "persistence_streaks",
    "shift_streaks",
    "AnalysisConfig",
    "EpochAnalysis",
    "MetricAnalysis",
    "PipelineTimings",
    "TraceAnalysis",
    "analyze_trace",
    "resolve_worker_count",
    "AnalysisSubstrate",
    "StreamingSubstrate",
    "analyze_sweep",
    "ShardInfo",
    "ShardStore",
    "ShardStoreBuilder",
    "analyze_shards",
    "build_shard_store",
    "merge_shard_analyses",
    "shard_boundaries",
    "sweep_shards",
    "AlertEvent",
    "ClusterAlert",
    "OnlineDetector",
    "jaccard_similarity",
    "top_k_critical_overlap",
    "HHHConfig",
    "find_hierarchical_heavy_hitters",
]
