"""attrscale: a numeric scale of inter-attribute dependency from query workloads."""

from .analytics import (
    AffinityRanking,
    AttributeGroup,
    BundleDiff,
    PairExplanation,
    diff_rankings,
    explain_pair,
    rank_pairs,
    suggest_groups,
)
from .catalog import AttributeCatalog, load_catalog
from .errors import (
    AttrScaleError,
    DiagonalPairError,
    EmptyAnalysisError,
    SelectionError,
    SnapshotError,
    SqlSyntaxError,
    UnknownAttributeError,
    UnsupportedSqlError,
    WorkloadFormatError,
)
from .matrices import DependencyMatrix, MaskedRealMatrix, StatsTable
from .pipeline import (
    ScaleBundle,
    build_adm,
    build_pdm,
    compute_mvsd,
    compute_nnsm,
    compute_nsm,
    run_pipeline,
)
from .snapshot import RunConfig, Snapshot, load_snapshot, write_outputs
from .sql_columns import extract_attributes
from .workload import QueryRecord, SelectionSpec, UsageSet, build_usage_set, load_workload, select_queries

__version__ = "0.1.0"

__all__ = [
    "AffinityRanking",
    "AttributeCatalog",
    "AttributeGroup",
    "AttrScaleError",
    "BundleDiff",
    "DependencyMatrix",
    "DiagonalPairError",
    "EmptyAnalysisError",
    "MaskedRealMatrix",
    "PairExplanation",
    "QueryRecord",
    "RunConfig",
    "ScaleBundle",
    "SelectionError",
    "SelectionSpec",
    "Snapshot",
    "SnapshotError",
    "SqlSyntaxError",
    "StatsTable",
    "UnknownAttributeError",
    "UnsupportedSqlError",
    "UsageSet",
    "WorkloadFormatError",
    "build_adm",
    "build_pdm",
    "build_usage_set",
    "compute_mvsd",
    "compute_nnsm",
    "compute_nsm",
    "diff_rankings",
    "explain_pair",
    "extract_attributes",
    "load_catalog",
    "load_snapshot",
    "load_workload",
    "rank_pairs",
    "run_pipeline",
    "select_queries",
    "suggest_groups",
    "write_outputs",
]
