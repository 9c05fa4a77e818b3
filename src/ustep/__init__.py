"""USTEP: streaming log template mining over an evolving search tree."""

from .miner import (
    Miner,
    MinerConfig,
    MinerStats,
    ParseResult,
    SnapshotError,
    Template,
    select_pivot,
    sim_f,
    update_template,
)
from .tokens import (
    WILDCARD,
    ConfigError,
    preprocess,
    render,
    tokenize,
)
from .evaluation import (
    GroupingReport,
    LabeledRecord,
    RobustnessReport,
    ThroughputReport,
    grouping_accuracy,
    load_labeled_dataset,
    robustness_stats,
    run_miner,
)

__version__ = "0.1.0"

__all__ = [
    "Miner", "MinerConfig", "MinerStats", "ParseResult", "SnapshotError",
    "Template", "select_pivot", "sim_f", "update_template",
    "WILDCARD", "ConfigError", "preprocess", "render", "tokenize",
    "GroupingReport", "LabeledRecord", "RobustnessReport",
    "ThroughputReport", "grouping_accuracy", "load_labeled_dataset",
    "robustness_stats", "run_miner",
]
