"""USTEP: streaming log template mining over an evolving search tree.

``import ustep`` loads the miner and tokenizer only; the evaluation
helpers load on first use (PEP 562), so a streaming miner starts
without them."""

from .miner import (
    Miner,
    MinerConfig,
    MinerStats,
    ParseResult,
    SnapshotError,
    Template,
    select_pivot,
    sim_f,
)
from .tokens import (
    WILDCARD,
    ConfigError,
    preprocess,
    render,
    tokenize,
)

__version__ = "0.1.0"

_EVALUATION = (
    "GroupingReport", "LabeledRecord", "RobustnessReport",
    "ThroughputReport", "grouping_accuracy", "load_labeled_dataset",
    "robustness_stats", "run_miner",
)

__all__ = [
    "Miner", "MinerConfig", "MinerStats", "ParseResult", "SnapshotError",
    "Template", "select_pivot", "sim_f",
    "WILDCARD", "ConfigError", "preprocess", "render", "tokenize",
    *_EVALUATION,
]


def __getattr__(name):
    if name not in _EVALUATION:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import evaluation
    value = globals()[name] = getattr(evaluation, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
