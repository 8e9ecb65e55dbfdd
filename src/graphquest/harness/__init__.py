"""Evaluation harness: datasets, metrics, and batch runs."""

from .datasets import (
    DatasetError,
    DatasetRecord,
    FLAVORS,
    load_dataset,
    save_dataset,
)
from .evaluate import (
    EvalReport,
    HarnessError,
    QuestionResult,
    SUMMARY_COLUMNS,
    ablation_matrix,
    run_eval,
    save_report,
    summary_rows,
    write_summary_tsv,
)
from .metrics import MetricsError, hits_at_1, normalize_answer

__all__ = [
    "DatasetError",
    "DatasetRecord",
    "EvalReport",
    "FLAVORS",
    "HarnessError",
    "MetricsError",
    "QuestionResult",
    "SUMMARY_COLUMNS",
    "ablation_matrix",
    "hits_at_1",
    "load_dataset",
    "normalize_answer",
    "run_eval",
    "save_dataset",
    "save_report",
    "summary_rows",
    "write_summary_tsv",
]
