"""Population optimizer with a leader/advocate/believer social structure.

The package bundles the optimizer itself, two problem catalogs
(classic benchmark functions and machining regression models), three
reference optimizers for head-to-head studies, and a paired
signed-rank comparison harness.  ``labopt.cli`` exposes the same
machinery as a command-line tool.
"""
from .baselines import BASELINE_ALGORITHMS, BaselineConfig, run_baseline, run_baseline_seeds
from .benchmarks import (
    BenchmarkSpec,
    build_problem,
    registry,
)
from .engine import (
    IterationRecord,
    LabConfig,
    RunTrace,
    run,
    run_seeds,
)
from .machining import MachiningSpec, get as get_machining, grid_oracle, machining_registry
from .problem import ConfigError, EvaluationError, Problem, Sense
from .stats import (
    ComparisonReport,
    RunSummary,
    WilcoxonResult,
    pairwise_compare,
    summarize,
    wilcoxon_two_sided,
)

__version__ = "0.1.0"

__all__ = [
    "BASELINE_ALGORITHMS",
    "BaselineConfig",
    "BenchmarkSpec",
    "ComparisonReport",
    "ConfigError",
    "EvaluationError",
    "IterationRecord",
    "LabConfig",
    "MachiningSpec",
    "Problem",
    "RunSummary",
    "RunTrace",
    "Sense",
    "WilcoxonResult",
    "__version__",
    "build_problem",
    "get_machining",
    "grid_oracle",
    "machining_registry",
    "pairwise_compare",
    "registry",
    "run",
    "run_baseline",
    "run_baseline_seeds",
    "run_seeds",
    "summarize",
    "wilcoxon_two_sided",
]
