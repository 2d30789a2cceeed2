"""Competence-difficulty alignment sampling for curriculum-style problem scheduling."""

from . import fixed_point
from .baselines import (
    CurriculumSampler,
    DynamicSampler,
    PrioritizedSampler,
    RandomSampler,
)
from .config import STRATEGIES, ExperimentConfig
from .core import (
    ProblemRecord,
    alignment,
    expected_performance,
    instantaneous_difficulty,
    sigmoid,
    update_competence,
    update_difficulty,
)
from .errors import ConfigError, ConsistencyError, ConvergenceError, RolloutBudgetError
from .fixed_point import EquilibriumProblem, EquilibriumSolution, measure_contraction
from .grpo import RolloutGroup, group_advantages
from .harness import (
    ComparisonResult,
    RunResult,
    compare_runs,
    compare_strategies,
    resume_experiment,
    run_experiment,
)
from .learner import ProblemBank, SyntheticLearner, default_ability, generate_bank
from .metrics import (
    METRICS_COLUMNS,
    StepMetrics,
    read_metrics_csv,
    summarize_step,
    write_metrics_csv,
)
from .sampling import CdasSampler

__version__ = "0.1.0"

__all__ = [
    "ComparisonResult",
    "ConfigError",
    "ConsistencyError",
    "ConvergenceError",
    "CdasSampler",
    "CurriculumSampler",
    "DynamicSampler",
    "EquilibriumProblem",
    "EquilibriumSolution",
    "ExperimentConfig",
    "METRICS_COLUMNS",
    "PrioritizedSampler",
    "ProblemBank",
    "ProblemRecord",
    "RandomSampler",
    "RolloutBudgetError",
    "RolloutGroup",
    "RunResult",
    "STRATEGIES",
    "StepMetrics",
    "SyntheticLearner",
    "alignment",
    "compare_runs",
    "compare_strategies",
    "default_ability",
    "expected_performance",
    "fixed_point",
    "generate_bank",
    "group_advantages",
    "instantaneous_difficulty",
    "measure_contraction",
    "read_metrics_csv",
    "resume_experiment",
    "run_experiment",
    "sigmoid",
    "summarize_step",
    "update_competence",
    "update_difficulty",
    "write_metrics_csv",
]
