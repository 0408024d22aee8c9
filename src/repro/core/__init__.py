"""The core contribution: the CALM analyzer, the executable theorems, and
the experiment drivers that regenerate every figure and theorem (the
``paper`` gate)."""

from .analyzer import (
    AnalysisResult,
    DistributedPlan,
    Fragment,
    analyze,
    classify_fragment,
    guaranteed_class,
    plan_distribution,
    plan_ilog_distribution,
    query_for,
    run_distributed,
    run_with_barrier,
)
from .calm import RelocationRefutation, refute_by_relocation, relocation_policies
from .explain import ProgramExplanation, RuleDiagnosis, explain
from .experiments import (
    ExperimentRow,
    figure1_experiment,
    figure2_experiment,
    hierarchy_f_experiment,
    lemma52_experiment,
    theorem43_experiment,
    theorem44_experiment,
    theorem45_experiment,
    theorem53_experiment,
    theorem54_experiment,
    winmove_experiment,
)

__all__ = [
    "AnalysisResult",
    "DistributedPlan",
    "Fragment",
    "analyze",
    "classify_fragment",
    "guaranteed_class",
    "plan_distribution",
    "plan_ilog_distribution",
    "query_for",
    "run_distributed",
    "run_with_barrier",
    "ProgramExplanation",
    "RuleDiagnosis",
    "explain",
    "RelocationRefutation",
    "refute_by_relocation",
    "relocation_policies",
    "ExperimentRow",
    "figure1_experiment",
    "figure2_experiment",
    "hierarchy_f_experiment",
    "lemma52_experiment",
    "theorem43_experiment",
    "theorem44_experiment",
    "theorem45_experiment",
    "theorem53_experiment",
    "theorem54_experiment",
    "winmove_experiment",
]
