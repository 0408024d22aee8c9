"""The per-stratum coordination-cost optimizer.

The analyzer in :mod:`repro.core.analyzer` decides coordination *per
program*: one non-monotone stratum drags the whole run onto the global
All-barrier.  This package decides per stratum instead.  It classifies
every stratum of a stratifiable Datalog¬ program (fragment memberships +
monotonicity class, the same machinery as :mod:`repro.core.certificate`),
combines the per-stratum evidence with a criterion strictly finer than
the paper's three syntactic fragments (the *distinct-safe* head-dominance
test, in the spirit of Hellerstein et al.'s "Complete CALM" and the
Zinn/Green/Ludäscher win-move analysis), and emits a
:class:`~repro.optimizer.plan.PlanCertificate`: per-stratum class, the
chosen Section-4 protocol bundle (only the non-monotone residue pays for
coordination), and a predicted (rounds, messages, transitions) cost from
a model fitted to the protocol cost sweeps (``PROTO`` in ``repro gate paper``).

Soundness is fuzz-gated: the eighth conformance dimension
(:mod:`repro.conformance.optimizer`) requires every generator-sampled
program to get a certificate that survives empirical refutation and a
plan whose execution is byte-identical to the All-barrier baseline.
"""

from .costmodel import (
    DEFAULT_COST_MODEL,
    CostModel,
    CostVector,
    calibration_observations,
    fit_cost_model,
    protocol_kind,
)
from .executor import OptimizedArm, PlanComparison, execute_arm, run_comparison
from .plan import (
    OPTIMIZER_MUTATIONS,
    PLAN_CERTIFICATE_VERSION,
    OptimizedPlan,
    downward_consistent,
    plan_certificate,
    plan_optimized,
)
from .strata import (
    StratumCertificate,
    effective_class,
    is_distinct_safe,
    is_head_dominant,
    negation_feeders,
    stratum_breakdown,
)

__all__ = [
    "CostModel",
    "CostVector",
    "DEFAULT_COST_MODEL",
    "OPTIMIZER_MUTATIONS",
    "OptimizedArm",
    "OptimizedPlan",
    "PLAN_CERTIFICATE_VERSION",
    "PlanComparison",
    "StratumCertificate",
    "calibration_observations",
    "downward_consistent",
    "effective_class",
    "execute_arm",
    "fit_cost_model",
    "is_distinct_safe",
    "is_head_dominant",
    "negation_feeders",
    "plan_certificate",
    "plan_optimized",
    "protocol_kind",
    "run_comparison",
    "stratum_breakdown",
]
