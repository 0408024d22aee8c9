"""The naive oracles the production engines are checked against.

* :mod:`.datalog` — Section 2's ``P(I)`` as the least fixpoint of ``T_P``:
  :func:`naive_fixpoint` iterates :func:`immediate_consequence` over the
  recursive join of :func:`match_rule`, stratum by stratum.
* :mod:`.wellfounded` — :func:`naive_well_founded`, the alternating
  fixpoint with every Γ a naive loop over :func:`match_rule`.

Production evaluation runs on :mod:`repro.kernel` only.  Nothing in this
package imports it, so each reference stays independent of the engine it
checks, and only the conformance stacks (and, for now, the ILOG¬
evaluator) import this package; ``tests/test_seam_lint.py`` holds both
rules.
"""

from .datalog import FactIndex, immediate_consequence, match_rule, naive_fixpoint
from .wellfounded import naive_well_founded

__all__ = [
    "FactIndex",
    "immediate_consequence",
    "match_rule",
    "naive_fixpoint",
    "naive_well_founded",
]
