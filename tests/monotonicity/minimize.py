"""Counterexample minimization: shrink a monotonicity violation (I, J) to a
locally minimal one while preserving its addition kind.

The Theorem 3.1 witnesses are hand-crafted minimal pairs;
:func:`minimize_violation` produces comparable pairs automatically from any
violation the random searches find, which makes failures readable and feeds
the witness-size observations in EXPERIMENTS.md (e.g. the bounded classes
are separated at exactly the sizes the paper claims).

Shrinking is greedy single-fact removal to a fixed point:

* dropping a fact from J keeps J of its kind (fewer facts, same base), so
  only the violation needs rechecking;
* dropping a fact from I can only shrink adom(I), so J stays domain
  distinct / disjoint; again only the violation needs rechecking.

The result is locally minimal: removing any single remaining fact destroys
the violation.
"""

from __future__ import annotations

from repro.datalog.instance import Instance
from repro.monotonicity.classes import (
    AdditionKind,
    MonotonicityViolation,
    addition_matches,
    violation_on,
)
from repro.queries.base import Query

__all__ = ["minimize_violation", "is_locally_minimal"]


def _shrink_side(
    query: Query,
    base: Instance,
    addition: Instance,
    *,
    shrink_addition: bool,
) -> tuple[Instance, Instance, bool]:
    """Try to drop one fact from one side; returns (base, addition, changed)."""
    side = addition if shrink_addition else base
    for fact in side.sorted_facts():
        smaller = side - Instance([fact])
        if shrink_addition:
            if not smaller:
                continue  # an empty J can never violate
            candidate = (base, smaller)
        else:
            candidate = (smaller, addition)
        if violation_on(query, *candidate) is not None:
            return candidate[0], candidate[1], True
    return base, addition, False


def minimize_violation(
    query: Query,
    violation: MonotonicityViolation,
    *,
    kind: AdditionKind = AdditionKind.ANY,
) -> MonotonicityViolation:
    """Greedily shrink both sides of a violation to a local minimum.

    The input pair must be admissible for *kind*; the result is guaranteed
    admissible too (removal never breaks domain-distinctness/disjointness)
    and still violating.
    """
    base, addition = violation.base, violation.addition
    if not addition_matches(kind, base, addition):
        raise ValueError("the violation's addition is not of the stated kind")
    changed = True
    while changed:
        base, addition, changed_addition = _shrink_side(
            query, base, addition, shrink_addition=True
        )
        base, addition, changed_base = _shrink_side(
            query, base, addition, shrink_addition=False
        )
        changed = changed_addition or changed_base
    result = violation_on(query, base, addition)
    assert result is not None, "minimization lost the violation"
    assert addition_matches(kind, base, addition), "minimization broke the kind"
    return result


def is_locally_minimal(query: Query, violation: MonotonicityViolation) -> bool:
    """True when removing any single fact from I or J kills the violation."""
    base, addition = violation.base, violation.addition
    for fact in addition.sorted_facts():
        smaller = addition - Instance([fact])
        if smaller and violation_on(query, base, smaller) is not None:
            return False
    for fact in base.sorted_facts():
        if violation_on(query, base - Instance([fact]), addition) is not None:
            return False
    return True
