"""Machine-readable classification certificates.

The human-facing ``repro analyze`` output describes one program on one
terminal; this module produces the same analysis as a versioned JSON
document — the *certificate* — that downstream tooling can consume
without screen-scraping: ``repro analyze --json`` prints it, the service
(:mod:`repro.service`) attaches it to every run it stores, and the
protocol-routing decision the service records is derived from it.

A certificate has three parts:

* **syntactic memberships** — one boolean per Figure-2 fragment, computed
  directly from the program (not just the tightest fragment: a program in
  SP-Datalog is also in con-Datalog when its strata are connected, and
  both facts are useful to a cost-based router);
* **the guarantee** — the weakest monotonicity class the tightest
  fragment guarantees, the matching transducer model and
  coordination-free class (Figure 2's middle and right columns);
* **the protocol decision** — which transducer the planner chose, whether
  it coordinates (global All-barrier) or not, and a human-auditable
  ``reason`` string tying the choice back to the paper's theorems;
* **the per-stratum breakdown** — each stratum classified standalone
  (fragment, memberships, guarantee) plus its role in the composed plan
  (``monotone`` / ``guarded`` / ``residue``) and the head-dominance
  evidence the per-stratum optimizer audits
  (:mod:`repro.optimizer.strata`); empty for unstratifiable programs.

Optionally an **empirical** section cross-checks the guarantee with the
counterexample search of :mod:`repro.monotonicity.checker` over seeded
random (I, J) pairs: a sound certificate must never be refuted, and for
programs without a guarantee the search reports the weakest class that is
still consistent with the pairs examined.
"""

from __future__ import annotations

import json
from typing import Any

from ..datalog.connectivity import is_connected_program, is_semicon_datalog
from ..datalog.program import Program
from ..datalog.stratification import is_stratifiable
from ..monotonicity.checker import check_monotonicity, classify_query, random_pairs
from ..monotonicity.classes import AdditionKind, MonotonicityClass
from ..queries.base import Query
from .analyzer import DistributedPlan, Fragment, plan_distribution

__all__ = [
    "CERTIFICATE_VERSION",
    "certificate",
    "certificate_for_plan",
    "ilog_certificate_for_plan",
    "fragment_memberships",
    "protocol_reason",
    "empirical_section",
    "certificate_to_json",
]

#: Bumped whenever the certificate JSON layout changes incompatibly.
CERTIFICATE_VERSION = 1

#: guaranteed class -> the paper-anchored routing rationale.
_CLASS_REASONS = {
    "M": (
        "monotone (M): every node may emit as soon as it derives — "
        "broadcast protocol, coordination-free in the original model (F0)"
    ),
    "Mdistinct": (
        "domain-distinct-monotone (Mdistinct): policy-aware absence "
        "protocol of Thm 4.3, coordination-free in the policy-aware "
        "model (F1)"
    ),
    "Mdisjoint": (
        "domain-disjoint-monotone (Mdisjoint): domain-guided handshake "
        "protocol of Thm 4.4, coordination-free in the domain-guided "
        "model (F2)"
    ),
}


def fragment_memberships(program: Program) -> dict[str, bool]:
    """One boolean per Figure-2 fragment, each computed from the syntax.

    Memberships are not mutually exclusive — the tightest one is what
    ``analyze`` reports as the fragment, but a router may exploit any of
    them.  ``wfs`` is always True: every Datalog¬ program has a
    well-founded model.
    """
    stratified = is_stratifiable(program)
    connected = is_connected_program(program)
    positive = program.is_positive()
    return {
        Fragment.DATALOG: positive and not program.uses_inequalities(),
        Fragment.DATALOG_NEQ: positive,
        Fragment.SP_DATALOG: program.is_semi_positive(),
        Fragment.CON_DATALOG: stratified and connected,
        Fragment.SEMICON_DATALOG: stratified and is_semicon_datalog(program),
        Fragment.STRATIFIED: stratified,
        Fragment.WFS_CONNECTED: not stratified and connected,
        Fragment.WFS: True,
    }


def protocol_reason(plan: DistributedPlan, *, forced_barrier: bool = False) -> str:
    """The one-line routing rationale recorded with every decision."""
    analysis = plan.analysis
    if forced_barrier:
        return (
            f"barrier forced by the caller: executing {plan.transducer.name} "
            "although a cheaper coordination-free protocol exists"
            if analysis.coordination_free
            else "barrier forced by the caller (it was the only sound choice)"
        )
    if plan.requires_barrier:
        return (
            f"fragment {analysis.fragment} carries no monotonicity "
            "guarantee: global All-barrier (coordinating baseline, waits "
            "on explicit word from every node)"
        )
    return f"fragment {analysis.fragment} is {_CLASS_REASONS[analysis.monotonicity]}"


def empirical_section(
    query: Query, monotonicity: str | None, *, pairs: int, seed: int = 0
) -> dict[str, Any]:
    """Cross-check the guarantee with the checker's counterexample search.

    For a guaranteed class, searches seeded random (I, J) pairs of the
    defining addition kind for a violation — a sound certificate reports
    ``holds: true``.  Without a guarantee, reports the weakest class still
    consistent with the searched pairs (evidence, not proof, exactly like
    the paper's positive claims are relative to the quantified family).
    """
    if monotonicity is not None:
        kind = MonotonicityClass(monotonicity).addition_kind
        verdict = check_monotonicity(
            query,
            kind,
            random_pairs(query.input_schema, kind, count=pairs, seed=seed),
        )
        section: dict[str, Any] = {
            "mode": "verify-guarantee",
            "kind": kind.value,
            "pairs_checked": verdict.pairs_checked,
            "holds": verdict.holds,
        }
        if verdict.violation is not None:
            section["violation"] = verdict.violation.describe()
        return section
    sampled = []
    for kind in AdditionKind:
        sampled.extend(
            random_pairs(query.input_schema, kind, count=pairs, seed=seed)
        )
    weakest = classify_query(query, sampled)
    return {
        "mode": "classify",
        "pairs_checked": len(sampled),
        "weakest_consistent_class": weakest.value,
    }


def certificate_for_plan(
    program: Program,
    plan: DistributedPlan,
    *,
    forced_barrier: bool = False,
    check_pairs: int = 0,
    seed: int = 0,
) -> dict[str, Any]:
    """The certificate for *program* under an already-computed *plan*.

    Split from :func:`certificate` so the service (which plans once and
    may force the barrier for A/B comparisons) never re-derives the plan.
    """
    analysis = plan.analysis
    payload: dict[str, Any] = {
        "version": CERTIFICATE_VERSION,
        "rules": len(program),
        "edb": sorted(program.edb()),
        "output": sorted(program.output_relations),
        "fragment": analysis.fragment,
        "memberships": fragment_memberships(program),
        "monotonicity": analysis.monotonicity,
        "model": analysis.model,
        "coordination_class": analysis.coordination_class,
        "protocol": {
            "name": plan.transducer.name,
            "requires_barrier": plan.requires_barrier or forced_barrier,
            "requires_domain_guided": plan.requires_domain_guided,
            "forced_barrier": forced_barrier,
            "reason": protocol_reason(plan, forced_barrier=forced_barrier),
        },
    }
    # Imported lazily: the optimizer package consumes this module's
    # membership/empirical helpers, so a top-level import would cycle.
    from ..optimizer.strata import stratum_breakdown

    payload["strata"] = [
        stratum.to_dict() for stratum in stratum_breakdown(program)
    ]
    if check_pairs > 0:
        payload["empirical"] = empirical_section(
            plan.query, analysis.monotonicity, pairs=check_pairs, seed=seed
        )
    return payload


def ilog_certificate_for_plan(program, plan: DistributedPlan) -> dict[str, Any]:
    """The certificate for an ILOG¬ program (Figure 2's right column).

    Value invention means the Figure-2 Datalog¬ memberships do not apply
    (``memberships`` is ``None``) and the empirical oracle is ill-defined
    — invented values are fresh per evaluation — so there is no
    ``empirical`` section.  Everything else mirrors
    :func:`certificate_for_plan`.
    """
    analysis = plan.analysis
    return {
        "version": CERTIFICATE_VERSION,
        "rules": len(program),
        "edb": sorted(program.edb()),
        "output": sorted(program.output_relations),
        "invention": sorted(program.invention_relations),
        "fragment": analysis.fragment,
        "memberships": None,
        "monotonicity": analysis.monotonicity,
        "model": analysis.model,
        "coordination_class": analysis.coordination_class,
        "protocol": {
            "name": plan.transducer.name,
            "requires_barrier": plan.requires_barrier,
            "requires_domain_guided": plan.requires_domain_guided,
            "forced_barrier": False,
            "reason": protocol_reason(plan),
        },
    }


def certificate(
    program: Program, *, check_pairs: int = 0, seed: int = 0
) -> dict[str, Any]:
    """Classify *program* and emit its machine-readable certificate."""
    return certificate_for_plan(
        program, plan_distribution(program), check_pairs=check_pairs, seed=seed
    )


def certificate_to_json(payload: dict[str, Any], *, indent: int | None = 2) -> str:
    return json.dumps(payload, indent=indent, sort_keys=True)
