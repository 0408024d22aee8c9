"""Metamorphic oracles from the paper's monotonicity classes.

Lemma 3.2 / Figure 2 give every syntactic fragment a *guaranteed*
monotonicity class; that guarantee is a metamorphic property no fixed test
file can exhaust:

* fragment guarantees **M** — extend the instance with *any* delta and
  every previously-derived output fact must be preserved;
* fragment guarantees **Mdistinct** — preservation under domain-*distinct*
  deltas (every delta fact carries a value outside adom(I));
* fragment guarantees **Mdisjoint** — preservation under domain-*disjoint*
  deltas (no delta fact shares a value with adom(I)).

A violation means either the classifier places the program in the wrong
fragment or an evaluator computes the wrong output — both are conformance
bugs.  Checks are cross-validated against the counterexample search in
:mod:`repro.monotonicity.checker` (the two must agree on every pair), and
the class *boundaries* of Theorem 3.1 are pinned by the explicit witnesses
in :mod:`repro.monotonicity.witnesses` (see ``tests/conformance/``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..core.analyzer import analyze, query_for
from ..datalog.instance import Instance
from ..datalog.program import Program
from ..monotonicity.checker import check_monotonicity
from ..monotonicity.classes import AdditionKind, violation_on
from .generator import sample_delta

__all__ = [
    "KIND_FOR_CLASS",
    "MetamorphicViolation",
    "check_metamorphic",
]

#: monotonicity class name -> the addition kind its condition quantifies over.
KIND_FOR_CLASS: dict[str, AdditionKind] = {
    "M": AdditionKind.ANY,
    "Mdistinct": AdditionKind.DOMAIN_DISTINCT,
    "Mdisjoint": AdditionKind.DOMAIN_DISJOINT,
}


@dataclass(frozen=True)
class MetamorphicViolation:
    """A broken class guarantee, with everything needed to reproduce it."""

    program_text: str
    output_relations: tuple[str, ...]
    fragment: str
    monotonicity: str
    kind: str
    base_text: str
    delta_text: str
    lost_text: str

    def to_dict(self) -> dict:
        return {
            "program": self.program_text,
            "output_relations": list(self.output_relations),
            "fragment": self.fragment,
            "monotonicity": self.monotonicity,
            "kind": self.kind,
            "base": self.base_text,
            "delta": self.delta_text,
            "lost": self.lost_text,
        }

    def describe(self) -> str:
        return (
            f"fragment {self.fragment} guarantees {self.monotonicity}, but a "
            f"{self.kind} delta retracted output fact(s) {self.lost_text}"
        )


def _facts_text(instance: Instance) -> str:
    return " ".join(f"{fact!r}." for fact in instance.sorted_facts())


def check_metamorphic(
    program: Program,
    instance: Instance,
    rng: random.Random,
    *,
    deltas: int = 2,
    cross_validate: bool = True,
) -> MetamorphicViolation | None:
    """Check the fragment's guaranteed class on random deltas.

    Returns the first violation found, or ``None``.  Programs without a
    guarantee (general stratified / unconnected WFS) have no oracle and
    pass trivially; connected non-stratifiable programs are held to
    Mdisjoint (Section 7 remark).
    With ``cross_validate`` on, every violation is re-derived through
    :func:`repro.monotonicity.checker.check_monotonicity` on the same pair,
    so the fuzzer and the checker can never silently disagree.
    """
    analysis = analyze(program)
    if analysis.monotonicity is None:
        return None
    kind = KIND_FOR_CLASS[analysis.monotonicity]
    query = query_for(program)
    base = instance.restrict(program.edb())
    for _ in range(deltas):
        delta = sample_delta(rng, base, program.edb(), kind)
        if not delta:
            continue
        violation = violation_on(query, base, delta)
        if violation is None:
            continue
        if cross_validate:
            verdict = check_monotonicity(query, kind, [(base, delta)])
            if verdict.holds:
                raise AssertionError(
                    "metamorphic layer and monotonicity checker disagree on "
                    f"pair (|I|={len(base)}, |J|={len(delta)}) for "
                    f"{query.name}"
                )
        return MetamorphicViolation(
            program_text="\n".join(repr(rule) for rule in program.rules),
            output_relations=tuple(sorted(program.output_relations)),
            fragment=analysis.fragment,
            monotonicity=analysis.monotonicity,
            kind=kind.value,
            base_text=_facts_text(base),
            delta_text=_facts_text(delta),
            lost_text=_facts_text(violation.lost_facts),
        )
    return None
