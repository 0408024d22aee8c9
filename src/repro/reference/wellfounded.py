"""The reference for the well-founded semantics: the alternating fixpoint
of :mod:`repro.datalog.wellfounded` with every Γ a naive loop over
:func:`~repro.reference.datalog.match_rule`.

Only Γ is restated here.  The alternation loop and the model assembly are
the production ones, so the reference differs from
:func:`~repro.datalog.wellfounded.evaluate_well_founded` in Γ alone.
"""

from __future__ import annotations

from ..datalog.instance import Instance
from ..datalog.program import Program
from ..datalog.wellfounded import WellFoundedModel, _alternating_fixpoint, _model
from .datalog import FactIndex, match_rule

__all__ = ["naive_well_founded"]


def _gamma(program: Program, base: Instance, assumed: FactIndex) -> FactIndex:
    """The Gelder operator Γ(S): the least fixpoint of *program* on *base*
    where a negated atom ¬A is considered satisfied iff A ∉ S (= *assumed*).

    Because the negative information is frozen, this is a plain monotone
    fixpoint and a naive loop converges.
    """
    index = FactIndex(base)
    changed = True
    while changed:
        changed = False
        derived = [
            rule.derive(valuation)
            for rule in program
            for valuation in match_rule(rule, index, negative_index=assumed)
        ]
        for fact in derived:
            if index.add(fact):
                changed = True
    return index


class _NaiveSession:
    """Γ through :func:`match_rule`, approximations as :class:`FactIndex` —
    the independent oracle behind :func:`naive_well_founded`.  Same surface
    as :class:`repro.kernel.wellfounded.GammaSession`; every Γ starts from
    the input."""

    def __init__(self, program: Program, instance: Instance) -> None:
        self._program = program
        self._instance = instance
        # Only facts over sch(P) at the schema's arity take part; the rest
        # of the input rejoins the model in true().
        self._base = instance.restrict(program.sch())
        self.start = FactIndex(self._base)

    def gamma(self, assumed: FactIndex) -> FactIndex:
        return _gamma(self._program, self._base, assumed)

    size = staticmethod(len)

    def true(
        self, under: FactIndex, relations: frozenset[str] | None = None
    ) -> Instance:
        true_facts = under.to_instance()
        if relations is None:
            return self._instance | true_facts
        return true_facts.restrict(relations)

    def undefined(self, under: FactIndex, over: FactIndex) -> Instance:
        return over.to_instance() - under.to_instance()


def naive_well_founded(
    program: Program, instance: Instance, *, max_rounds: int = 10_000
) -> WellFoundedModel:
    """The reference for :func:`~repro.datalog.wellfounded.evaluate_well_founded`:
    the same alternating fixpoint with every Γ a naive loop over
    :func:`match_rule`."""
    return _model(_NaiveSession(program, instance), _alternating_fixpoint, max_rounds)
