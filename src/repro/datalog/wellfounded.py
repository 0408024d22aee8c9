"""Well-founded semantics via the alternating fixpoint, plus the doubled
program transformation.

Section 7 of the paper remarks that *connected* Datalog under the
well-founded semantics stays within Mdisjoint, "making use of the well-known
'doubled program' approach", which yields a simpler proof that win-move is in
Mdisjoint.  This module supplies both ingredients:

* :func:`evaluate_well_founded` — Van Gelder's alternating fixpoint.  Facts
  are partitioned into *true*, *undefined* and (implicitly) false.
* :func:`doubled_program` — the over/under syntactic transform: each idb
  relation R gets an over-approximation twin ``R__over``; negation in the
  under-rules consults the over twin and vice versa.  Iterating the doubled
  program's two halves reproduces the alternating fixpoint, and when the
  source program is connected both halves are connected — the structural
  fact behind the Section 7 remark.

Γ has two backends behind one alternation loop: the interned kernel
(:mod:`repro.kernel.wellfounded`), which :class:`WellFoundedEvaluator` and
everything built on it runs, and the naive loop over :func:`match_rule`
(:func:`_gamma`), the independent reference reached by calling
:func:`naive_well_founded` — which never imports :mod:`repro.kernel`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .evaluation import FactIndex, match_rule
from .instance import Instance
from .program import Program
from .rules import Rule
from .terms import Atom, Fact

__all__ = [
    "WellFoundedModel",
    "WellFoundedEvaluator",
    "evaluate_well_founded",
    "naive_well_founded",
    "doubled_program",
    "OVER_SUFFIX",
]

OVER_SUFFIX = "__over"


@dataclass(frozen=True)
class WellFoundedModel:
    """The three-valued well-founded model of a program on an input.

    ``true`` contains the input facts plus every derived fact that is true;
    ``undefined`` contains the derived facts with undefined truth value.
    Everything else (over the Herbrand base) is false.
    """

    true: Instance
    undefined: Instance

    def total(self) -> bool:
        """True when the model is two-valued (no undefined facts)."""
        return not self.undefined

    def possible(self) -> Instance:
        """The over-approximation: true ∪ undefined."""
        return self.true | self.undefined


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
    as :class:`repro.kernel.wellfounded.GammaSession`."""

    def __init__(self, program: Program, instance: Instance) -> None:
        self._program = program
        self._instance = instance
        self.start = FactIndex(instance)

    def gamma(self, assumed: FactIndex) -> FactIndex:
        return _gamma(self._program, self._instance, assumed)

    size = staticmethod(len)

    def true(
        self, under: FactIndex, relations: frozenset[str] | None = None
    ) -> Instance:
        true_facts = under.to_instance()
        return true_facts if relations is None else true_facts.restrict(relations)

    def undefined(self, under: FactIndex, over: FactIndex) -> Instance:
        return over.to_instance() - under.to_instance()


def _alternating_fixpoint(session, max_rounds: int):
    """``K_0 = input``, ``K_{i+1} = Γ(Γ(K_i))`` increases to the true facts
    W.  Returns ``(W, Γ(W))``: the sequence only grows, so the round whose
    size did not change has ``K_{i+1} = K_i`` and its ``Γ(K_i)`` is Γ(W).
    """
    under = session.start
    for _ in range(max_rounds):
        over = session.gamma(under)
        new_under = session.gamma(over)
        if session.size(new_under) == session.size(under):
            return new_under, over
        under = new_under
    raise RuntimeError(
        f"alternating fixpoint did not converge within {max_rounds} rounds"
    )


def _doubled_iteration(session, max_rounds: int):
    """The two halves of the doubled program iterated against each other:
    the under half reads the previous over estimate for its negations and
    vice versa.  Returns the same ``(under, over)`` pair as
    :func:`_alternating_fixpoint`."""
    under = session.start
    over = session.gamma(under)
    for _ in range(max_rounds):
        new_under = session.gamma(over)
        new_over = session.gamma(new_under)
        if session.size(new_under) == session.size(under) and session.size(
            new_over
        ) == session.size(over):
            return new_under, new_over
        under, over = new_under, new_over
    raise RuntimeError(
        f"doubled-program iteration did not converge within {max_rounds} rounds"
    )


class WellFoundedEvaluator:
    """A long-lived well-founded evaluator for one program.

    Γ runs on the interned kernel.  The frozen-negation form compiles on
    first use and stays with this object, so an evaluator reused across
    inputs (a transducer's query, one transition after another) compiles
    once.
    """

    def __init__(self, program: Program) -> None:
        self._program = program
        self._kernel = None

    @property
    def kernel_compiled(self) -> int:
        """Kernel rule specializations generated so far (0 until the first
        evaluation)."""
        return self._kernel.compiled if self._kernel is not None else 0

    def session(self, instance: Instance):
        """The Γ backend for one evaluation on *instance*."""
        if self._kernel is None:
            # Imported here: repro.kernel imports this package.
            from ..kernel.wellfounded import FrozenNegationKernel

            self._kernel = FrozenNegationKernel(self._program)
        return self._kernel.session(instance)

    def model(self, instance: Instance, *, max_rounds: int = 10_000) -> WellFoundedModel:
        """The full three-valued model (see :func:`evaluate_well_founded`)."""
        return _model(self.session(instance), _alternating_fixpoint, max_rounds)

    def output(self, instance: Instance, *, max_rounds: int = 10_000) -> Instance:
        """Only the true facts of the designated output relations — the
        query a program expresses under the well-founded semantics.  Never
        decodes the rest of the model."""
        session = self.session(instance)
        under, _ = _alternating_fixpoint(session, max_rounds)
        return session.true(under, self._program.output_relations)


def _model(session, iterate, max_rounds: int) -> WellFoundedModel:
    under, over = iterate(session, max_rounds)
    return WellFoundedModel(
        true=session.true(under), undefined=session.undefined(under, over)
    )


def evaluate_well_founded(
    program: Program, instance: Instance, *, max_rounds: int = 10_000
) -> WellFoundedModel:
    """Compute the well-founded model by the alternating fixpoint.

    The sequence ``K_0 = ∅``, ``K_{i+1} = Γ(Γ(K_i))`` increases to the set of
    true facts W; ``Γ(W)`` is the over-approximation (true ∪ undefined).
    """
    return WellFoundedEvaluator(program).model(instance, max_rounds=max_rounds)


def naive_well_founded(
    program: Program, instance: Instance, *, max_rounds: int = 10_000
) -> WellFoundedModel:
    """The reference for :func:`evaluate_well_founded`: the same alternating
    fixpoint with every Γ a naive loop over :func:`match_rule`."""
    return _model(_NaiveSession(program, instance), _alternating_fixpoint, max_rounds)


def _over_atom(atom: Atom, idb: frozenset[str]) -> Atom:
    if atom.relation in idb:
        return Atom(atom.relation + OVER_SUFFIX, atom.terms)
    return atom


def doubled_program(program: Program) -> Program:
    """The doubled (over/under) program of *program*.

    For every rule ``H <- pos, not neg`` two rules are produced:

    * an under-rule ``H <- pos, not neg_over`` — H is derived when the body
      holds with negation checked against the over-approximation;
    * an over-rule ``H_over <- pos_over, not neg`` — the over twin is derived
      when the body holds with positive atoms read from the over twins and
      negation checked against the under-approximation.

    Each produced rule has exactly the variable co-occurrence structure of
    its source rule, so connectivity is preserved rule by rule — the
    observation behind the Section 7 remark that connected Datalog under the
    well-founded semantics remains in Mdisjoint.
    """
    idb = frozenset(program.idb())
    doubled: list[Rule] = []
    for rule in program:
        over_neg = frozenset(_over_atom(a, idb) for a in rule.neg)
        doubled.append(Rule(rule.head, rule.pos, over_neg, rule.ineq))
        over_head = _over_atom(rule.head, idb)
        over_pos = frozenset(_over_atom(a, idb) for a in rule.pos)
        doubled.append(Rule(over_head, over_pos, rule.neg, rule.ineq))
    outputs = set(program.output_relations)
    return Program(doubled, output_relations=outputs)


def evaluate_doubled(
    program: Program, instance: Instance, *, max_rounds: int = 10_000
) -> WellFoundedModel:
    """Evaluate the well-founded model through the doubled program.

    The two halves of :func:`doubled_program` are iterated against each
    other: the under half uses the previous over estimate for its negations
    and vice versa.  The result coincides with
    :func:`evaluate_well_founded`; the tests assert that equivalence.
    """
    session = WellFoundedEvaluator(program).session(instance)
    return _model(session, _doubled_iteration, max_rounds)


@functools.cache
def winmove_program() -> Program:
    """The win-move program: ``Win(x) <- Move(x, y), not Win(y).``

    Not stratifiable; its meaning is given by the well-founded semantics.
    ``Win`` is the output relation.  A position is *won* when Win is true,
    *lost* when false, *drawn* when undefined.
    """
    from .parser import parse_rules

    rules = parse_rules("Win(x) :- Move(x, y), not Win(y).")
    return Program(rules, output_relations=["Win"])


def winmove_truths(instance: Instance) -> tuple[Instance, Instance, Instance]:
    """Won / drawn / lost positions of the game graph in *instance*.

    *instance* holds ``Move``-facts.  Returns three instances of unary
    ``Win`` / ``Drawn`` / ``Lost`` facts over the game positions.
    """
    program = winmove_program()
    model = evaluate_well_founded(program, instance)
    positions = instance.adom()
    won = {f.values[0] for f in model.true if f.relation == "Win"}
    drawn = {f.values[0] for f in model.undefined if f.relation == "Win"}
    lost = positions - won - drawn
    return (
        Instance(Fact("Win", (p,)) for p in won),
        Instance(Fact("Drawn", (p,)) for p in drawn),
        Instance(Fact("Lost", (p,)) for p in lost),
    )
