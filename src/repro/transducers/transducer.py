"""Relational transducers: the quadruple (Qout, Qins, Qdel, Qsnd).

A transducer's four queries all read the same database D = J ∪ S, where
J is the node's local snapshot (input fragment, output, memory, delivered
messages) and S the system facts (Section 4.1.3).  Two concrete flavours:

* :class:`PythonTransducer` — the four queries are Python callables over a
  :class:`LocalView`; used for the evaluation protocols of Section 4.2 whose
  bookkeeping would be tedious in pure Datalog.
* :class:`DatalogTransducer` — the four queries are stratified Datalog¬
  programs evaluated on the materialized D; the declarative-networking
  flavour of the model.

The :class:`LocalView` enforces the model variant: reading ``my_id`` without
the ``Id`` relation, ``all_nodes`` without ``All``, or the policy accessors
in a policy-blind variant raises :class:`SystemRelationUnavailable` — the
programmatic analogue of the relation simply not being in the schema.

A view reads through its node's :class:`Cursor`: the state carried from the
node's previous evaluated transition, advanced by what was added since.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from typing import Callable, Hashable, Iterable, Iterator

from ..datalog.instance import Instance
from ..datalog.program import Program
from ..datalog.stratified import StratifiedEvaluator
from ..datalog.terms import Fact
from .policy import DistributionPolicy, Network
from .schema import (
    ALL_RELATION,
    ID_RELATION,
    MYADOM_RELATION,
    TransducerSchema,
    policy_relation_name,
)

__all__ = [
    "SystemRelationUnavailable",
    "Cursor",
    "LocalView",
    "Transducer",
    "PythonTransducer",
    "DatalogTransducer",
    "TransducerUpdate",
]


class SystemRelationUnavailable(RuntimeError):
    """Raised when a transducer reads a system relation its model lacks."""


_NOTHING: frozenset = frozenset()


class Cursor:
    """What one node carries from one evaluated transition to the next.

    A node's input, output and memory only grow between its transitions
    (the transducers of this package are inflationary), so a cursor
    remembers the parts it last absorbed and, handed the next database,
    absorbs only the facts added since: into the known active domain
    (:attr:`adom`, the persistent part of ``MyAdom``) and into the one
    per-node state a transducer may keep here (:meth:`carry`).

    The carried state stays exact only while the node's state really
    continues what the cursor saw — the parts it absorbed, plus the
    insertions its last evaluation announced with :meth:`expect`.  When
    the parts it is handed do not contain both (a recovery, a model checker
    loading another branch into the same node), it starts again from
    empty, which is the from-scratch computation.  Never persisted.
    """

    __slots__ = ("_parts", "_expected", "adom", "_owner", "_state")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Forget everything: the next database is absorbed whole."""
        self._parts = (_NOTHING, _NOTHING, _NOTHING)
        self._expected = _NOTHING
        self.adom: set = set()
        self._owner = self._state = None

    def advance(self, local_input: Instance, output: Instance, memory: Instance) -> None:
        """Absorb the facts of the three parts not absorbed yet."""
        parts = (local_input.facts, output.facts, memory.facts)
        added = []
        for now, before in zip(parts, self._parts):
            new = _NOTHING if now is before else now - before
            if len(now) - len(new) != len(before):
                break  # `before` is not a subset of `now`
            added.append(new)
        if len(added) < len(parts) or not self._expected <= parts[2]:
            self.reset()
            added = list(parts)
        self._parts = parts
        self._expected = _NOTHING
        adom = self.adom
        for facts in added:
            for fact in facts:
                adom.update(fact.values)
        if self._state is not None:
            self._state.absorb(*added)

    def expect(self, insertions: Iterable[Fact]) -> None:
        """The next database must hold *insertions* in memory: the carried
        state has counted them as made."""
        self._expected = frozenset(insertions)

    def carried(self, owner: object):
        """The state *owner* carries here, or ``None``."""
        return self._state if self._owner is owner else None

    def carry(self, owner: object, state):
        """Install *state* for *owner* and let it absorb everything absorbed
        so far; *state* needs an ``absorb(new_input, new_output,
        new_memory)`` method taking fact sets."""
        self._owner, self._state = owner, state
        state.absorb(*self._parts)
        return state


class LocalView:
    """Everything a node may consult during one transition (the database D).

    Built by the runtime; exposes the paper's system relations as lazy
    accessors so Python transducers need not materialize the (potentially
    large) ``policy_R`` relations.  ``cursor`` is the node's carried
    :class:`Cursor`; a view built without one gets an empty one.
    """

    def __init__(
        self,
        *,
        node: Hashable,
        network: Network,
        schema: TransducerSchema,
        policy: DistributionPolicy,
        local_input: Instance,
        output: Instance,
        memory: Instance,
        delivered: Instance,
        cursor: Cursor | None = None,
    ) -> None:
        self._node = node
        self._network = network
        self._schema = schema
        self._policy = policy
        self._local_input = local_input
        self._output = output
        self._memory = memory
        self._delivered = delivered
        self._known: frozenset | None = None
        self._cursor = cursor if cursor is not None else Cursor()
        self._advanced = False

    @property
    def cursor(self) -> Cursor:
        """The node's cursor, advanced to this view's database."""
        if not self._advanced:
            self._cursor.advance(self._local_input, self._output, self._memory)
            self._advanced = True
        return self._cursor

    # -- raw parts of J -------------------------------------------------

    @property
    def schema(self) -> TransducerSchema:
        return self._schema

    @property
    def local_input(self) -> Instance:
        """H(x): the input fragment assigned to this node by the policy."""
        return self._local_input

    @property
    def output(self) -> Instance:
        """The output facts this node has produced so far."""
        return self._output

    @property
    def memory(self) -> Instance:
        """The node's memory relations."""
        return self._memory

    @property
    def delivered(self) -> Instance:
        """M: the messages delivered in this transition, collapsed to a set."""
        return self._delivered

    def local_facts(self) -> Instance:
        """J = H(x) ∪ s1(x) ∪ M."""
        return self._local_input | self._output | self._memory | self._delivered

    # -- system relations (Section 4.1.3) --------------------------------

    @property
    def my_id(self) -> Hashable:
        """The ``Id`` relation: this node's identifier."""
        if not self._schema.variant.has_id:
            raise SystemRelationUnavailable(
                f"model {self._schema.variant.name} has no Id relation"
            )
        return self._node

    @property
    def all_nodes(self) -> frozenset:
        """The ``All`` relation: every node of the network."""
        if not self._schema.variant.has_all:
            raise SystemRelationUnavailable(
                f"model {self._schema.variant.name} has no All relation"
            )
        return frozenset(self._network)

    def known_adom(self) -> frozenset:
        """The ``MyAdom`` relation: the set A of the transition semantics.

        With ``All``: A = N ∪ adom(J); without: A = {x} ∪ adom(J) (Sec 4.3).
        """
        if not self._schema.variant.has_policy:
            raise SystemRelationUnavailable(
                f"model {self._schema.variant.name} has no MyAdom relation"
            )
        return self._known_values()

    def _known_values(self) -> frozenset:
        if self._known is None:
            values = set(self.cursor.adom)
            for fact in self._delivered:
                values.update(fact.values)
            if self._schema.variant.has_all:
                values |= set(self._network)
            elif self._schema.variant.has_id:
                values.add(self._node)
            self._known = frozenset(values)
        return self._known

    def is_responsible(self, fact: Fact) -> bool:
        """The ``policy_R`` relations, pointwise: is this fact over the known
        active domain and assigned to this node by the policy?"""
        if not self._schema.variant.has_policy:
            raise SystemRelationUnavailable(
                f"model {self._schema.variant.name} has no policy relations"
            )
        if not self._schema.inputs.contains_fact(fact):
            return False
        if not fact.adom() <= self._known_values():
            return False
        return self._policy.assigns(fact, self._node)

    def owns(self, value: Hashable) -> bool:
        """Is this node responsible for the known value *value* under a
        domain-guided policy?

        Uses the paper's observation (proof of Theorem 4.4): x ∈ alpha(a)
        iff ``policy_R(a, ..., a)`` is shown to x for at least one input
        relation R.
        """
        inputs = self._schema.inputs
        for relation in inputs:
            arity = inputs.arity(relation)
            # A nullary probe fact carries no value, so it says nothing
            # about ownership of `value` (Section 7).
            if arity and self.is_responsible(Fact(relation, (value,) * arity)):
                return True
        return False

    def responsible_values(self) -> frozenset:
        """Values a ∈ MyAdom this node is responsible for (:meth:`owns`)."""
        return frozenset(value for value in self._known_values() if self.owns(value))

    def policy_facts(self, *, limit: int = 200_000) -> Iterator[Fact]:
        """Materialize all ``policy_R`` facts over the known active domain.

        Exponential in the relation arities; guarded by *limit* because the
        Datalog transducers are run on small experimental inputs only.
        """
        if not self._schema.variant.has_policy:
            raise SystemRelationUnavailable(
                f"model {self._schema.variant.name} has no policy relations"
            )
        values = sorted(self._known_values(), key=repr)
        produced = 0
        for relation in self._schema.inputs:
            arity = self._schema.inputs.arity(relation)
            for combo in itertools.product(values, repeat=arity):
                produced += 1
                if produced > limit:
                    raise RuntimeError(
                        f"policy materialization exceeded {limit} candidate facts"
                    )
                candidate = Fact(relation, combo)
                if self._policy.assigns(candidate, self._node):
                    yield Fact(policy_relation_name(relation), combo)

    def system_facts(self) -> Instance:
        """The fully materialized system instance S (for Datalog transducers)."""
        facts: list[Fact] = []
        variant = self._schema.variant
        if variant.has_id:
            facts.append(Fact(ID_RELATION, (self._node,)))
        if variant.has_all:
            facts.extend(Fact(ALL_RELATION, (node,)) for node in self._network)
        if variant.has_policy:
            facts.extend(
                Fact(MYADOM_RELATION, (value,)) for value in self._known_values()
            )
            facts.extend(self.policy_facts())
        return Instance(facts)

    def database(self) -> Instance:
        """The full database D = J ∪ S of the transition semantics."""
        return self.local_facts() | self.system_facts()


class TransducerUpdate:
    """The result of running the four queries on one view."""

    __slots__ = ("output", "insertions", "deletions", "messages")

    def __init__(
        self,
        output: Instance,
        insertions: Instance,
        deletions: Instance,
        messages: Instance,
    ) -> None:
        self.output = output
        self.insertions = insertions
        self.deletions = deletions
        self.messages = messages


class Transducer(ABC):
    """A relational transducer over a :class:`TransducerSchema`.

    The four queries of the model are *generic deterministic queries over
    the database D* (Section 4.1.3), so the whole transition result is a
    function of D.  :meth:`step` evaluates them on every transition; what a
    node carries from one transition to the next lives in its
    :class:`Cursor`, which is checked against D itself.
    """

    def __init__(self, schema: TransducerSchema, name: str = "transducer") -> None:
        self._schema = schema
        self._name = name

    @property
    def schema(self) -> TransducerSchema:
        return self._schema

    @property
    def name(self) -> str:
        return self._name

    @abstractmethod
    def queries(self, view: LocalView) -> tuple[Iterable[Fact], ...]:
        """The four queries on one view, in the order (Qout, Qins, Qdel,
        Qsnd): new output facts (target Upsilon_out), memory insertions and
        deletions (Upsilon_mem), and the messages sent to every other node
        (Upsilon_msg)."""

    def step(self, view: LocalView) -> TransducerUpdate:
        """Run all four queries and validate their target schemas."""
        output, insertions, deletions, messages = self.queries(view)
        schema = self._schema
        return TransducerUpdate(
            output=self._checked(output, schema.outputs, "Qout"),
            insertions=self._checked(insertions, schema.memory, "Qins"),
            deletions=self._checked(deletions, schema.memory, "Qdel"),
            messages=self._checked(messages, schema.messages, "Qsnd"),
        )

    def plans_compiled(self) -> int:
        """Join plans compiled by this transducer's evaluators (0 unless the
        queries run through the Datalog engine)."""
        return 0

    def _checked(self, facts: Iterable[Fact], target, label: str) -> Instance:
        produced = Instance(facts)
        for fact in produced:
            if not target.contains_fact(fact):
                raise ValueError(
                    f"{self._name}.{label} produced {fact!r}, which is not "
                    f"over its target schema"
                )
        return produced

    def with_variant(self, variant) -> "Transducer":
        """A copy of this transducer running under a different model variant
        (used by the Theorem 4.5 experiments)."""
        clone = self.__class__.__new__(self.__class__)
        clone.__dict__.update(self.__dict__)
        clone._schema = self._schema.with_variant(variant)
        return clone


class PythonTransducer(Transducer):
    """A transducer whose four queries are Python callables on the view."""

    def __init__(
        self,
        schema: TransducerSchema,
        *,
        out: Callable[[LocalView], Iterable[Fact]] | None = None,
        insert: Callable[[LocalView], Iterable[Fact]] | None = None,
        delete: Callable[[LocalView], Iterable[Fact]] | None = None,
        send: Callable[[LocalView], Iterable[Fact]] | None = None,
        name: str = "python-transducer",
    ) -> None:
        super().__init__(schema, name)
        nothing: Callable[[LocalView], Iterable[Fact]] = lambda view: ()
        self._out = out or nothing
        self._insert = insert or nothing
        self._delete = delete or nothing
        self._send = send or nothing

    def queries(self, view: LocalView) -> tuple[Iterable[Fact], ...]:
        return (
            self._out(view),
            self._insert(view),
            self._delete(view),
            self._send(view),
        )


class DatalogTransducer(Transducer):
    """A transducer whose four queries are stratified Datalog¬ programs.

    Each program is evaluated on the materialized database D; its designated
    output relations must lie in the corresponding target schema.  Programs
    may be ``None`` (the empty query).
    """

    def __init__(
        self,
        schema: TransducerSchema,
        *,
        out: Program | None = None,
        insert: Program | None = None,
        delete: Program | None = None,
        send: Program | None = None,
        name: str = "datalog-transducer",
    ) -> None:
        super().__init__(schema, name)
        self._evaluators = tuple(
            StratifiedEvaluator(program) if program is not None else None
            for program in (out, insert, delete, send)
        )

    def queries(self, view: LocalView) -> tuple[Iterable[Fact], ...]:
        database = None  # materialized once, and only if some query runs
        results: list[Iterable[Fact]] = []
        for evaluator in self._evaluators:
            if evaluator is None:
                results.append(())
                continue
            if database is None:
                database = view.database()
            results.append(evaluator.output(database))
        return tuple(results)

    def plans_compiled(self) -> int:
        return sum(
            evaluator.plans_compiled
            for evaluator in self._evaluators
            if evaluator is not None
        )
