"""The three coordination-free evaluation protocols of Section 4.2 / 4.3.

The proofs of Theorems 4.3 and 4.4 are constructive: they build policy-aware
transducers that distributedly compute any query of the matching
monotonicity class.  This module implements those constructions (plus the
plain broadcast strategy for M from [13]) as transducers over an arbitrary
:class:`~repro.queries.base.Query`:

* :func:`broadcast_transducer` (class **M**) — every node broadcasts its
  local input facts and outputs Q over everything it has seen; sound for
  monotone queries only.
* :func:`distinct_protocol_transducer` (class **Mdistinct**, Theorem 4.3) —
  nodes additionally broadcast *absences*: a node responsible (under the
  policy) for a candidate fact over its known active domain that is missing
  from its local input announces that the fact is globally absent.  Output
  is produced only when the known active domain is *complete*: every
  candidate fact over it is known present or known absent.
* :func:`disjoint_protocol_transducer` (class **Mdisjoint**, Theorem 4.4) —
  under domain-guided policies, nodes broadcast active-domain values and run
  the request / reply / acknowledge / OK handshake of the paper for values
  they are not responsible for.  Output is produced when every known value
  is either owned or OK'd.

All three deduplicate their sends through ``sent_*`` memory mirrors, so runs
quiesce; every delivered message is stored in memory, so re-deliveries are
idempotent (the property the runtime's quiescence detection relies on).
Memory therefore only grows, and each node decodes it once: its protocol
state is carried from transition to transition and advanced by the facts
added since (:class:`_ProtocolState`).

One detail the paper leaves implicit: in the no-``All`` variants of
Theorem 4.5 a node's identifier is not known to the other nodes, yet
absences / ownership over that identifier must still be decided.  The
protocols therefore announce the node's own identifier alongside its data
values; with ``All`` present this is redundant but harmless.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable

from ..datalog.instance import Instance
from ..datalog.schema import Schema
from ..datalog.terms import Fact
from ..queries.base import Query
from .schema import ModelVariant, POLICY_AWARE, TransducerSchema
from .transducer import (
    LocalView,
    PythonTransducer,
    SystemRelationUnavailable,
    Transducer,
)

__all__ = [
    "broadcast_transducer",
    "distinct_protocol_transducer",
    "disjoint_protocol_transducer",
    "local_shard_transducer",
    "protocol_for_class",
    "Section4Protocol",
    "section4_protocols",
    "CAST_PREFIX",
    "ABSENT_PREFIX",
]

CAST_PREFIX = "cast_"
ABSENT_PREFIX = "absent_"
ACK_PREFIX = "ack_"
GOT_PREFIX = "got_"
SENT_PREFIX = "sent_"
ANNOUNCE = "announce"
REQUEST = "request"
OK = "ok_value"
_GOT_CAST = GOT_PREFIX + CAST_PREFIX
_NONE: frozenset = frozenset()


def _message_schema(kind: str, inputs: Schema) -> Schema:
    """The message schema of the given protocol kind."""
    relations: dict[str, int] = {}
    for name in inputs:
        relations[CAST_PREFIX + name] = inputs.arity(name)
    if kind == "distinct":
        for name in inputs:
            relations[ABSENT_PREFIX + name] = inputs.arity(name)
        relations[ANNOUNCE] = 1
    if kind == "disjoint":
        for name in inputs:
            relations[ACK_PREFIX + name] = inputs.arity(name) + 1
        relations[ANNOUNCE] = 1
        relations[REQUEST] = 2
        relations[OK] = 2
    return Schema(relations, allow_nullary=True)


def _memory_schema(message_schema: Schema) -> Schema:
    """Memory mirrors every message relation twice: ``got_*`` stores the
    delivered messages, ``sent_*`` deduplicates the outgoing ones."""
    relations: dict[str, int] = {}
    for name in message_schema:
        relations[GOT_PREFIX + name] = message_schema.arity(name)
        relations[SENT_PREFIX + name] = message_schema.arity(name)
    return Schema(relations, allow_nullary=True)


def _protocol_schema(kind: str, query: Query, variant: ModelVariant) -> TransducerSchema:
    messages = _message_schema(kind, query.input_schema)
    return TransducerSchema(
        inputs=query.input_schema,
        outputs=query.output_schema,
        messages=messages,
        memory=_memory_schema(messages),
        variant=variant,
    )


class _ProtocolState:
    """One node's decoded protocol state, carried in the node's
    :class:`~repro.transducers.transducer.Cursor` from one evaluated
    transition to the next.

    :meth:`absorb` decodes the facts added since (local input, ``got_*``
    and ``sent_*`` memory); :meth:`transition` answers the four queries of
    the next transition from that delta.  The answers stay exact because
    every transition marks each message it sends (Qins writes ``sent_m``
    for every m of Qsnd): afterwards ``sent ⊇ desired(D)``, so ``desired(D′)
    − sent`` lies among the messages the delta newly makes desired and the
    conditions still pending (an OK or DONE awaiting acks).  A state built
    from nothing and handed the whole database is the from-scratch
    computation.  Subclasses add :meth:`_desired`, :meth:`_received` and
    :meth:`_complete`.
    """

    def __init__(self, query: Query, view: LocalView) -> None:
        self._query = query
        self._known: set[Fact] = set()  # the input facts seen: local ∪ got_cast_*
        self._sent: set[Fact] = set()  # the messages marked sent_*
        self._new_input: list[Fact] = []  # absorbed, not yet reacted to
        self._new_known: list[Fact] = []
        self._answer: Instance | None = None  # Q(known), while known is unchanged
        self._started = False  # has a transition been evaluated?

    def absorb(self, new_input, new_output, new_memory) -> None:
        self._new_input.extend(new_input)
        self._learn(new_input)
        learned = []
        for fact in new_memory:
            relation = fact.relation
            if relation.startswith(SENT_PREFIX):
                self._sent.add(Fact(relation[len(SENT_PREFIX):], fact.values))
            elif relation.startswith(_GOT_CAST):
                learned.append(Fact(relation[len(_GOT_CAST):], fact.values))
            else:
                self._received(relation[len(GOT_PREFIX):], fact.values)
        self._learn(learned)

    def _learn(self, facts: Iterable[Fact]) -> None:
        new = [fact for fact in facts if fact not in self._known]
        if new:
            self._known.update(new)
            self._new_known.extend(new)
            self._answer = None

    def transition(self, view: LocalView) -> tuple[Iterable[Fact], list[Fact], list[Fact]]:
        """(Qout, Qins, Qsnd) of the transition *view* presents."""
        new_input, self._new_input = self._new_input, []
        new_known, self._new_known = self._new_known, []
        desired = [Fact(CAST_PREFIX + fact.relation, fact.values) for fact in new_input]
        desired += self._desired(view, new_input, new_known)
        fresh = list({message for message in desired if message not in self._sent})
        self._started = True
        insertions = [
            Fact(GOT_PREFIX + fact.relation, fact.values) for fact in view.delivered
        ]
        insertions += (Fact(SENT_PREFIX + m.relation, m.values) for m in fresh)
        if not self._complete():
            return (), insertions, fresh
        if self._answer is None:
            self._answer = self._query(Instance(self._known))
        return self._answer, insertions, fresh

    def _desired(
        self, view: LocalView, new_input: list[Fact], new_known: list[Fact]
    ) -> list[Fact]:
        """Messages besides the casts of *new_input* that may be desired now
        and not before."""
        return []

    def _received(self, relation: str, values: tuple) -> None:
        """Decode one stored delivery of a message *relation* other than a cast."""

    def _complete(self) -> bool:
        """May Qout answer now?"""
        return True


class ProtocolTransducer(Transducer):
    """A Section-4 construction over *query*: per node, one carried
    *state_type* state answers all four queries of a transition at once."""

    def __init__(
        self,
        schema: TransducerSchema,
        query: Query,
        state_type: type[_ProtocolState],
        name: str,
    ) -> None:
        super().__init__(schema, name)
        self._query = query
        self._state_type = state_type

    def queries(self, view: LocalView) -> tuple[Iterable[Fact], ...]:
        cursor = view.cursor
        state = cursor.carried(self)
        if state is None:
            state = cursor.carry(self, self._state_type(self._query, view))
        try:
            output, insertions, messages = state.transition(view)
        except BaseException:
            cursor.reset()  # the state may be half advanced
            raise
        cursor.expect(insertions)
        return output, insertions, (), messages


# ----------------------------------------------------------------------
# M: plain broadcast ([13]; Section 4.3 discussion)
# ----------------------------------------------------------------------


def broadcast_transducer(
    query: Query, *, variant: ModelVariant = POLICY_AWARE
) -> Transducer:
    """The naive strategy for monotone queries: broadcast all local input
    facts; output Q over every fact seen so far, every transition."""
    return ProtocolTransducer(
        _protocol_schema("broadcast", query, variant),
        query,
        _ProtocolState,
        f"broadcast[{query.name}]",
    )


# ----------------------------------------------------------------------
# Mdistinct: fact + absence broadcast (Theorem 4.3)
# ----------------------------------------------------------------------


class _Distinct(_ProtocolState):
    """Casts, the node's id, and every candidate input fact over MyAdom the
    node is responsible for and lacks — hence absent from the global input.
    Complete when every candidate is known present or known absent."""

    def __init__(self, query: Query, view: LocalView) -> None:
        super().__init__(query, view)
        self._values: set = set()  # MyAdom values whose candidates are enumerated
        self._absent: set[Fact] = set()  # got_absent_*, as input facts
        self._unresolved: set[Fact] = set()  # candidates not known present or absent

    def _received(self, relation: str, values: tuple) -> None:
        if relation.startswith(ABSENT_PREFIX):
            fact = Fact(relation[len(ABSENT_PREFIX):], values)
            self._absent.add(fact)
            self._unresolved.discard(fact)

    def _desired(self, view, new_input, new_known):
        adom = view.known_adom()
        self._unresolved.difference_update(new_known)
        messages = []
        if not self._started:
            try:
                messages.append(Fact(ANNOUNCE, (view.my_id,)))
            except SystemRelationUnavailable:
                pass  # oblivious variants have no id to announce
        local = view.local_input
        for candidate in self._candidates(adom - self._values):
            if candidate not in local and view.is_responsible(candidate):
                messages.append(Fact(ABSENT_PREFIX + candidate.relation, candidate.values))
            elif candidate not in self._known and candidate not in self._absent:
                self._unresolved.add(candidate)
        return messages

    def _candidates(self, added: frozenset) -> list[Fact]:
        """The candidate facts over MyAdom holding a value of *added* (and,
        the first time, the nullary ones); *added* joins the enumerated
        values."""
        old = list(self._values)
        self._values.update(added)
        every = list(self._values)
        new = list(added)
        inputs = self._query.input_schema
        candidates = []
        for relation in inputs:
            arity = inputs.arity(relation)
            if arity == 0 and not self._started:
                candidates.append(Fact(relation, ()))
            # Partitioned by the first position holding a new value.
            for first in range(arity if new else 0):
                columns = [old] * first + [new] + [every] * (arity - first - 1)
                candidates.extend(Fact(relation, combo) for combo in product(*columns))
        return candidates

    def _complete(self) -> bool:
        return not self._unresolved


def distinct_protocol_transducer(
    query: Query, *, variant: ModelVariant = POLICY_AWARE
) -> Transducer:
    """The Theorem 4.3 construction for domain-distinct-monotone queries.

    Requires a policy-aware model (``MyAdom`` + ``policy_R``); raises
    :class:`SystemRelationUnavailable` at run time under a policy-blind
    variant, mirroring the fact that the construction does not exist in the
    original model.
    """
    return ProtocolTransducer(
        _protocol_schema("distinct", query, variant),
        query,
        _Distinct,
        f"distinct[{query.name}]",
    )


# ----------------------------------------------------------------------
# Mdisjoint: value announcements + ownership handshake (Theorem 4.4)
# ----------------------------------------------------------------------


class _Disjoint(_ProtocolState):
    """Casts, value announcements, requests for every known value the node
    does not own, acks of every input fact it stores, and an OK to each
    requester of an owned value once the requester has acked every local
    fact holding it.  Complete when every known value is owned or OK'd."""

    def __init__(self, query: Query, view: LocalView) -> None:
        super().__init__(query, view)
        self._me = view.my_id
        self._owned: dict = {}  # MyAdom value -> owned by this node
        self._oks: set = set()  # values OK'd to this node
        self._unresolved: set = set()  # known values neither owned nor OK'd
        self._owed: dict = {}  # value -> the local input facts holding it
        self._acked: dict = {}  # node -> the input facts it acknowledged
        self._requests: list[tuple] = []  # stored requests not looked at yet
        self._pending: set[tuple] = set()  # owned requests whose OK is unsent

    def _received(self, relation: str, values: tuple) -> None:
        if relation == REQUEST:
            self._requests.append(values)
        elif relation == OK:
            if values[0] == self._me:
                self._oks.add(values[1])
                self._unresolved.discard(values[1])
        elif relation.startswith(ACK_PREFIX):
            acked = Fact(relation[len(ACK_PREFIX):], values[1:])
            self._acked.setdefault(values[0], set()).add(acked)

    def _desired(self, view, new_input, new_known):
        me = self._me
        adom = view.known_adom()
        messages = [] if self._started else [Fact(ANNOUNCE, (me,))]
        for fact in new_input:
            for value in fact.values:
                messages.append(Fact(ANNOUNCE, (value,)))
                self._owed.setdefault(value, set()).add(fact)
        messages += (Fact(ACK_PREFIX + f.relation, (me,) + f.values) for f in new_known)
        for value in adom.difference(self._owned):
            owned = self._owned[value] = view.owns(value)
            if not owned:
                messages.append(Fact(REQUEST, (me, value)))
                if value not in self._oks:
                    self._unresolved.add(value)
        # A stored request names a value of MyAdom, so its ownership is known.
        self._pending.update(pair for pair in self._requests if self._owned[pair[1]])
        self._requests.clear()
        for requester, value in list(self._pending):
            ok = Fact(OK, (requester, value))
            if ok in self._sent:
                self._pending.discard((requester, value))
            elif self._owed.get(value, _NONE) <= self._acked.get(requester, _NONE):
                messages.append(ok)
                self._pending.discard((requester, value))
        return messages

    def _complete(self) -> bool:
        return not self._unresolved


def disjoint_protocol_transducer(
    query: Query, *, variant: ModelVariant = POLICY_AWARE
) -> Transducer:
    """The Theorem 4.4 construction for domain-disjoint-monotone queries.

    Correct under *domain-guided* policies only: ownership of a value must
    imply ownership of every input fact containing it, which is exactly what
    domain-guidedness provides.

    Section 7 caveat: value ownership is detected through the paper's
    ``policy_R(a, ..., a)`` probe, which needs at least one input relation of
    arity >= 1.  Nullary input facts themselves need no handshake — a
    domain-guided policy replicates them to every node.
    """
    return ProtocolTransducer(
        _protocol_schema("disjoint", query, variant),
        query,
        _Disjoint,
        f"disjoint[{query.name}]",
    )


def local_shard_transducer(
    query: Query, *, variant: ModelVariant = POLICY_AWARE
) -> PythonTransducer:
    """Shard-local evaluation: each node outputs Q over its own fragment
    and never sends a message.

    Sound exactly when the distribution policy makes Q *distributive over
    the fragments*: Q(I) = ∪_n Q(frag_n).  A co-locating domain-guided
    policy (one that keeps every connected component of the input on one
    node, e.g. :func:`~repro.transducers.policy.block_domain_assignment`)
    provides that for component-local queries like transitive closure.
    This is the embarrassingly-parallel end of the protocol spectrum — the
    fixed partitionable workload the process runtime's scaling curve
    measures — and the caller is responsible for the policy precondition
    (the scaling benchmark asserts union-of-fragments == Q(I) every run).
    """
    schema = TransducerSchema(
        inputs=query.input_schema,
        outputs=query.output_schema,
        messages=Schema({}, allow_nullary=True),
        memory=Schema({}, allow_nullary=True),
        variant=variant,
    )

    def out(view: LocalView) -> Iterable[Fact]:
        return query(view.local_input)

    return PythonTransducer(schema, out=out, name=f"local-shard[{query.name}]")


def protocol_for_class(
    query: Query, klass: str, *, variant: ModelVariant = POLICY_AWARE
) -> Transducer:
    """Pick the protocol matching a monotonicity class name
    (``"M"`` / ``"Mdistinct"`` / ``"Mdisjoint"``)."""
    if klass == "M":
        return broadcast_transducer(query, variant=variant)
    if klass == "Mdistinct":
        return distinct_protocol_transducer(query, variant=variant)
    if klass == "Mdisjoint":
        return disjoint_protocol_transducer(query, variant=variant)
    raise ValueError(f"no coordination-free protocol for class {klass!r}")


# ----------------------------------------------------------------------
# The Section-4 protocol suite (shared by the chaos-confluence benchmark,
# the property tests and the examples)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Section4Protocol:
    """One ready-to-run (transducer, query, instance) bundle of Section 4.

    ``domain_guided`` records whether the protocol is only correct under
    domain-guided policies (Theorem 4.4); :meth:`policy` builds a matching
    hash-based policy for a concrete network.
    """

    key: str
    theorem: str
    transducer: Transducer
    query: Query
    instance: Instance
    domain_guided: bool = False

    def policy(self, network):
        """A hash policy for *network* honoring ``domain_guided``."""
        from .policy import domain_guided_policy, hash_domain_assignment, hash_policy

        if self.domain_guided:
            return domain_guided_policy(
                self.query.input_schema, network, hash_domain_assignment(network)
            )
        return hash_policy(self.query.input_schema, network)

    def network(self, nodes):
        """The transducer network of this bundle on *nodes*: its transducer
        under :meth:`policy` (Section 4.1)."""
        from .policy import Network
        from .runtime import TransducerNetwork

        network = Network(nodes)
        return TransducerNetwork(network, self.transducer, self.policy(network))

    def expected(self) -> Instance:
        """Q(I): the centralized answer every fair run must converge to."""
        return self.query(self.instance)


def section4_protocols() -> tuple[Section4Protocol, ...]:
    """The constructions of Theorems 4.3 / 4.4 / 4.5 (and Corollary 4.6)
    on their canonical queries and small witness inputs."""
    from ..datalog.parser import parse_facts
    from ..queries.base import DatalogQuery
    from ..queries.graph import complement_tc_query, transitive_closure_query
    from ..queries.zoo import zoo_program
    from .schema import OBLIVIOUS, POLICY_AWARE_NO_ALL

    sp_query = DatalogQuery(zoo_program("sp-missing-targets"), "sp-missing-targets")
    sp_instance = Instance(parse_facts("E(1,2). E(2,3). E(3,1). Mark(2)."))
    cotc = complement_tc_query()
    tc = transitive_closure_query()
    graph = Instance(parse_facts("E(1,2). E(2,1). E(3,4)."))

    return (
        Section4Protocol(
            key="thm43-distinct",
            theorem="Thm 4.3 (policy-aware, F1 = Mdistinct)",
            transducer=distinct_protocol_transducer(sp_query),
            query=sp_query,
            instance=sp_instance,
        ),
        Section4Protocol(
            key="thm44-disjoint",
            theorem="Thm 4.4 (domain-guided, F2 = Mdisjoint)",
            transducer=disjoint_protocol_transducer(cotc),
            query=cotc,
            instance=graph,
            domain_guided=True,
        ),
        Section4Protocol(
            key="thm45-distinct-noall",
            theorem="Thm 4.5 (no All, A1 = Mdistinct)",
            transducer=distinct_protocol_transducer(
                sp_query, variant=POLICY_AWARE_NO_ALL
            ),
            query=sp_query,
            instance=sp_instance,
        ),
        Section4Protocol(
            key="thm45-disjoint-noall",
            theorem="Thm 4.5 (no All, A2 = Mdisjoint)",
            transducer=disjoint_protocol_transducer(
                cotc, variant=POLICY_AWARE_NO_ALL
            ),
            query=cotc,
            instance=graph,
            domain_guided=True,
        ),
        Section4Protocol(
            key="cor46-broadcast",
            theorem="Cor 4.6 (oblivious, F0 = A0 = M)",
            transducer=broadcast_transducer(tc, variant=OBLIVIOUS),
            query=tc,
            instance=graph,
        ),
    )
