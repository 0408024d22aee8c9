"""The three coordination-free evaluation protocols of Section 4.2 / 4.3.

The proofs of Theorems 4.3 and 4.4 are constructive: they build policy-aware
transducers that distributedly compute any query of the matching
monotonicity class.  This module implements those constructions (plus the
plain broadcast strategy for M from [13]) as :class:`PythonTransducer`
instances over an arbitrary :class:`~repro.queries.base.Query`:

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

One detail the paper leaves implicit: in the no-``All`` variants of
Theorem 4.5 a node's identifier is not known to the other nodes, yet
absences / ownership over that identifier must still be decided.  The
protocols therefore announce the node's own identifier alongside its data
values; with ``All`` present this is redundant but harmless.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Hashable, Iterable, Iterator

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
    """Decoded view of a protocol node's memory + inputs for one transition."""

    def __init__(self, view: LocalView, inputs: Schema) -> None:
        self.view = view
        self.inputs = inputs
        memory = view.memory
        self.memory = memory
        self.known_facts = view.local_input | Instance(
            Fact(f.relation[len(GOT_PREFIX) + len(CAST_PREFIX):], f.values)
            for f in memory
            if f.relation.startswith(GOT_PREFIX + CAST_PREFIX)
        )

    def got(self, relation: str) -> Instance:
        prefixed = GOT_PREFIX + relation
        return Instance(f for f in self.memory if f.relation == prefixed)

    def already_sent(self, message: Fact) -> bool:
        return Fact(SENT_PREFIX + message.relation, message.values) in self.memory

    def store_deliveries(self) -> Iterator[Fact]:
        """Qins fragment: persist every delivered message as a got_* fact."""
        for fact in self.view.delivered:
            yield Fact(GOT_PREFIX + fact.relation, fact.values)

    def fresh(self, messages: Iterable[Fact]) -> list[Fact]:
        """Messages not sent before (the Qsnd output)."""
        return [m for m in messages if not self.already_sent(m)]

    @staticmethod
    def sent_markers(messages: Iterable[Fact]) -> Iterator[Fact]:
        for message in messages:
            yield Fact(SENT_PREFIX + message.relation, message.values)


def _casts(local_input: Instance) -> Iterator[Fact]:
    for fact in local_input:
        yield Fact(CAST_PREFIX + fact.relation, fact.values)


def _sharing_enabled() -> bool:
    """Per-transition work sharing rides the same kill switch as the step
    cache, so an uncached benchmark baseline recomputes everything the way
    the pre-plan engine did."""
    from ..flags import query_cache_enabled

    return query_cache_enabled()


def _shared_state(view: LocalView, inputs: Schema) -> _ProtocolState:
    """The transition's :class:`_ProtocolState`, decoded at most once.

    All four queries of a transition observe the same immutable view, so
    the decoded state is stashed in ``view.scratch`` and shared between
    Qout/Qins/Qsnd instead of being rebuilt by each of them.
    """
    if not _sharing_enabled():
        return _ProtocolState(view, inputs)
    state = view.scratch.get("protocol_state")
    if state is None:
        state = _ProtocolState(view, inputs)
        view.scratch["protocol_state"] = state
    return state


def _desired_once(state: _ProtocolState, key: str, build) -> list[Fact]:
    """Memoize a desired-message list on the view (Qins and Qsnd both need
    it; it is a pure function of the view)."""
    messages = state.view.scratch.get(key)
    if messages is None:
        messages = build(state)
        if _sharing_enabled():
            state.view.scratch[key] = messages
    return messages


def _fresh_once(state: _ProtocolState, key: str, build) -> list[Fact]:
    """The not-yet-sent subset of a desired-message list, computed once per
    view (Qins emits the sent_* markers for exactly the messages Qsnd sends,
    so both need the same list)."""
    fresh_key = key + ":fresh"
    fresh = state.view.scratch.get(fresh_key)
    if fresh is None:
        fresh = state.fresh(_desired_once(state, key, build))
        if _sharing_enabled():
            state.view.scratch[fresh_key] = fresh
    return fresh


# ----------------------------------------------------------------------
# M: plain broadcast ([13]; Section 4.3 discussion)
# ----------------------------------------------------------------------


def broadcast_transducer(
    query: Query, *, variant: ModelVariant = POLICY_AWARE
) -> PythonTransducer:
    """The naive strategy for monotone queries: broadcast all local input
    facts; output Q over every fact seen so far, every transition."""
    schema = _protocol_schema("broadcast", query, variant)

    def desired_messages(state: _ProtocolState) -> list[Fact]:
        return list(_casts(state.view.local_input))

    def fresh_messages(state: _ProtocolState) -> list[Fact]:
        return _fresh_once(state, "broadcast_desired", desired_messages)

    def out(view: LocalView) -> Iterable[Fact]:
        state = _shared_state(view, query.input_schema)
        return query(state.known_facts)

    def insert(view: LocalView) -> Iterable[Fact]:
        state = _shared_state(view, query.input_schema)
        yield from state.store_deliveries()
        yield from state.sent_markers(fresh_messages(state))

    def send(view: LocalView) -> Iterable[Fact]:
        state = _shared_state(view, query.input_schema)
        return fresh_messages(state)

    return PythonTransducer(
        schema, out=out, insert=insert, send=send, name=f"broadcast[{query.name}]"
    )


# ----------------------------------------------------------------------
# Mdistinct: fact + absence broadcast (Theorem 4.3)
# ----------------------------------------------------------------------


def _known_absences(state: _ProtocolState) -> Iterator[Fact]:
    """Candidate input facts over the known active domain that this node is
    responsible for and that are absent from its local input — hence absent
    from the global input (bare relation names, no prefix)."""
    view = state.view
    values = sorted(view.known_adom(), key=repr)
    for relation in state.inputs:
        arity = state.inputs.arity(relation)
        for combo in product(values, repeat=arity):
            candidate = Fact(relation, combo)
            if candidate in view.local_input:
                continue
            if view.is_responsible(candidate):
                yield candidate


#: Bound of the policy's cross-transition memo for :func:`_known_absences`.
#: The absence sweep is a pure function of (policy, node, known adom, local
#: input); the known adom stabilizes after a few transitions, so most
#: evaluations replay the memo instead of probing the |adom|^arity
#: candidate product again.  The memo is ``DistributionPolicy.absence_memo``:
#: the policy anchors responsibility, and the entries die with it.
_ABSENCE_MEMO_SIZE = 4096


def _known_absences_cached(state: _ProtocolState) -> Iterable[Fact]:
    view = state.view
    memo = getattr(view._policy, "absence_memo", None)
    if memo is None or not _sharing_enabled():
        return _known_absences(state)
    key = (view._node, view._known_values(), view.local_input.facts)
    absences = memo.get(key)
    if absences is None:
        absences = tuple(_known_absences(state))
        if len(memo) >= _ABSENCE_MEMO_SIZE:
            del memo[next(iter(memo))]
        memo[key] = absences
    return absences


def _distinct_complete(state: _ProtocolState) -> bool:
    """Every candidate fact over MyAdom is known present or known absent."""
    view = state.view
    values = sorted(view.known_adom(), key=repr)
    known = state.known_facts
    for relation in state.inputs:
        arity = state.inputs.arity(relation)
        absent = {
            f.values
            for f in state.got(ABSENT_PREFIX + relation)
        }
        for combo in product(values, repeat=arity):
            if Fact(relation, combo) in known:
                continue
            if combo in absent:
                continue
            candidate = Fact(relation, combo)
            if view.is_responsible(candidate) and candidate not in view.local_input:
                continue  # self-derived absence
            return False
    return True


def distinct_protocol_transducer(
    query: Query, *, variant: ModelVariant = POLICY_AWARE
) -> PythonTransducer:
    """The Theorem 4.3 construction for domain-distinct-monotone queries.

    Requires a policy-aware model (``MyAdom`` + ``policy_R``); raises
    :class:`SystemRelationUnavailable` at run time under a policy-blind
    variant, mirroring the fact that the construction does not exist in the
    original model.
    """
    schema = _protocol_schema("distinct", query, variant)

    def build_desired(state: _ProtocolState) -> list[Fact]:
        messages = list(_casts(state.view.local_input))
        try:
            messages.append(Fact(ANNOUNCE, (state.view.my_id,)))
        except SystemRelationUnavailable:
            pass  # oblivious variants have no id to announce
        for absent in _known_absences_cached(state):
            messages.append(Fact(ABSENT_PREFIX + absent.relation, absent.values))
        return messages

    def fresh_messages(state: _ProtocolState) -> list[Fact]:
        return _fresh_once(state, "distinct_desired", build_desired)

    def out(view: LocalView) -> Iterable[Fact]:
        state = _shared_state(view, query.input_schema)
        if _distinct_complete(state):
            return query(state.known_facts)
        return ()

    def insert(view: LocalView) -> Iterable[Fact]:
        state = _shared_state(view, query.input_schema)
        yield from state.store_deliveries()
        yield from state.sent_markers(fresh_messages(state))

    def send(view: LocalView) -> Iterable[Fact]:
        state = _shared_state(view, query.input_schema)
        return fresh_messages(state)

    return PythonTransducer(
        schema, out=out, insert=insert, send=send, name=f"distinct[{query.name}]"
    )


# ----------------------------------------------------------------------
# Mdisjoint: value announcements + ownership handshake (Theorem 4.4)
# ----------------------------------------------------------------------


def _disjoint_messages(state: _ProtocolState) -> list[Fact]:
    view = state.view
    me = view.my_id
    messages: list[Fact] = list(_casts(view.local_input))
    messages.append(Fact(ANNOUNCE, (me,)))
    for value in sorted(view.local_input.adom(), key=repr):
        messages.append(Fact(ANNOUNCE, (value,)))

    owned = view.responsible_values()

    # Requests for known values we do not own.
    for value in sorted(view.known_adom(), key=repr):
        if value not in owned:
            messages.append(Fact(REQUEST, (me, value)))

    # Acknowledge every input fact we have stored (local or received).
    for fact in state.known_facts:
        messages.append(Fact(ACK_PREFIX + fact.relation, (me,) + fact.values))

    # Serve requests we own: cast the matching local facts, and emit OK once
    # the requester has acknowledged every one of them.
    requests = state.got(REQUEST)
    acked: dict[Hashable, set[Fact]] = {}
    for ack in (f for f in state.memory if f.relation.startswith(GOT_PREFIX + ACK_PREFIX)):
        requester = ack.values[0]
        relation = ack.relation[len(GOT_PREFIX) + len(ACK_PREFIX):]
        acked.setdefault(requester, set()).add(Fact(relation, ack.values[1:]))
    for request in requests:
        requester, value = request.values
        if value not in owned:
            continue
        owed = [f for f in view.local_input if value in f.values]
        for fact in owed:
            messages.append(Fact(CAST_PREFIX + fact.relation, fact.values))
        if all(f in acked.get(requester, ()) for f in owed):
            messages.append(Fact(OK, (requester, value)))
    return messages


def _disjoint_complete(state: _ProtocolState) -> bool:
    """Every known value is owned or has been OK'd to this node."""
    view = state.view
    me = view.my_id
    owned = view.responsible_values()
    oks = {f.values[1] for f in state.got(OK) if f.values[0] == me}
    return all(
        value in owned or value in oks for value in view.known_adom()
    )


def disjoint_protocol_transducer(
    query: Query, *, variant: ModelVariant = POLICY_AWARE
) -> PythonTransducer:
    """The Theorem 4.4 construction for domain-disjoint-monotone queries.

    Correct under *domain-guided* policies only: ownership of a value must
    imply ownership of every input fact containing it, which is exactly what
    domain-guidedness provides.

    Section 7 caveat: value ownership is detected through the paper's
    ``policy_R(a, ..., a)`` probe, which needs at least one input relation of
    arity >= 1.  Nullary input facts themselves need no handshake — a
    domain-guided policy replicates them to every node.
    """
    schema = _protocol_schema("disjoint", query, variant)

    def fresh_messages(state: _ProtocolState) -> list[Fact]:
        return _fresh_once(state, "disjoint_desired", _disjoint_messages)

    def out(view: LocalView) -> Iterable[Fact]:
        state = _shared_state(view, query.input_schema)
        if _disjoint_complete(state):
            return query(state.known_facts)
        return ()

    def insert(view: LocalView) -> Iterable[Fact]:
        state = _shared_state(view, query.input_schema)
        yield from state.store_deliveries()
        yield from state.sent_markers(fresh_messages(state))

    def send(view: LocalView) -> Iterable[Fact]:
        state = _shared_state(view, query.input_schema)
        return fresh_messages(state)

    return PythonTransducer(
        schema, out=out, insert=insert, send=send, name=f"disjoint[{query.name}]"
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
) -> PythonTransducer:
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
