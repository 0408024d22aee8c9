"""The coordinating counterpart of the Section 4.2 protocols: with ``All``,
a transducer can compute *any* generic query distributedly — by building a
global synchronization barrier out of per-node acknowledgement handshakes.

Protocol (per node x):

* broadcast every local input fact (``cast_R``);
* acknowledge every input fact stored, tagged with x (``ack_R(x, ...)``);
* once every local fact has been acknowledged by some node y, declare
  ``done(x, y)`` — "y now holds everything I was given";
* output Q over the collected facts only when ``done(y, x)`` has been
  received from **every** other node in ``All``.

When x holds done-declarations from everyone, its collection is exactly the
global input, so the output is Q(I) — for *any* computable query, monotone
or not.  The price is the use of ``All``: the transducer waits on explicit
word from every node in the network, which is precisely the *global
coordination* that Definition 3 excludes.  Accordingly (and the tests
verify this):

* it distributedly computes queries far outside Mdisjoint, but
* it admits **no heartbeat-only witness** — under any policy, the output
  gate needs messages from the other nodes — so it is not
  coordination-free; and
* it cannot be built at all in the no-``All`` variants (Theorem 4.5's
  other half: without ``All``, transducers are automatically
  coordination-free — there is simply nothing to wait on).
"""

from __future__ import annotations

from ..datalog.schema import Schema
from ..datalog.terms import Fact
from ..queries.base import Query
from .protocols import (
    ACK_PREFIX,
    CAST_PREFIX,
    ProtocolTransducer,
    _NONE,
    _memory_schema,
    _ProtocolState,
)
from .schema import ModelVariant, POLICY_AWARE, TransducerSchema
from .transducer import LocalView, Transducer

__all__ = ["global_barrier_transducer", "barrier_baseline", "DONE"]

DONE = "done"


def _barrier_schema(query: Query, variant: ModelVariant) -> TransducerSchema:
    inputs = query.input_schema
    relations: dict[str, int] = {}
    for name in inputs:
        relations[CAST_PREFIX + name] = inputs.arity(name)
        relations[ACK_PREFIX + name] = inputs.arity(name) + 1
    relations[DONE] = 2
    messages = Schema(relations, allow_nullary=True)
    return TransducerSchema(
        inputs=inputs,
        outputs=query.output_schema,
        messages=messages,
        memory=_memory_schema(messages),
        variant=variant,
    )


class _Barrier(_ProtocolState):
    """Casts, acks of every input fact stored (local facts included, so a
    node whose facts were replicated to us is released without a resend),
    and ``done(x, y)`` once y's acks cover x's entire local input.
    Complete when every other node has declared done to x."""

    def __init__(self, query: Query, view: LocalView) -> None:
        super().__init__(query, view)
        self._me = view.my_id
        others = view.all_nodes - {self._me}
        self._unreleased = set(others)  # nodes we have not declared done to
        self._waiting = set(others)  # nodes whose done has not reached us
        self._acked_by: dict = {}  # node -> the input facts it acknowledged

    def _received(self, relation: str, values: tuple) -> None:
        if relation == DONE:
            if values[1] == self._me:
                self._waiting.discard(values[0])
        elif relation.startswith(ACK_PREFIX):
            acked = Fact(relation[len(ACK_PREFIX):], values[1:])
            self._acked_by.setdefault(values[0], set()).add(acked)

    def _desired(self, view, new_input, new_known):
        me = self._me
        messages = [Fact(ACK_PREFIX + f.relation, (me,) + f.values) for f in new_known]
        local = view.local_input.facts
        for other in list(self._unreleased):
            done = Fact(DONE, (me, other))
            if done in self._sent:
                self._unreleased.discard(other)
            elif local <= self._acked_by.get(other, _NONE):
                messages.append(done)
                self._unreleased.discard(other)
        return messages

    def _complete(self) -> bool:
        return not self._waiting


def global_barrier_transducer(
    query: Query, *, variant: ModelVariant = POLICY_AWARE
) -> Transducer:
    """A transducer computing *query* distributedly through a global barrier.

    Works for every generic query; requires ``Id`` and ``All``; is provably
    not coordination-free (no heartbeat-only witness exists).
    """
    return ProtocolTransducer(
        _barrier_schema(query, variant), query, _Barrier, f"barrier[{query.name}]"
    )


def barrier_baseline():
    """The coordinating baseline bundle for the chaos-confluence sweep.

    The barrier protocol waits on explicit word from every node, so it is
    *not* coordination-free — but it is still built from idempotent,
    delivered-message-driven updates, so under any fair schedule (faulty
    channels included: duplication, delay, drop-with-redelivery) it must
    converge to the same Q(I).  Including it in the sweep separates the two
    notions the paper keeps distinct: confluence under fair faults holds
    for coordinating and coordination-free protocols alike; what the
    barrier lacks is the heartbeat-only witness.
    """
    from ..datalog.parser import parse_facts
    from ..datalog.instance import Instance
    from ..queries.graph import complement_tc_query
    from .protocols import Section4Protocol

    cotc = complement_tc_query()
    return Section4Protocol(
        key="barrier-baseline",
        theorem="§4.2 discussion (coordinating baseline, uses All)",
        transducer=global_barrier_transducer(cotc),
        query=cotc,
        instance=Instance(parse_facts("E(1,2). E(2,1). E(3,4).")),
    )
