"""The CALM analyzer: from a Datalog¬ program to a coordination-free
distributed execution strategy.

This is the paper's story made executable.  Given a program, the analyzer

1. classifies its syntactic *fragment* (Figure 2, left column): positive
   Datalog, Datalog(≠), SP-Datalog, con-Datalog¬, semicon-Datalog¬, general
   stratified Datalog¬, or unstratifiable (well-founded semantics);
2. derives the weakest *monotonicity class* the fragment guarantees
   (Figure 2, middle column): Datalog(≠) ⊆ M, SP-Datalog ⊆ Mdistinct,
   semicon-Datalog¬ ⊆ Mdisjoint, connected Datalog under the well-founded
   semantics ⊆ Mdisjoint (Section 7 remark);
3. picks the matching coordination-free protocol and transducer model
   (Figure 2, right columns): broadcast / F0, absence protocol / F1,
   domain-guided handshake / F2 — or reports that no coordination-free
   strategy is guaranteed and a global barrier is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable

from ..datalog.connectivity import is_connected_program, is_semicon_datalog
from ..datalog.instance import Instance
from ..datalog.program import Program
from ..datalog.stratification import is_stratifiable
from ..queries.base import DatalogQuery, Query, WellFoundedQuery
from ..transducers.policy import (
    Network,
    domain_guided_policy,
    hash_domain_assignment,
    hash_policy,
)
from ..transducers.protocols import (
    broadcast_transducer,
    disjoint_protocol_transducer,
    distinct_protocol_transducer,
)
from ..transducers.runtime import TransducerNetwork
from ..transducers.transducer import Transducer

__all__ = [
    "Fragment",
    "AnalysisResult",
    "classify_fragment",
    "guaranteed_class",
    "analyze",
    "query_for",
    "DistributedPlan",
    "plan_distribution",
    "network_for_plan",
    "planned_network",
    "plan_ilog_distribution",
    "run_distributed",
]


class Fragment:
    """Fragment name constants (Figure 2 left column, plus WFS cases)."""

    DATALOG = "datalog"
    DATALOG_NEQ = "datalog-neq"
    SP_DATALOG = "sp-datalog"
    CON_DATALOG = "con-datalog"
    SEMICON_DATALOG = "semicon-datalog"
    STRATIFIED = "stratified"
    WFS_CONNECTED = "wfs-connected"
    WFS = "wfs"

    ORDER = (
        DATALOG,
        DATALOG_NEQ,
        SP_DATALOG,
        CON_DATALOG,
        SEMICON_DATALOG,
        STRATIFIED,
        WFS_CONNECTED,
        WFS,
    )


def classify_fragment(program: Program) -> str:
    """The tightest fragment of Figure 2 containing *program*.

    con-Datalog¬ and SP-Datalog overlap without inclusion (Section 5.1);
    when a program is in both, SP-Datalog is reported because it carries the
    stronger (smaller) monotonicity guarantee.
    """
    if not is_stratifiable(program):
        if is_connected_program(program):
            return Fragment.WFS_CONNECTED
        return Fragment.WFS
    if program.is_positive():
        return Fragment.DATALOG_NEQ if program.uses_inequalities() else Fragment.DATALOG
    if program.is_semi_positive():
        return Fragment.SP_DATALOG
    if is_connected_program(program):
        return Fragment.CON_DATALOG
    if is_semicon_datalog(program):
        return Fragment.SEMICON_DATALOG
    return Fragment.STRATIFIED


#: fragment -> the weakest monotonicity class it guarantees (None = none).
_FRAGMENT_GUARANTEES: dict[str, str | None] = {
    Fragment.DATALOG: "M",
    Fragment.DATALOG_NEQ: "M",
    Fragment.SP_DATALOG: "Mdistinct",
    Fragment.CON_DATALOG: "Mdisjoint",
    Fragment.SEMICON_DATALOG: "Mdisjoint",
    Fragment.STRATIFIED: None,
    Fragment.WFS_CONNECTED: "Mdisjoint",  # Section 7, doubled-program remark
    Fragment.WFS: None,
}

#: monotonicity class -> (transducer model, coordination-free class name).
_CLASS_MODELS: dict[str, tuple[str, str]] = {
    "M": ("original", "F0"),
    "Mdistinct": ("policy-aware", "F1"),
    "Mdisjoint": ("domain-guided", "F2"),
}


def guaranteed_class(fragment: str) -> str | None:
    """The weakest monotonicity class guaranteed by a fragment name."""
    return _FRAGMENT_GUARANTEES[fragment]


@dataclass(frozen=True)
class AnalysisResult:
    """The static analysis of one program."""

    fragment: str
    monotonicity: str | None
    model: str | None
    coordination_class: str | None

    @property
    def coordination_free(self) -> bool:
        return self.monotonicity is not None

    def describe(self) -> str:
        if not self.coordination_free:
            return (
                f"fragment={self.fragment}: no monotonicity guarantee — "
                "requires a global coordination barrier"
            )
        return (
            f"fragment={self.fragment}: in {self.monotonicity}, "
            f"coordination-free in the {self.model} model ({self.coordination_class})"
        )


def analyze(program: Program) -> AnalysisResult:
    """Classify *program* and derive its coordination-freeness guarantee."""
    fragment = classify_fragment(program)
    monotonicity = guaranteed_class(fragment)
    if monotonicity is None:
        return AnalysisResult(fragment, None, None, None)
    model, cf_class = _CLASS_MODELS[monotonicity]
    return AnalysisResult(fragment, monotonicity, model, cf_class)


def query_for(program: Program) -> Query:
    """The query computed by *program* under its natural semantics."""
    if is_stratifiable(program):
        return DatalogQuery(program)
    return WellFoundedQuery(program)


@dataclass(frozen=True)
class DistributedPlan:
    """An executable distribution strategy for a program.

    ``requires_barrier`` marks the coordinating fallback: the
    :func:`~repro.transducers.barrier.global_barrier_transducer`, which
    computes any query distributedly by waiting on explicit word from every
    node in ``All`` — correct, but not coordination-free.
    """

    analysis: AnalysisResult
    query: Query
    transducer: Transducer
    requires_domain_guided: bool
    requires_barrier: bool

    def describe(self) -> str:
        if self.requires_barrier:
            return (
                f"{self.query.name}: {self.analysis.describe()}; executing "
                f"via {self.transducer.name} (global All-barrier, coordinating)"
            )
        return f"{self.query.name}: {self.analysis.describe()}; protocol {self.transducer.name}"


def plan_distribution(
    program: Program, *, force_barrier: bool = False
) -> DistributedPlan:
    """Choose the cheapest sound distributed execution strategy.

    ``force_barrier`` overrides the routing and executes via the global
    All-barrier even when a coordination-free protocol applies — the
    coordinating baseline the service's cost comparisons run against.
    """
    from ..transducers.barrier import global_barrier_transducer

    analysis = analyze(program)
    query = query_for(program)
    requires_barrier = False
    if force_barrier or analysis.monotonicity is None:
        transducer: Transducer = global_barrier_transducer(query)
        requires_barrier = True
    elif analysis.monotonicity == "M":
        transducer = broadcast_transducer(query)
    elif analysis.monotonicity == "Mdistinct":
        transducer = distinct_protocol_transducer(query)
    else:  # Mdisjoint
        transducer = disjoint_protocol_transducer(query)
    return DistributedPlan(
        analysis=analysis,
        query=query,
        transducer=transducer,
        requires_domain_guided=(
            not requires_barrier and analysis.monotonicity == "Mdisjoint"
        ),
        requires_barrier=requires_barrier,
    )


def network_for_plan(
    plan: DistributedPlan, nodes: Iterable[Hashable] = ("n1", "n2", "n3")
) -> TransducerNetwork:
    """The transducer network executing an already-computed *plan* on
    *nodes* — shared by the Datalog¬ and ILOG¬ planners, and by the
    service (which plans once, then builds networks per request mode)."""
    network = Network(nodes)
    if plan.requires_domain_guided:
        policy = domain_guided_policy(
            plan.query.input_schema, network, hash_domain_assignment(network)
        )
    else:
        policy = hash_policy(plan.query.input_schema, network)
    return TransducerNetwork(network, plan.transducer, policy)


def planned_network(
    program: Program,
    nodes: Iterable[Hashable] = ("n1", "n2", "n3"),
    *,
    force_barrier: bool = False,
) -> TransducerNetwork:
    """The analyzer's chosen transducer network for *program* on *nodes*,
    ready for either runtime (synchronous ``Run`` or ``repro.cluster``)."""
    return network_for_plan(
        plan_distribution(program, force_barrier=force_barrier), nodes
    )


def run_distributed(
    program: Program,
    instance: Instance,
    *,
    nodes: Iterable[Hashable] = ("n1", "n2", "n3"),
    seed: int = 0,
) -> Instance:
    """End-to-end distributed evaluation of *program* on *instance*: the
    analyzer's network on the synchronous runtime under a fair schedule.

    Coordination-free when the analyzer finds a guarantee; otherwise the
    plan carries the global-barrier transducer — the in-model coordination
    the CALM theorems say cannot be avoided.
    """
    from ..runtimes import execute

    network = planned_network(program, nodes)
    return execute("sync", network, instance, seed=seed).result()


def plan_ilog_distribution(program) -> DistributedPlan:
    """The ILOG¬ side of the planner (Figure 2's right-hand column).

    Classifies the program with :func:`repro.ilog.fragments.classify_ilog`
    (SP-wILOG -> Mdistinct, (semi)con-wILOG¬ -> Mdisjoint per [18] /
    Theorem 5.4) and picks the matching protocol over the
    :class:`~repro.ilog.demos.ILOGQuery`.  Unsafe or unclassified programs
    fall back to the coordinating barrier strategy.
    """
    from ..ilog.demos import ILOGQuery
    from ..ilog.fragments import classify_ilog
    from ..transducers.barrier import global_barrier_transducer

    report = classify_ilog(program)
    guaranteed = report.guaranteed_class
    query = ILOGQuery(program)
    analysis = AnalysisResult(
        fragment=report.fragment,
        monotonicity=guaranteed,
        model=_CLASS_MODELS[guaranteed][0] if guaranteed else None,
        coordination_class=_CLASS_MODELS[guaranteed][1] if guaranteed else None,
    )
    requires_barrier = False
    if guaranteed == "Mdistinct":
        transducer: Transducer = distinct_protocol_transducer(query)
    elif guaranteed == "Mdisjoint":
        transducer = disjoint_protocol_transducer(query)
    else:
        transducer = global_barrier_transducer(query)
        requires_barrier = True
    return DistributedPlan(
        analysis=analysis,
        query=query,
        transducer=transducer,
        requires_domain_guided=guaranteed == "Mdisjoint",
        requires_barrier=requires_barrier,
    )


def run_with_barrier(
    query: Query,
    network: Network,
    instance: Instance,
    *,
    seed: int = 0,
) -> Instance:
    """The coordinated fallback: collect all data everywhere, *globally
    synchronize*, then evaluate.

    The barrier is implemented by the runtime (it knows when the exchange
    has quiesced), not by the transducer — precisely the knowledge the
    coordination-free models deny their nodes (Sections 4.1.5 and 4.3).
    """
    from ..runtimes import execute

    collector = broadcast_transducer(_collect_only(query))
    policy = hash_policy(query.input_schema, network)
    observation = execute(
        "sync", TransducerNetwork(network, collector, policy), instance, seed=seed
    )
    # ---- global barrier: all messages delivered, every node quiescent ----
    return query(Instance(_uncollected(fact) for fact in observation.result()))


_COLLECTED = "collected_"


def _collect_only(query: Query) -> Query:
    """A query that outputs its input, renamed apart — used to drive pure
    data exchange."""
    from ..datalog.schema import Schema
    from ..datalog.terms import Fact
    from ..queries.base import FunctionQuery

    schema = query.input_schema
    return FunctionQuery(
        f"collect[{query.name}]",
        schema,
        Schema(
            {_COLLECTED + name: schema[name] for name in schema}, allow_nullary=True
        ),
        lambda instance: Instance(
            Fact(_COLLECTED + fact.relation, fact.values) for fact in instance
        ),
    )


def _uncollected(fact):
    from ..datalog.terms import Fact

    return Fact(fact.relation[len(_COLLECTED):], fact.values)
