"""Exhaustive exploration of transducer-network runs: bounded confluence
checking.

"Π distributedly computes Q" quantifies over *every* fair run (Section
4.1.4), and deciding such confluence properties is the subject of follow-up
work the paper cites ([12, 14]).  For small inputs and networks the
transition system is finite enough to explore outright, which turns the
sampled evidence of :func:`repro.transducers.coordination.
check_distributed_computation` into bounded-exhaustive evidence.

State-space abstraction
-----------------------

Message buffers are explored as *sets* of pending facts per node, and a
fact already delivered to a node is never re-enqueued for it.  Transition
semantics collapse the delivered submultiset to a set anyway, so this
abstraction is exact for transducers that are **duplicate-idempotent** —
re-delivering an already-delivered message never changes their behaviour.
Every protocol in this package stores all deliveries in memory and is
therefore duplicate-idempotent; arbitrary transducers may not be, so the
report records the abstraction.

Per state, the explored nondeterminism is: for every node, a heartbeat, the
delivery of each single pending fact, and the delivery of everything
pending — which covers the extremes and all single-message interleavings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterator

from ..datalog.instance import Instance
from ..datalog.terms import Fact
from .node import NodeCore, NodeState
from .runtime import TransducerNetwork

__all__ = ["ConfluenceReport", "explore_runs"]


@dataclass(frozen=True)
class _NodeState:
    output: frozenset
    memory: frozenset
    pending: frozenset
    delivered: frozenset


@dataclass(frozen=True)
class _Configuration:
    nodes: tuple[tuple[Hashable, _NodeState], ...]

    def state_of(self) -> dict:
        return dict(self.nodes)


@dataclass(frozen=True)
class ConfluenceReport:
    """Outcome of a bounded-exhaustive run exploration.

    ``confluent`` — every terminal (quiescent) configuration reached shows
    the same global output;
    ``complete`` — the whole reachable space fit within the budget, so the
    verdict is exhaustive rather than partial;
    ``outputs`` — the distinct terminal outputs observed.
    """

    configurations_explored: int
    terminal_configurations: int
    outputs: tuple[Instance, ...]
    complete: bool

    @property
    def confluent(self) -> bool:
        return len(self.outputs) <= 1

    def describe(self) -> str:
        scope = "exhaustively" if self.complete else "within budget (PARTIAL)"
        verdict = "confluent" if self.confluent else "NOT confluent"
        return (
            f"{verdict}: {len(self.outputs)} distinct terminal output(s) over "
            f"{self.terminal_configurations} terminal / "
            f"{self.configurations_explored} reachable configurations, {scope}"
        )


def _initial_configuration(network: TransducerNetwork) -> _Configuration:
    nodes = tuple(
        (
            node,
            _NodeState(
                output=frozenset(),
                memory=frozenset(),
                pending=frozenset(),
                delivered=frozenset(),
            ),
        )
        for node in sorted(network.network, key=repr)
    )
    # Input fragments are static and live outside the configuration.
    return _Configuration(nodes=nodes)


def _step(
    cores: dict[Hashable, NodeCore],
    configuration: _Configuration,
    active: Hashable,
    delivered: frozenset,
) -> _Configuration:
    """One transition under the set-buffer abstraction: a pure function of
    the configuration (the node's core is loaded with the configuration's
    state, stepped, and read back)."""
    states = configuration.state_of()
    state = states[active]
    core = cores[active]
    core.state = NodeState(Instance(state.output), Instance(state.memory))
    messages = core.transition(Instance(delivered)).messages
    new_states = dict(states)
    new_states[active] = _NodeState(
        output=core.state.output.facts,
        memory=core.state.memory.facts,
        pending=state.pending - delivered,
        delivered=state.delivered | delivered,
    )
    if messages:
        for node, other in states.items():
            if node == active:
                continue
            fresh = messages.facts - new_states.get(node, other).delivered
            base = new_states.get(node, other)
            new_states[node] = _NodeState(
                output=base.output,
                memory=base.memory,
                pending=base.pending | fresh,
                delivered=base.delivered,
            )
    return _Configuration(
        nodes=tuple((node, new_states[node]) for node, _ in configuration.nodes)
    )


def _choices(configuration: _Configuration) -> Iterator[tuple[Hashable, frozenset]]:
    for node, state in configuration.nodes:
        yield node, frozenset()  # heartbeat
        for message in sorted(state.pending, key=repr):
            yield node, frozenset({message})
        if len(state.pending) > 1:
            yield node, state.pending  # deliver everything


def _global_output(configuration: _Configuration) -> Instance:
    facts: set[Fact] = set()
    for _, state in configuration.nodes:
        facts |= state.output
    return Instance(facts)


def explore_runs(
    network: TransducerNetwork,
    instance: Instance,
    *,
    max_configurations: int = 20_000,
) -> ConfluenceReport:
    """Breadth-first exploration of all reachable configurations.

    A configuration is *terminal* when no choice changes it.  Outputs of
    terminal configurations are collected; the report says whether they all
    agree and whether the exploration was exhaustive.
    """
    fragments = network.policy.distribute(
        instance.restrict(network.transducer.schema.inputs)
    )
    cores = {
        node: NodeCore(network, node, fragments[node]) for node in network.network
    }
    start = _initial_configuration(network)
    seen = {start}
    frontier = [start]
    terminal_outputs: set[Instance] = set()
    terminal_count = 0
    complete = True

    while frontier:
        configuration = frontier.pop()
        successors = []
        for node, delivery in _choices(configuration):
            following = _step(cores, configuration, node, delivery)
            if following != configuration:
                successors.append(following)
        if not successors:
            terminal_count += 1
            terminal_outputs.add(_global_output(configuration))
            continue
        for following in successors:
            if following in seen:
                continue
            if len(seen) >= max_configurations:
                complete = False
                continue
            seen.add(following)
            frontier.append(following)

    return ConfluenceReport(
        configurations_explored=len(seen),
        terminal_configurations=terminal_count,
        outputs=tuple(sorted(terminal_outputs, key=lambda i: sorted(map(repr, i)))),
        complete=complete,
    )
