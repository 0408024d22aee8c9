"""Fault injection for transducer runs: adversarial channels and schedulers.

The confluence claims behind Theorems 4.3/4.4/4.5 quantify over *every* fair
run of the multiset-buffer semantics — arbitrary message reordering,
duplication and heartbeat interleavings.  This module supplies the
machinery to actually stress that space:

* :class:`FaultyChannel` — a :class:`~repro.transducers.runtime.Channel`
  that duplicates sends (multiset buffers make this legal), holds facts in
  flight for a bounded number of transitions (delay ⇒ reordering), or
  "drops" them with guaranteed later re-injection.  All three faults stay
  inside the paper's fair-run semantics: nothing is ever lost for good,
  because the runtime force-flushes in-flight facts before declaring
  quiescence.
* a scheduler zoo — :class:`SingletonScheduler` (one message per
  transition), :class:`HeartbeatStormScheduler` (bursts of empty
  deliveries), :class:`StarvationScheduler` (one node is starved of
  activations while the rest run hot, then bursts), and
  :class:`ChaosScheduler` (a seeded mix of all of the above plus random
  submultiset deliveries).  Every ``pre_round`` is followed by a fair
  full-delivery round inside :meth:`Run.run_to_quiescence`, so each
  schedule remains fair.

``chaos_scheduler_zoo`` and ``make_scheduler`` are the entry points used by
the CLI (``repro run --chaos``), the chaos-confluence benchmark and the
property tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Hashable, Iterable

from ..datalog.terms import Fact
from .runtime import Channel, Run, FairScheduler, Scheduler, TrickleScheduler

__all__ = [
    "FAULT_COUNTER_NAMES",
    "FaultPlan",
    "CHAOS_PLAN",
    "FaultyChannel",
    "SingletonScheduler",
    "HeartbeatStormScheduler",
    "StarvationScheduler",
    "ChaosScheduler",
    "chaos_scheduler_zoo",
    "make_scheduler",
    "SCHEDULER_NAMES",
]


# ----------------------------------------------------------------------
# The channel fault model
# ----------------------------------------------------------------------

#: The shared fault-counter vocabulary, used verbatim by both the
#: synchronous :class:`FaultyChannel` and the cluster fault layer
#: (:class:`repro.cluster.faults.FaultLayer`) so sweep tooling can diff
#: their telemetry directly.  Note that ``dropped`` counts
#: *drop-with-redelivery* events in both runtimes: a "dropped" fact is
#: withheld and re-injected later (every drop eventually increments
#: ``redelivered``), never lost for good — that is what keeps every faulty
#: run inside the paper's fair-run semantics.
FAULT_COUNTER_NAMES = ("duplicated", "delayed", "dropped", "redelivered")


@dataclass(frozen=True)
class FaultPlan:
    """Per-fact fault probabilities and bounds for a :class:`FaultyChannel`.

    The three fault kinds are mutually exclusive per (fact, target) send —
    a single random draw picks drop, delay or clean delivery — and a clean
    delivery may additionally be duplicated.  ``max_delay`` and
    ``redelivery_delay`` are measured in global transitions, so they are
    bounded: a delayed fact becomes due after finitely many transitions and
    fairness is preserved.

    ``crash_rate`` and ``max_crashes`` describe *node crash* faults: a
    node's task is killed mid-round and must recover from its last durable
    checkpoint.  Crashes only exist in the asynchronous cluster runtime
    (the synchronous simulator has no process to kill); the channel model
    here ignores both fields.  ``crash_rate`` is the per-transition
    probability that a node crashes at that decision point (drawn from a
    per-node seeded stream, so the schedule is deterministic per seed) and
    ``max_crashes`` bounds the total number of crashes per run.
    """

    duplicate_rate: float = 0.0
    max_copies: int = 3
    delay_rate: float = 0.0
    max_delay: int = 8
    drop_rate: float = 0.0
    redelivery_delay: int = 12
    crash_rate: float = 0.0
    max_crashes: int = 2

    def __post_init__(self) -> None:
        for name in ("duplicate_rate", "delay_rate", "drop_rate", "crash_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be within [0, 1], got {rate}")
        if self.delay_rate + self.drop_rate > 1.0:
            raise ValueError("delay_rate + drop_rate must not exceed 1")
        if self.max_copies < 2:
            raise ValueError("max_copies must be at least 2")
        if self.max_delay < 1 or self.redelivery_delay < 1:
            raise ValueError("delays must be at least one transition")
        if self.max_crashes < 0:
            raise ValueError("max_crashes must be non-negative")

    def describe(self) -> str:
        base = (
            f"dup={self.duplicate_rate:g}x{self.max_copies} "
            f"delay={self.delay_rate:g}<={self.max_delay} "
            f"drop={self.drop_rate:g}<={self.redelivery_delay}"
        )
        if self.crash_rate > 0:
            base += f" crash={self.crash_rate:g}<={self.max_crashes}"
        return base

    def route(
        self, rng: random.Random, facts: Iterable[Fact], counters: dict[str, int]
    ) -> tuple[list[Fact], list[tuple[int, Fact, str]]]:
        """The per-fact fault draw, shared by the synchronous channel and
        the cluster endpoint wrapper: ``(now, held)`` where ``now`` are the
        copies to deliver at once and ``held`` the withheld facts as
        ``(delay, fact, kind)``, ``delay >= 1`` in the caller's unit
        (transitions, ticks) and ``kind`` ``"dropped"`` or ``"delayed"``.
        The sequence of ``rng`` calls is part of the contract: seeded chaos
        runs are byte-reproducible."""
        now: list[Fact] = []
        held: list[tuple[int, Fact, str]] = []
        for fact in facts:
            draw = rng.random()
            if draw < self.drop_rate:
                held.append((1 + rng.randrange(self.redelivery_delay), fact, "dropped"))
                counters["dropped"] += 1
            elif draw < self.drop_rate + self.delay_rate:
                held.append((1 + rng.randrange(self.max_delay), fact, "delayed"))
                counters["delayed"] += 1
            else:
                copies = 1
                if rng.random() < self.duplicate_rate:
                    copies = rng.randint(2, self.max_copies)
                    counters["duplicated"] += copies - 1
                now.extend([fact] * copies)
        return now, held


#: The default adversarial mix used by ``repro run --chaos`` and the
#: chaos-confluence benchmark.
CHAOS_PLAN = FaultPlan(
    duplicate_rate=0.25, delay_rate=0.25, drop_rate=0.15
)


class FaultyChannel(Channel):
    """A channel that injects duplication, delay and drop-with-redelivery.

    All held facts live in per-target in-flight queues tagged with a due
    transition; :meth:`release` hands back the due ones when the target
    next transitions, and :meth:`flush` surrenders everything, which the
    runtime uses to guarantee eventual delivery.

    Counter vocabulary (:data:`FAULT_COUNTER_NAMES`): ``dropped`` counts
    drop-with-redelivery events — a dropped fact is withheld, not lost,
    and later shows up in ``redelivered``.
    """

    name = "faulty"

    def __init__(self, plan: FaultPlan = CHAOS_PLAN, seed: int = 0) -> None:
        self.plan = plan
        self.seed = seed
        self._rng = random.Random(seed)
        self._in_flight: dict[Hashable, list[tuple[int, Fact, str]]] = {}
        self._counters = {name: 0 for name in FAULT_COUNTER_NAMES}

    def transmit(
        self, source: Hashable, target: Hashable, facts: Iterable[Fact], clock: int
    ) -> list[Fact]:
        now, held = self.plan.route(self._rng, facts, self._counters)
        if held:
            self._in_flight.setdefault(target, []).extend(
                (clock + delay, fact, kind) for delay, fact, kind in held
            )
        return now

    def release(self, target: Hashable, clock: int) -> list[Fact]:
        queue = self._in_flight.get(target)
        if not queue:
            return []
        due_now = [entry for entry in queue if entry[0] <= clock]
        if not due_now:
            return []
        self._in_flight[target] = [entry for entry in queue if entry[0] > clock]
        self._counters["redelivered"] += sum(
            1 for entry in due_now if entry[2] == "dropped"
        )
        return [fact for _, fact, _ in due_now]

    def flush(self, target: Hashable) -> list[Fact]:
        queue = self._in_flight.pop(target, [])
        self._counters["redelivered"] += sum(
            1 for entry in queue if entry[2] == "dropped"
        )
        return [fact for _, fact, _ in queue]

    def pending(self) -> int:
        return sum(len(queue) for queue in self._in_flight.values())

    def fault_counters(self) -> dict[str, int]:
        return dict(self._counters)


# ----------------------------------------------------------------------
# The scheduler zoo
# ----------------------------------------------------------------------


class SingletonScheduler(Scheduler):
    """Delivers buffered messages strictly one at a time, in a random
    round-robin over the nodes, before every fair round — the maximal
    interleaving of the multiset semantics.  The drain is budgeted (a
    chatty transducer could otherwise keep it busy forever); whatever is
    left is swept up by the fair round."""

    name = "singleton"

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)

    def pre_round(self, run: Run) -> None:
        budget = 4 * run.buffered_messages() + 4 * len(run.nodes())
        while budget > 0:
            nodes = [node for node in run.nodes() if run.buffer(node)]
            if not nodes:
                return
            self._rng.shuffle(nodes)
            for node in nodes:
                pending = list(run.buffer(node).elements())
                if not pending:
                    continue
                message = self._rng.choice(pending)
                run.transition(node, deliver=[message])
                budget -= 1
                if budget <= 0:
                    return

    def order(self, run: Run) -> list[Hashable]:
        nodes = run.nodes()
        self._rng.shuffle(nodes)
        return nodes


class HeartbeatStormScheduler(Scheduler):
    """Interleaves bursts of heartbeats (empty deliveries) before every
    round.  Heartbeat transitions still run Qout/Qsnd over the local state,
    so a protocol whose output gate mistakenly depended on *when* it is
    evaluated — rather than on what has been delivered — diverges here."""

    name = "storm"

    def __init__(self, seed: int = 0, storms: int = 3) -> None:
        self._rng = random.Random(seed)
        self.storms = storms

    def pre_round(self, run: Run) -> None:
        nodes = run.nodes() * self.storms
        self._rng.shuffle(nodes)
        for node in nodes:
            run.heartbeat(node)

    def order(self, run: Run) -> list[Hashable]:
        nodes = run.nodes()
        self._rng.shuffle(nodes)
        return nodes


class StarvationScheduler(Scheduler):
    """Starves one (rotating) victim node: for a few phases every other
    node transitions with full delivery while the victim only heartbeats —
    its buffer balloons — then the victim absorbs the whole backlog in one
    burst transition.  Probes order-independence of large batched
    deliveries versus the fine-grained schedules."""

    name = "starve"

    def __init__(self, seed: int = 0, phases: int = 3) -> None:
        self._rng = random.Random(seed)
        self.phases = phases
        self._turn = 0

    def pre_round(self, run: Run) -> None:
        nodes = run.nodes()
        if len(nodes) < 2:
            return
        victim = nodes[self._turn % len(nodes)]
        self._turn += 1
        others = [node for node in nodes if node != victim]
        for _ in range(self.phases):
            self._rng.shuffle(others)
            for node in others:
                run.transition(node, deliver="all")
            run.heartbeat(victim)
        run.transition(victim, deliver="all")

    def order(self, run: Run) -> list[Hashable]:
        nodes = run.nodes()
        self._rng.shuffle(nodes)
        return nodes


class ChaosScheduler(Scheduler):
    """A seeded mix: each pre_round randomly behaves like one of the other
    adversaries or delivers a random submultiset at every node."""

    name = "chaos"

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)
        self._moods: list[Scheduler] = [
            SingletonScheduler(seed + 1),
            HeartbeatStormScheduler(seed + 2, storms=2),
            StarvationScheduler(seed + 3, phases=2),
            TrickleScheduler(seed + 4),
        ]

    def pre_round(self, run: Run) -> None:
        roll = self._rng.random()
        if roll < 0.2:
            self._random_submultisets(run)
        else:
            self._rng.choice(self._moods).pre_round(run)

    def _random_submultisets(self, run: Run) -> None:
        nodes = run.nodes()
        self._rng.shuffle(nodes)
        for node in nodes:
            pending = list(run.buffer(node).elements())
            if not pending:
                continue
            take = self._rng.randint(0, len(pending))
            if take == 0:
                run.heartbeat(node)
                continue
            self._rng.shuffle(pending)
            run.transition(node, deliver=pending[:take])

    def order(self, run: Run) -> list[Hashable]:
        nodes = run.nodes()
        self._rng.shuffle(nodes)
        return nodes


SCHEDULER_NAMES: dict[str, type[Scheduler]] = {
    "fair": FairScheduler,
    "trickle": TrickleScheduler,
    "singleton": SingletonScheduler,
    "storm": HeartbeatStormScheduler,
    "starve": StarvationScheduler,
    "chaos": ChaosScheduler,
}


def make_scheduler(name: str, seed: int = 0) -> Scheduler:
    """Instantiate a scheduler by CLI name (see ``SCHEDULER_NAMES``)."""
    try:
        factory = SCHEDULER_NAMES[name]
    except KeyError:
        known = ", ".join(sorted(SCHEDULER_NAMES))
        raise ValueError(f"unknown scheduler {name!r} (known: {known})") from None
    return factory(seed)


def chaos_scheduler_zoo(seed: int = 0) -> list[Scheduler]:
    """One seeded instance of every adversarial scheduler (no plain fair)."""
    return [
        TrickleScheduler(seed),
        SingletonScheduler(seed),
        HeartbeatStormScheduler(seed),
        StarvationScheduler(seed),
        ChaosScheduler(seed),
    ]
