"""sim_protocols: the synchronous transducer simulator under the analyzer's
protocols, adversarial schedulers, channel faults and streamed deltas.

``transducers.runtime`` / ``protocols`` / ``policy`` / ``faults`` and the
step cache do most of the work; the kernel sees only local instances of a
few dozen facts; sockets and sqlite are never touched.  ``storm`` ops repeat
identical transitions (the step cache's hit path), ``chaos`` ops never do
(its miss path), so a cache change that helps one and hurts the other shows.
"""

from __future__ import annotations

from . import gen
from .harness import Workload
from .spans import Recorder, mean_attr, median_ms

#: One cycle: (kind, facts, nodes, scheduler, streamed), listed from light to
#: heavy (the op list interleaves them).  The adversarial schedulers multiply
#: transitions with the node count, so ``trickle`` and ``chaos`` stay on
#: three nodes; five nodes run ``fair``.  The classes are sized so that the
#: median falls inside the four middle ops (30-35 ms) and the 95th
#: percentile inside the slowest tenth, the two ``cotc`` streams — neither
#: sits on the boundary between two kinds of op, where it would flip between
#: them from run to run.  Every fifth op is a stream of four delta batches.
LIGHT = (
    ("tc", 30, 3, "fair", False),
    ("tc", 30, 5, "fair", False),
    ("sp", 30, 3, "fair", False),
    ("tc", 30, 3, "chaos", False),
    ("tri", 30, 3, "fair", False),
    ("sp", 30, 3, "storm", False),
    ("tri", 30, 3, "storm", False),
    ("wm", 30, 3, "storm", False),
)
MIDDLE = (
    ("cotc", 30, 3, "storm", False),
    ("tri", 30, 3, "chaos", False),
    ("tc", 60, 5, "fair", False),
    ("tri", 60, 3, "storm", False),
)
UPPER = (
    ("sp", 60, 3, "fair", False),
    ("wm", 60, 3, "fair", False),
    ("cotc", 60, 3, "storm", False),
    ("cotc", 30, 3, "trickle", False),
)
STREAMS = (
    ("sp", 30, 3, "storm", True),
    ("wm", 30, 3, "storm", True),
    ("cotc", 30, 3, "storm", True),
    ("cotc", 30, 3, "storm", True),
)
PATTERN = tuple(
    op
    for group in zip(LIGHT[:4], LIGHT[4:], MIDDLE, UPPER, STREAMS)
    for op in group
)
CYCLES = 6
STREAM_BATCHES = 4
FRESH_BASE = 1000  # delta batches use values no base fact mentions


def delta_batches(kind: str, rng, batches: int = STREAM_BATCHES) -> list[dict]:
    """Domain-disjoint additions (admissible for every class: Mdisjoint ⊆
    Mdistinct ⊆ M): each batch is a small graph over values of its own."""
    result = []
    for batch in range(batches):
        base = FRESH_BASE + 10 * batch
        data = gen.graph_data(kind, rng, 3, 3)
        result.append({
            relation: [tuple(base + v for v in row) for row in rows]
            for relation, rows in data.items()
        })
    return result


def merged(base: dict, batches: list[dict]) -> dict:
    data = {relation: list(rows) for relation, rows in base.items()}
    for batch in batches:
        for relation, rows in batch.items():
            data.setdefault(relation, []).extend(rows)
    return data


def distributed_ops(workload: str, pattern, seed: int, smoke: bool, cycles: int) -> list:
    """Ops for the in-process distributed workloads.  ``op.data`` is the
    full input (base plus every delta) — what the oracle evaluates."""
    ops = []
    for cycle in range(1 if smoke else cycles):
        for slot, (kind, facts, nodes, flavour, streamed) in enumerate(pattern):
            index = cycle * len(pattern) + slot
            rng = gen.rng_for(workload, seed, index)
            base = gen.small_data(kind, rng, facts // 2 if smoke else facts)
            params = {"nodes": nodes, "flavour": flavour, "seed": index,
                      "base": gen.render_facts(base)}
            data = base
            if streamed:
                batches = delta_batches(kind, rng)
                params["stream"] = [gen.render_facts(batch) for batch in batches]
                data = merged(base, batches)
            tag = "stream" if streamed else "run"
            ops.append(gen.Op(
                f"{index:03d}-{kind}-{facts}f-{nodes}n-{flavour}-{tag}", kind, data, params
            ))
    return ops


def parse_inputs(ops) -> dict:
    """Op id -> (Program, base Instance, DeltaFeed or None, node names)."""
    from repro.datalog import Instance, parse_facts, parse_program
    from repro.streaming import DeltaFeed

    parsed = {}
    for op in ops:
        feed = None
        if "stream" in op.params:
            feed = DeltaFeed.from_texts(op.params["stream"])
        parsed[op.id] = (
            parse_program(op.program),
            Instance(parse_facts(op.params["base"])),
            feed,
            tuple(f"n{i + 1}" for i in range(op.params["nodes"])),
        )
    return parsed


class SimProtocols(Workload):
    name = "sim_protocols"
    why = (
        "transducer runtime, protocols, policy, fault channel and step cache "
        "do the work (storm = cache hits, chaos = misses); kernel little, "
        "sockets and sqlite none"
    )
    warmup = 10

    def ops(self, seed: int, smoke: bool) -> list:
        return distributed_ops(self.name, PATTERN, seed, smoke, CYCLES)

    def prepare(self, ops, scratch) -> None:
        self._parsed = parse_inputs(ops)

    def _channel_and_scheduler(self, op):
        from repro.transducers import CHAOS_PLAN, FaultyChannel, make_scheduler

        seed = op.params["seed"]
        channel = (
            FaultyChannel(CHAOS_PLAN, seed) if op.params["flavour"] == "chaos" else None
        )
        return channel, make_scheduler(op.params["flavour"], seed)

    def run(self, op):
        from repro.core.analyzer import network_for_plan, plan_distribution

        program, instance, feed, nodes = self._parsed[op.id]
        channel, scheduler = self._channel_and_scheduler(op)
        run = network_for_plan(plan_distribution(program), nodes).new_run(
            instance, channel=channel
        )
        if feed is not None:
            return run.stream_to_quiescence(feed, scheduler=scheduler)
        return run.run_to_quiescence(scheduler=scheduler)

    def traced(self, op, rec: Recorder):
        from repro.core.analyzer import network_for_plan, plan_distribution

        from .proxies import RoundMarker, time_query

        program, instance, feed, nodes = self._parsed[op.id]
        channel, scheduler = self._channel_and_scheduler(op)
        with rec.span("sim") as root:
            with rec.span("core.analyzer.plan"):
                plan = plan_distribution(program)
            time_query(plan, rec)
            with rec.span("transducers.policy.distribute"):
                run = network_for_plan(plan, nodes).new_run(instance, channel=channel)
            marker = RoundMarker(scheduler, rec)
            with rec.span("transducers.runtime.run"):
                run.run_to_quiescence(scheduler=marker)
                marker.close()
            if feed is not None:
                # stream_to_quiescence, unrolled into its public calls.
                run.epoch_outputs = [run.global_output()]
                for batch in feed.batches:
                    with rec.span("streaming.feed.epoch") as span:
                        span["delta_facts"] = run.ingest(batch.facts)
                        run.run_to_quiescence(scheduler=marker)
                        marker.close()
                        run.epoch_outputs.append(run.global_output())
            result = run.global_output()
            metrics = run.metrics
            root.update(
                transitions=metrics.transitions,
                rounds=metrics.rounds,
                message_facts_sent=metrics.message_facts_sent,
                cache_hits=metrics.cache_hits,
                cache_misses=metrics.cache_misses,
                faults=sum(run.channel.fault_counters().values()),
            )
        return result

    def layers(self, rec: Recorder, ops_run: int) -> dict:
        return runtime_layers(rec.spans, "sim", ops_run) | {
            "streaming.feed.epoch_ms": median_ms(
                rec.spans, "streaming.feed.epoch", per_span=True
            ),
            "streaming.feed.epochs": mean_attr(
                rec.spans, "streaming.feed.epoch", None, ops_run
            ),
            "streaming.feed.delta_facts": mean_attr(
                rec.spans, "streaming.feed.epoch", "delta_facts", ops_run
            ),
        }


def runtime_layers(spans, root: str, ops_run: int) -> dict:
    """The ledger rows shared by every workload that runs transducers
    in-process: planning, distribution, rounds, the query inside the
    transitions, and the run's own counters (attached to the root span)."""
    hits = sum(s.get("cache_hits", 0) for s in spans if s["name"] == root)
    misses = sum(s.get("cache_misses", 0) for s in spans if s["name"] == root)
    return {
        "core.analyzer.plan_ms": median_ms(spans, "core.analyzer.plan"),
        "transducers.policy.distribute_ms": median_ms(
            spans, "transducers.policy.distribute"
        ),
        "transducers.runtime.round_ms": median_ms(
            spans, "transducers.runtime.round", per_span=True
        ),
        "transducers.runtime.transitions": mean_attr(spans, root, "transitions", ops_run),
        "transducers.runtime.rounds": mean_attr(spans, root, "rounds", ops_run),
        "transducers.runtime.message_facts_sent": mean_attr(
            spans, root, "message_facts_sent", ops_run
        ),
        "transducers.runtime.cache_hits": hits / ops_run if ops_run else 0.0,
        "transducers.runtime.cache_misses": misses / ops_run if ops_run else 0.0,
        "transducers.runtime.cache_hit_ratio": (
            hits / (hits + misses) if hits + misses else 0.0
        ),
        "transducers.faults.injected": mean_attr(spans, root, "faults", ops_run),
        # Interning and decoding cannot be told apart from outside a
        # transition: the whole query evaluation is booked as fixpoint time.
        "kernel.engine.fixpoint_ms": median_ms(spans, "kernel.engine.run"),
        "datalog.wellfounded.wfs_ms": median_ms(spans, "datalog.wellfounded.wfs"),
    }


WORKLOAD = SimProtocols
