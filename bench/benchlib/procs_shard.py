"""procs_shard: one OS process per node, sharded win-move, real SIGKILLs.

The only workload that pays process spawn, the control-plane handshake, a
cross-process TCP data plane and real-kill recovery.  Two workers = the two
cores of the box, so the number is the program's, not the OS scheduler's.
"""

from __future__ import annotations

import shutil
import statistics
from pathlib import Path

from . import gen, procstat
from .harness import Workload
from .spans import Recorder, duration, mean_attr, median_ms

COMPONENTS = 10
SIZE = 50
WORKERS = 2
KILL_EVERY = 4          # every fourth op loses worker n2 to a SIGKILL
DISTINCT = 8
BLOCK = 1_000_000       # repro.cluster.SCALING_BLOCK: component c owns [c*BLOCK, (c+1)*BLOCK)


def sharded_games(rng, components: int, size: int) -> dict:
    """``components`` disjoint win-move games, one per value block: game 0
    is a chain of *size* positions (its depth sets the number of alternating
    fixpoint rounds), the others are random games of out-degree three."""
    moves = [(position, position + 1) for position in range(size - 1)]
    for component in range(1, components):
        base = component * BLOCK
        moves.extend(
            (base + a, base + b) for a, b in gen.random_edges(rng, size, 3 * size)
        )
    return {"Move": sorted(moves)}


class ProcsShard(Workload):
    name = "procs_shard"
    why = (
        "only workload paying process spawn, control-plane handshake, "
        "cross-process TCP and real-SIGKILL recovery; 2 workers = nproc"
    )
    warmup = 2

    def ops(self, seed: int, smoke: bool) -> list:
        components, size = (3, 10) if smoke else (COMPONENTS, SIZE)
        ops = []
        for index in range(2 if smoke else DISTINCT):
            rng = gen.rng_for(self.name, seed, index)
            kill = index % KILL_EVERY == KILL_EVERY - 1
            params = {"components": components, "size": size, "kill": kill, "seed": index}
            ops.append(gen.Op(
                f"{index:03d}-wm-c{components}-s{size}-{'kill' if kill else 'clean'}",
                "wm", sharded_games(rng, components, size), params,
            ))
        return ops

    def prepare(self, ops, scratch) -> None:
        from repro.datalog import Instance, parse_facts

        self._instances = {op.id: Instance(parse_facts(op.facts)) for op in ops}
        self._dir = Path(scratch) / "procs"
        self._counter = 0

    def _cluster(self, op, instance=None):
        from repro.cluster import ProcessCluster

        self._counter += 1
        directory = self._dir / f"op{self._counter}"
        params = op.params
        kill = {"kill_node": "n2", "kill_after": 1} if params["kill"] else {}
        cluster = ProcessCluster(
            {"kind": "scaling",
             "key": f"scaling-wm-c{params['components']}-s{params['size']}"},
            self._instances[op.id] if instance is None else instance,
            processes=WORKERS,
            seed=params["seed"],
            run_dir=directory,
            **kill,
        )
        return cluster, directory

    def run(self, op):
        cluster, directory = self._cluster(op)
        try:
            return cluster.run_to_quiescence()
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    def trace_start(self, ops, rec: Recorder) -> None:
        """The boot floor: the same call on a one-fact instance (spawn +
        handshake + one ring probe), three times, outside any op."""
        from repro.datalog import Instance, parse_facts

        one_fact = Instance(parse_facts("Move(0,1)."))
        for _ in range(3):
            cluster, directory = self._cluster(ops[0], one_fact)
            try:
                with rec.span("replay"), rec.span("cluster.procs.boot_floor"):
                    cluster.run_to_quiescence()
            finally:
                shutil.rmtree(directory, ignore_errors=True)

    def traced(self, op, rec: Recorder):
        with rec.span("procs") as root:
            # The constructor rebuilds the network and shards the instance.
            with rec.span("transducers.policy.distribute"):
                cluster, directory = self._cluster(op)
            try:
                cpu_before = procstat.children_cpu_seconds()
                with rec.span("cluster.procs.run"):
                    result = cluster.run_to_quiescence()
            finally:
                shutil.rmtree(directory, ignore_errors=True)
            root.update(
                kill=op.params["kill"],
                worker_cpu_s=procstat.children_cpu_seconds() - cpu_before,
                transitions=cluster.metrics.transitions,
                token_probes=cluster.token_probes,
                restarts=cluster.recoveries,
                wal_replayed=cluster.wal_replayed,
            )
        return result

    def layers(self, rec: Recorder, ops_run: int) -> dict:
        spans = rec.spans
        roots = [s for s in spans if s["name"] == "procs"]

        def mean(key):
            return mean_attr(spans, "procs", key, ops_run)

        def median_of(kill: bool) -> float:
            values = [duration(s) for s in roots if s["kill"] == kill]
            return statistics.median(values) * 1000.0 if values else 0.0

        clean, killed = median_of(False), median_of(True)
        return {
            "transducers.policy.distribute_ms": median_ms(
                spans, "transducers.policy.distribute"
            ),
            "cluster.procs.boot_floor_ms": median_ms(
                spans, "cluster.procs.boot_floor", per_span=True
            ),
            "cluster.procs.worker_cpu_s": mean("worker_cpu_s"),
            "cluster.procs.transitions": mean("transitions"),
            "cluster.procs.token_probes": mean("token_probes"),
            "cluster.procs.restarts": mean("restarts"),
            "cluster.procs.wal_replayed": mean("wal_replayed"),
            "cluster.procs.recovery_ms": killed - clean if killed and clean else 0.0,
        }


WORKLOAD = ProcsShard
