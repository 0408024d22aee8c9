"""eval_central: centralized evaluation, program text + fact text -> output.

Only ``datalog`` and ``kernel`` do work here; ``transducers``, ``cluster``
and ``service`` do none, so a join-engine or kernel change shows in full and
a runtime refactor must leave the numbers flat.
"""

from __future__ import annotations

import statistics

from . import gen
from .harness import Workload
from .spans import Recorder, mean_attr, median_ms, per_op_totals

#: One cycle of the op list, (kind, nodes, edges), listed from light to heavy
#: (the op list interleaves them).  Six light ops (< 25 ms), six middling
#: (35-60 ms), two win-move games (60-165 ms, the alternating fixpoint's
#: cost swings with the game's depth) and two heavy ones (TC with a ~56k-row
#: result, ~220 ms).  The median falls inside the middle class and the 95th
#: percentile inside the heavy one, so neither sits on a boundary between
#: two kinds of op, where it would flip between them from run to run.
LIGHT = (
    ("tri", 60, 180), ("sp", 200, 1000), ("tc", 70, 210),
    ("tri", 100, 300), ("sp", 200, 1000), ("cotc", 60, 180),
)
MIDDLE = (
    ("tc", 110, 330), ("cotc", 80, 240), ("tc", 130, 390),
    ("tc", 110, 330), ("tc", 120, 360), ("sp", 800, 4000),
)
GAMES = (("wm", 300, 750), ("wm", 300, 750))
HEAVY = (("tc", 250, 750), ("tc", 250, 750))
PATTERN = tuple(
    op
    for group in zip(HEAVY, LIGHT[:2], MIDDLE[:2], LIGHT[2:4], GAMES, MIDDLE[2:4],
                     LIGHT[4:], MIDDLE[4:])
    for op in group
)
CYCLES = 3
SMOKE_SCALE = 4  # smoke inputs are this many times smaller


class EvalCentral(Workload):
    name = "eval_central"
    why = (
        "datalog+kernel do all the work, runtimes none: an engine or kernel "
        "change shows in full, a runtime refactor must leave it flat"
    )
    warmup = 8

    def ops(self, seed: int, smoke: bool) -> list:
        scale = SMOKE_SCALE if smoke else 1
        ops = []
        for cycle in range(1 if smoke else CYCLES):
            for slot, (kind, nodes, edges) in enumerate(PATTERN):
                index = cycle * len(PATTERN) + slot
                rng = gen.rng_for(self.name, seed, index)
                data = gen.graph_data(kind, rng, nodes // scale, edges // scale)
                ops.append(gen.Op(f"{index:03d}-{kind}-{nodes}x{edges}", kind, data))
        return ops

    def prepare(self, ops, scratch) -> None:
        # The op is "text in, output out": keep the rendered text ready so
        # rendering is not charged to the program.
        self._text = {op.id: (op.program, op.facts) for op in ops}

    def run(self, op):
        from repro.core.analyzer import query_for
        from repro.datalog import Instance, parse_facts, parse_program

        program, facts = self._text[op.id]
        return query_for(parse_program(program))(Instance(parse_facts(facts)))

    def traced(self, op, rec: Recorder):
        from repro.datalog import Instance, parse_facts, parse_program
        from repro.datalog.stratification import NotStratifiableError, stratify
        from repro.datalog.wellfounded import evaluate_well_founded
        from repro.kernel import (
            KernelEvaluator,
            SymbolTable,
            decode_database,
            intern_instance,
        )

        program_text, facts_text = self._text[op.id]
        replays = []
        with rec.span("eval"):
            with rec.span("datalog.parser.parse") as span:
                program = parse_program(program_text)
                instance = Instance(parse_facts(facts_text))
                span["facts"] = len(instance)
            with rec.span("datalog.instance.restrict"):
                current = instance.restrict(program.edb())
            with rec.span("datalog.stratification.stratify"):
                try:
                    strata = stratify(program).strata
                except NotStratifiableError:
                    strata = None
            if strata is None:
                with rec.span("datalog.wellfounded.wfs"):
                    current = evaluate_well_founded(program, current).true
            else:
                for stage in strata:
                    with rec.span("kernel.codegen.compile") as span:
                        evaluator = KernelEvaluator(stage, check_semipositive=False)
                        span["rules"] = evaluator.compiled
                    before = len(current)
                    with rec.span("kernel.engine.run") as span:
                        derived = evaluator.run(current)
                        span["rows"] = len(derived) - before
                    replays.append((current, derived))
                    current = derived
            # The entry point projects twice: the evaluator's output() and
            # then Query.__call__ both restrict to the output schema.
            with rec.span("datalog.instance.restrict"):
                result = current.restrict(program.output_schema())
                result = result.restrict(program.output_schema())
        # Interning and decoding happen inside KernelEvaluator.run; their
        # share is measured by replaying the same rows through the public
        # functions, outside the op's own span tree.
        with rec.span("replay"):
            for source, derived in replays:
                table = SymbolTable()
                with rec.span("kernel.interning.intern") as span:
                    intern_instance(source, table)
                    span["symbols"] = len(table)
                rows = intern_instance(derived, table)
                with rec.span("kernel.interning.decode"):
                    decode_database(rows, table)
        return result

    def layers(self, rec: Recorder, ops_run: int) -> dict:
        spans = rec.spans
        runs = per_op_totals(spans, "kernel.engine.run")
        interns = per_op_totals(spans, "kernel.interning.intern")
        decodes = per_op_totals(spans, "kernel.interning.decode")
        # fixpoint = the run minus the replayed interning and decoding.
        fixpoints = [
            max(runs[op] - interns.get(op, 0.0) - decodes.get(op, 0.0), 0.0)
            for op in runs
        ]
        rows = sum(s.get("rows", 0) for s in spans if s["name"] == "kernel.engine.run")
        return {
            "datalog.parser.parse_ms": median_ms(spans, "datalog.parser.parse"),
            "datalog.parser.facts_parsed": mean_attr(
                spans, "datalog.parser.parse", "facts", ops_run
            ),
            "datalog.instance.restrict_ms": median_ms(spans, "datalog.instance.restrict"),
            "datalog.stratification.stratify_ms": median_ms(
                spans, "datalog.stratification.stratify"
            ),
            "datalog.wellfounded.wfs_ms": median_ms(spans, "datalog.wellfounded.wfs"),
            "kernel.codegen.compile_ms": median_ms(spans, "kernel.codegen.compile"),
            "kernel.codegen.rules_compiled": mean_attr(
                spans, "kernel.codegen.compile", "rules", ops_run
            ),
            "kernel.interning.intern_ms": median_ms(spans, "kernel.interning.intern"),
            "kernel.interning.symbols": mean_attr(
                spans, "kernel.interning.intern", "symbols", ops_run
            ),
            "kernel.engine.fixpoint_ms": (
                statistics.median(fixpoints) * 1000.0 if fixpoints else 0.0
            ),
            "kernel.engine.rows_derived": rows / ops_run if ops_run else 0.0,
            "kernel.engine.rows_per_s": rows / sum(fixpoints) if sum(fixpoints) else 0.0,
            "kernel.interning.decode_ms": median_ms(spans, "kernel.interning.decode"),
        }


WORKLOAD = EvalCentral
