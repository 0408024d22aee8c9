"""ABL — engine design-choice ablations called out in DESIGN.md.

(a) Semi-naive vs naive fixpoint evaluation: the delta-driven evaluator
    should beat re-deriving everything per round on recursive workloads.
(b) Doubled-program vs direct alternating fixpoint for the well-founded
    semantics: equivalent results, comparable cost — the doubled program is
    a *structural* device (it preserves connectivity), not an optimization.
"""

from conftest import run_once

from repro.datalog import (
    Instance,
    evaluate_doubled,
    evaluate_well_founded,
    naive_fixpoint,
    parse_program,
    winmove_program,
)
from repro.datalog.evaluation import SemiNaiveEvaluator
from repro.queries import random_game_graph, random_graph

TC = parse_program(
    "T(x, y) :- E(x, y). T(x, z) :- T(x, y), E(y, z).", output_relations=["T"]
)


def test_ablation_semi_naive(benchmark):
    instance = random_graph(30, 60, seed=5)
    import time

    start = time.perf_counter()
    naive = naive_fixpoint(TC, instance)
    naive_seconds = time.perf_counter() - start

    evaluator = SemiNaiveEvaluator(TC)
    result = benchmark(lambda: evaluator.run(instance))
    assert result == naive
    print(
        f"\nABL(a) — naive fixpoint: {naive_seconds * 1e3:.1f} ms on a "
        f"30-node/60-edge graph (semi-naive time is the benchmark figure; "
        f"expect a clear win for semi-naive)"
    )


def test_ablation_doubled_program(benchmark):
    program = winmove_program()
    game = random_game_graph(25, 50, seed=8)

    def both():
        direct = evaluate_well_founded(program, game)
        doubled = evaluate_doubled(program, game)
        assert direct.true == doubled.true
        assert direct.undefined == doubled.undefined
        return direct

    model = run_once(benchmark, both)
    print(
        f"\nABL(b) — doubled program ≡ alternating fixpoint on a 25-position "
        f"game ({len(model.true)} true facts, {len(model.undefined)} undefined)"
    )
