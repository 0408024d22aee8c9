"""The paper's artifacts, regenerated: one case per figure / theorem / lemma.

Each case calls the ``repro.core.experiments`` driver that rebuilds the
artifact — separations by explicit witness pairs, memberships by
counterexample search, transducer claims by sampled networks × policies ×
schedules (what each driver checks is in its docstring and in
EXPERIMENTS.md) — and asserts that every claim row verifies; the benchmark
figure is the wall clock of the regeneration.  ``tests/core/
test_experiments.py`` asserts on the same drivers; the three cases below
the table have no counterpart there.
"""

import time

import pytest
from conftest import assert_rows_ok, run_once

from repro import core
from repro.datalog import (
    Instance,
    evaluate_well_founded,
    parse_facts,
    winmove_program,
)
from repro.datalog.stratified import evaluate as evaluate_program
from repro.ilog import (
    DivergenceError,
    diverging_counter,
    evaluate_ilog,
    is_weakly_safe,
    tc_with_witnesses,
    unsafe_leak,
)
from repro.monotonicity import theorem31_witnesses
from repro.queries import multi_component_instance, random_game_graph, zoo_program

#: case id -> (headline, driver, driver keyword arguments)
ARTIFACTS = {
    "FIG1": ("monotonicity hierarchy (Theorem 3.1)", core.figure1_experiment, {"max_i": 2}),
    "FIG2": ("main-results diagram (fragments and guarantees)", core.figure2_experiment, {}),
    "THM4.3": ("F1 = Mdistinct", core.theorem43_experiment, {}),
    "THM4.4": ("F2 = Mdisjoint", core.theorem44_experiment, {}),
    "THM4.5": ("no-All variants (A1 = Mdistinct, A2 = Mdisjoint)", core.theorem45_experiment, {}),
    "L5.2": ("distribution over components", core.lemma52_experiment, {"seeds": range(6)}),
    "THM5.3": ("semicon-Datalog¬ ⊆ Mdisjoint", core.theorem53_experiment, {}),
    "THM5.4": ("(semi-connected) wILOG¬ and Mdisjoint", core.theorem54_experiment, {}),
    "WM": ("win-move ∈ Mdisjoint, coordination-free under domain guidance", core.winmove_experiment, {}),
    "F-HIER": ("F0 ⊊ F1 ⊊ F2 ⊊ C", core.hierarchy_f_experiment, {}),
}


@pytest.mark.parametrize("case", ARTIFACTS)
def test_paper_artifact(benchmark, case):
    headline, driver, kwargs = ARTIFACTS[case]
    rows = run_once(benchmark, driver, **kwargs)
    print(f"\n{case} — {headline}:")
    print(core.render_rows(rows))
    assert_rows_ok(rows)


def test_thm31_witnesses(benchmark):
    """THM3.1 — each packaged witness (coTC, Q^k_clique, Q^k_star,
    Q^j_duplicate, triangles-unless-two-disjoint) refutes exactly the class
    the proof says it refutes, up to index 3."""
    witnesses = run_once(benchmark, theorem31_witnesses, max_i=3)
    print("\nTHM3.1 — separating witnesses:")
    for witness in witnesses:
        print(f"  {witness.describe()}")
    assert all(w.verify() for w in witnesses)
    assert len(witnesses) >= 17


def test_thm54_safety_boundary(benchmark):
    """Weak safety separates programs whose outputs stay invention-free."""

    def boundary():
        assert is_weakly_safe(tc_with_witnesses())
        assert not is_weakly_safe(unsafe_leak())
        with pytest.raises(DivergenceError):
            evaluate_ilog(
                diverging_counter(), Instance(parse_facts("Start(1).")), max_depth=5
            )
        return True

    assert run_once(benchmark, boundary)
    print("\nTHM5.4 — weak-safety + divergence boundary checks passed")


def test_lemma52_componentwise_speedup(benchmark):
    """Componentwise evaluation of a connected program should not be slower
    than whole-instance evaluation (it prunes the cross-component joins)."""
    program = zoo_program("example51-p1")
    instance = multi_component_instance([6, 6, 6, 6], seed=9)

    def componentwise():
        result = Instance()
        for component in instance.components():
            result = result | evaluate_program(program, component)
        return result

    start = time.perf_counter()
    whole = evaluate_program(program, instance)
    whole_seconds = time.perf_counter() - start

    result = benchmark(componentwise)
    assert result == whole
    print(
        f"\nL5.2 sweep — whole-instance evaluation took {whole_seconds * 1e3:.1f} ms "
        f"on 4x6-node components (componentwise time is the benchmark figure)"
    )


def test_winmove_solver_scaling(benchmark):
    """Raw well-founded solver cost on a 40-position random game — the
    substrate cost underlying every distributed win-move experiment."""
    game = random_game_graph(40, 90, seed=21)
    program = winmove_program()

    model = benchmark(lambda: evaluate_well_founded(program, game))
    won = {f.values[0] for f in model.true if f.relation == "Win"}
    positions = set(game.adom())
    assert won <= positions
    print(f"\nWM scaling — {len(positions)} positions, {len(won)} won")
