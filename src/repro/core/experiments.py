"""The paper's claims, each stated once: one driver per artifact (figure,
theorem, lemma) regenerates its claims executably and returns one
:class:`ExperimentRow` per claim.

:data:`PAPER_DRIVERS` is the ``paper`` gate (``repro gate paper``): its
records are these rows, the committed ``BENCH_paper.json`` is a full run,
and EXPERIMENTS.md is rendered from that artifact by
:func:`repro.core.report.render_experiments`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from ..datalog.connectivity import analyze_connectivity
from ..datalog.instance import Instance
from ..datalog.parser import parse_facts
from ..datalog.stratified import evaluate as evaluate_program
from ..monotonicity.checker import random_pairs
from ..monotonicity.classes import AdditionKind
from ..monotonicity.hierarchy import ClaimResult, membership_verdict, verify_theorem31
from ..queries.base import DatalogQuery, Query
from ..queries.generators import multi_component_instance, random_graph
from ..queries.graph import complement_tc_query, transitive_closure_query, win_move_query
from ..queries.zoo import PROGRAM_ZOO
from ..transducers.coordination import coordination_free_report
from ..transducers.policy import Network, domain_guided_policy, hash_domain_assignment, hash_policy
from ..transducers.protocols import (
    broadcast_transducer,
    disjoint_protocol_transducer,
    distinct_protocol_transducer,
)
from ..runtimes import execute
from ..transducers.runtime import RunMetrics, TransducerNetwork
from ..transducers.schema import POLICY_AWARE_NO_ALL
from .analyzer import analyze
from .calm import refute_by_relocation

__all__ = [
    "ExperimentRow",
    "PAPER_DRIVERS",
    "figure1_experiment",
    "theorem31_experiment",
    "lemma32_experiment",
    "figure2_experiment",
    "theorem43_experiment",
    "theorem44_experiment",
    "theorem45_experiment",
    "hierarchy_f_experiment",
    "lemma52_experiment",
    "theorem53_experiment",
    "theorem54_experiment",
    "winmove_experiment",
    "protocol_cost_experiment",
    "coordination_experiment",
    "confluence_experiment",
    "chaos_experiment",
]


@dataclass(frozen=True)
class ExperimentRow:
    """One paper claim and the evidence that regenerated it.  ``sweep``
    holds the measured runs a cost-profile claim is judged on."""

    experiment: str
    claim: str
    ok: bool
    evidence: str = ""
    sweep: tuple[dict, ...] = ()

    @property
    def verdict(self) -> str:
        return "verified" if self.ok else "FAILED"

    def record(self) -> dict:
        """The row as a ``paper`` gate record."""
        record = {
            "experiment": self.experiment,
            "claim": self.claim,
            "verdict": self.verdict,
            "evidence": self.evidence,
            "passed": self.ok,
        }
        if self.sweep:
            record["sweep"] = list(self.sweep)
        return record


# ----------------------------------------------------------------------
# Figure 1 / Theorem 3.1 / Lemma 3.2
# ----------------------------------------------------------------------


def figure1_experiment(*, max_i: int = 2, seed: int = 11) -> list[ExperimentRow]:
    """Regenerate the Figure 1 hierarchy via the Theorem 3.1 claims."""
    results: list[ClaimResult] = verify_theorem31(max_i=max_i, seed=seed)
    return [
        ExperimentRow("FIG1", f"{r.claim_id}: {r.statement}", r.verified, r.evidence)
        for r in results
    ]


def theorem31_experiment() -> list[ExperimentRow]:
    """Each packaged Theorem 3.1 witness (coTC, Q^k_clique, Q^k_star,
    Q^j_duplicate, triangles-unless-two-disjoint) refutes exactly the class
    its proof says it refutes, at every index up to 3."""
    from ..monotonicity.witnesses import theorem31_witnesses

    witnesses = theorem31_witnesses(max_i=3)
    return [
        ExperimentRow("THM3.1", w.name, w.verify(), w.describe())
        for w in witnesses
    ] + [
        ExperimentRow(
            "THM3.1",
            "the witness family up to index 3 has ≥ 17 members",
            len(witnesses) >= 17,
            f"{len(witnesses)} witnesses",
        )
    ]


def lemma32_experiment() -> list[ExperimentRow]:
    """H ⊊ Hinj = M ⊊ E = Mdistinct: the E- and the Mdistinct-condition
    agree pair by pair on an exhaustive family (J is an induced subinstance
    of I ∪ J iff J is domain distinct from I), plus spot checks of
    Hinj = M, H ⊊ Hinj and Datalog ⊆ H."""
    from ..monotonicity.checker import exhaustive_graph_pairs
    from ..monotonicity.classes import violation_on
    from ..monotonicity.preservation import (
        preserved_under_extensions_on,
        preserved_under_homomorphism_on,
        preserved_under_injective_homomorphism_on,
    )
    from ..monotonicity.witnesses import witness_cotc_not_distinct
    from ..queries.zoo import zoo_program

    tc, cotc = transitive_closure_query(), complement_tc_query()
    pairs = list(
        exhaustive_graph_pairs(
            max_base_nodes=2,
            max_base_edges=3,
            kind=AdditionKind.DOMAIN_DISTINCT,
            max_addition_size=1,
        )
    )
    agree = [
        (violation_on(query, base, addition) is None)
        == preserved_under_extensions_on(query, base | addition, base)
        for query in (tc, cotc)
        for base, addition in pairs
    ]
    rows = [
        ExperimentRow(
            "L3.2",
            "E = Mdistinct: the two conditions agree pair by pair, over > 100 checks",
            all(agree) and len(agree) > 100,
            f"TC and coTC on {len(pairs)} exhaustive pairs: {len(agree)} checks, "
            f"{agree.count(False)} disagreements",
        )
    ]

    witness = witness_cotc_not_distinct()
    in_hinj, _ = preserved_under_injective_homomorphism_on(
        cotc, witness.base, witness.base | witness.addition
    )
    rows.append(
        ExperimentRow(
            "L3.2",
            "Hinj = M: the coTC witness violates monotonicity and the Hinj condition",
            violation_on(cotc, witness.base, witness.addition) is not None
            and not in_hinj,
            witness.describe(),
        )
    )

    neq = DatalogQuery(zoo_program("neq-pairs"), "neq-pairs")
    source = Instance(parse_facts("E(1,2)."))
    in_h, collapse = preserved_under_homomorphism_on(
        neq, source, Instance(parse_facts("E(3,3)."))
    )
    in_hinj, _ = preserved_under_injective_homomorphism_on(
        neq, source, source | Instance(parse_facts("E(4,5)."))
    )
    rows.append(
        ExperimentRow(
            "L3.2",
            "H ⊊ Hinj: neq-pairs ∈ Hinj on an extension, ∉ H by a collapse",
            in_hinj and not in_h,
            f"the homomorphism {collapse} onto E(3, 3) kills O(1, 2)",
        )
    )
    tc_in_h, _ = preserved_under_homomorphism_on(
        tc, source, Instance(parse_facts("E(7,7)."))
    )
    rows.append(
        ExperimentRow(
            "L3.2",
            "Datalog ⊆ H: TC survives the collapse onto a self-loop",
            tc_in_h,
            "E(1, 2) → E(7, 7) preserves TC's output",
        )
    )
    return rows


# ----------------------------------------------------------------------
# Figure 2: fragment classification and class placement of the zoo
# ----------------------------------------------------------------------


def figure2_experiment(*, seed: int = 5) -> list[ExperimentRow]:
    """Check each zoo program lands in its expected fragment and that the
    fragment's guaranteed monotonicity class is empirically respected."""
    from .analyzer import query_for

    rows: list[ExperimentRow] = []
    kind_of = {
        "M": AdditionKind.ANY,
        "Mdistinct": AdditionKind.DOMAIN_DISTINCT,
        "Mdisjoint": AdditionKind.DOMAIN_DISJOINT,
    }
    for entry in PROGRAM_ZOO:
        program = entry.program()
        analysis = analyze(program)
        rows.append(
            ExperimentRow(
                "FIG2",
                f"{entry.name} ∈ fragment {entry.fragment}",
                analysis.fragment == entry.fragment,
                f"analyzer says {analysis.fragment}",
            )
        )
        if entry.monotonicity in kind_of:
            query = query_for(program)
            kind = kind_of[entry.monotonicity]
            pairs = list(
                random_pairs(query.input_schema, kind, count=200, seed=seed)
            )
            verdict = membership_verdict(query, kind, pairs=pairs, seed=seed)
            rows.append(
                ExperimentRow(
                    "FIG2",
                    f"{entry.name} respects {entry.monotonicity}",
                    verdict.holds,
                    verdict.describe(),
                )
            )
    return rows


# ----------------------------------------------------------------------
# Theorems 4.3 / 4.4 / 4.5
# ----------------------------------------------------------------------


def _membership_half(
    experiment: str,
    query: Query,
    transducer_factory: Callable,
    instance: Instance,
    *,
    domain_guided: bool,
    variant=None,
) -> ExperimentRow:
    transducer = (
        transducer_factory(query)
        if variant is None
        else transducer_factory(query, variant=variant)
    )
    report = coordination_free_report(
        transducer, query, instance, domain_guided=domain_guided, seeds=(0,)
    )
    return ExperimentRow(
        experiment,
        f"{query.name} coordination-free via {transducer.name}",
        report.coordination_free,
        report.describe(),
    )


def theorem43_experiment() -> list[ExperimentRow]:
    """F1 = Mdistinct, both directions on concrete queries.

    Membership uses an SP-Datalog query (SP-Datalog ⊆ Mdistinct, Figure 2);
    the refutation uses coTC ∈ Mdisjoint \\ Mdistinct via the relocation
    construction of the proof.
    """
    from ..monotonicity.witnesses import witness_cotc_not_distinct
    from ..queries.zoo import zoo_program

    sp_query = DatalogQuery(zoo_program("sp-missing-targets"), "sp-missing-targets")
    sp_instance = Instance(parse_facts("E(1,2). E(2,3). E(3,1). Mark(2)."))
    # coTC ∉ Mdistinct, so the distinct protocol must be refutable on it
    # by the relocation construction of the F1 ⊆ Mdistinct proof:
    witness = witness_cotc_not_distinct()
    refutation = refute_by_relocation(
        distinct_protocol_transducer, witness.query, witness.base, witness.addition
    )
    return [
        _membership_half(
            "THM4.3",
            sp_query,
            distinct_protocol_transducer,
            sp_instance,
            domain_guided=False,
        ),
        ExperimentRow(
            "THM4.3",
            "coTC ∉ Mdistinct ⇒ distinct protocol not consistent (relocation)",
            refutation.refuted,
            refutation.describe(),
        ),
    ]


def theorem44_experiment() -> list[ExperimentRow]:
    """F2 = Mdisjoint: membership for coTC and win-move; refutation beyond."""
    from ..monotonicity.witnesses import witness_triangles_not_disjoint

    instance = Instance(parse_facts("E(1,2). E(2,1). E(3,4)."))
    game = Instance(parse_facts("Move(1,2). Move(2,1). Move(2,3). Move(4,5)."))
    witness = witness_triangles_not_disjoint()
    refutation = refute_by_relocation(
        disjoint_protocol_transducer,
        witness.query,
        witness.base,
        witness.addition,
        domain_guided=True,
    )
    return [
        _membership_half(
            "THM4.4",
            complement_tc_query(),
            disjoint_protocol_transducer,
            instance,
            domain_guided=True,
        ),
        _membership_half(
            "THM4.4",
            win_move_query(),
            disjoint_protocol_transducer,
            game,
            domain_guided=True,
        ),
        ExperimentRow(
            "THM4.4",
            "triangles-query ∉ Mdisjoint ⇒ disjoint protocol refutable",
            refutation.refuted,
            refutation.describe(),
        ),
    ]


def theorem45_experiment() -> list[ExperimentRow]:
    """A1 = Mdistinct and A2 = Mdisjoint: the protocols run unmodified in
    the no-All variant."""
    from ..queries.zoo import zoo_program
    from ..transducers.schema import OBLIVIOUS

    instance = Instance(parse_facts("E(1,2). E(2,1). E(3,4)."))
    sp_query = DatalogQuery(zoo_program("sp-missing-targets"), "sp-missing-targets")
    sp_instance = Instance(parse_facts("E(1,2). E(2,3). E(3,1). Mark(2)."))
    tc = transitive_closure_query()
    return [
        _membership_half(
            "THM4.5",
            sp_query,
            distinct_protocol_transducer,
            sp_instance,
            domain_guided=False,
            variant=POLICY_AWARE_NO_ALL,
        ),
        _membership_half(
            "THM4.5",
            complement_tc_query(),
            disjoint_protocol_transducer,
            instance,
            domain_guided=True,
            variant=POLICY_AWARE_NO_ALL,
        ),
        _membership_half(
            "COR4.6",
            tc,
            broadcast_transducer,
            instance,
            domain_guided=False,
            variant=POLICY_AWARE_NO_ALL,
        ),
        # Corollary 4.6 proper: oblivious transducers (no Id, no All) still
        # capture M — the broadcast protocol reads neither relation.
        _membership_half(
            "COR4.6",
            tc,
            broadcast_transducer,
            instance,
            domain_guided=False,
            variant=OBLIVIOUS,
        ),
    ]


def hierarchy_f_experiment() -> list[ExperimentRow]:
    """F0 ⊊ F1 ⊊ F2: the strict hierarchy of coordination-free classes
    ([32], completed by this paper's characterizations).

    Strictness is certified through the monotonicity characterizations:
    membership at a level via the level's protocol, exclusion from the level
    below via a monotonicity violation of the matching kind (F0 = M,
    F1 = Mdistinct, F2 = Mdisjoint).
    """
    from ..monotonicity.classes import violation_on
    from ..monotonicity.witnesses import (
        witness_cotc_not_distinct,
        witness_triangles_not_disjoint,
    )
    from ..queries.zoo import zoo_program

    # Level F1 \ F0: the SP query is computable by the distinct protocol
    # but is NOT monotone (so, by F0 = M, not in F0).
    sp_query = DatalogQuery(zoo_program("sp-missing-targets"), "sp-missing-targets")
    violation = violation_on(
        sp_query,
        Instance(parse_facts("E(1,2).")),
        Instance(parse_facts("Mark(2).")),
    )
    # Level F2 \ F1: coTC runs under domain guidance but violates
    # domain-distinct monotonicity (so, by F1 = Mdistinct, not in F1).
    witness = witness_cotc_not_distinct()
    # Beyond F2: the triangle query violates domain-disjoint monotonicity.
    beyond = witness_triangles_not_disjoint()
    return [
        # Level F0: TC is monotone and broadcast-computable.
        _membership_half(
            "F-HIER",
            transitive_closure_query(),
            broadcast_transducer,
            Instance(parse_facts("E(1,2). E(2,3).")),
            domain_guided=False,
        ),
        _membership_half(
            "F-HIER",
            sp_query,
            distinct_protocol_transducer,
            Instance(parse_facts("E(1,2). E(2,3). Mark(3).")),
            domain_guided=False,
        ),
        ExperimentRow(
            "F-HIER",
            "sp-missing-targets ∉ M (hence ∉ F0 by F0 = M)",
            violation is not None,
            violation.describe() if violation else "no violation found",
        ),
        _membership_half(
            "F-HIER",
            complement_tc_query(),
            disjoint_protocol_transducer,
            Instance(parse_facts("E(1,2). E(2,1). E(3,4).")),
            domain_guided=True,
        ),
        ExperimentRow(
            "F-HIER",
            "coTC ∉ Mdistinct (hence ∉ F1 by F1 = Mdistinct)",
            witness.verify(),
            witness.describe(),
        ),
        ExperimentRow(
            "F-HIER",
            "triangles-unless-2-disjoint ∉ Mdisjoint (hence ∉ F2)",
            beyond.verify(),
            beyond.describe(),
        ),
    ]


# ----------------------------------------------------------------------
# Lemma 5.2 / Theorem 5.3 / win-move
# ----------------------------------------------------------------------


def _componentwise(program, instance: Instance) -> Instance:
    """∪ Q(C) over the components C of *instance*."""
    result = Instance()
    for component in instance.components():
        result = result | evaluate_program(program, component)
    return result


def lemma52_experiment(*, seeds: Iterable[int] = range(6)) -> list[ExperimentRow]:
    """con-Datalog¬ distributes over components: evaluate a connected
    program on multi-component inputs globally vs componentwise."""
    from ..queries.zoo import zoo_program

    program = zoo_program("example51-p1")
    report = analyze_connectivity(program)
    instances = [multi_component_instance([3, 4, 2], seed=seed) for seed in seeds]
    failures = sum(
        evaluate_program(program, instance) != _componentwise(program, instance)
        for instance in instances
    )
    larger = multi_component_instance([6, 6, 6, 6], seed=9)
    return [
        ExperimentRow(
            "LEM5.2",
            "example51-p1 is connected",
            report.is_connected,
            f"{len(report.disconnected_rules)} disconnected rules",
        ),
        ExperimentRow(
            "LEM5.2",
            "Q(I) = ∪ Q(C) over components, outputs adom-disjoint",
            failures == 0,
            f"{len(instances)} multi-component instances, {failures} mismatches",
        ),
        ExperimentRow(
            "LEM5.2",
            "Q(I) = ∪ Q(C) on four 6-node components",
            evaluate_program(program, larger) == _componentwise(program, larger),
            f"|I|={len(larger)}, {len(larger.components())} components",
        ),
    ]


def theorem53_experiment(*, seed: int = 3) -> list[ExperimentRow]:
    """semicon-Datalog¬ ⊆ Mdisjoint on the zoo's semicon programs."""
    from ..monotonicity.checker import check_monotonicity
    from ..queries.zoo import zoo_program

    rows: list[ExperimentRow] = []
    for entry in PROGRAM_ZOO:
        if entry.fragment not in ("semicon-datalog", "con-datalog"):
            continue
        query = DatalogQuery(entry.program())
        verdict = membership_verdict(query, AdditionKind.DOMAIN_DISJOINT, seed=seed)
        rows.append(
            ExperimentRow(
                "THM5.3", f"{entry.name} ∈ Mdisjoint", verdict.holds, verdict.describe()
            )
        )
    # The non-semicon program P2 must leave Mdisjoint:
    p2 = DatalogQuery(zoo_program("example51-p2"))
    base = Instance(parse_facts("E(1,2). E(2,3). E(3,1)."))
    addition = Instance(parse_facts("E(7,8). E(8,9). E(9,7)."))
    verdict = check_monotonicity(
        p2, AdditionKind.DOMAIN_DISJOINT, [(base, addition)]
    )
    rows.append(
        ExperimentRow(
            "THM5.3",
            "example51-p2 ∉ Mdisjoint (two disjoint triangles)",
            not verdict.holds,
            verdict.describe(),
        )
    )
    return rows


def winmove_experiment() -> list[ExperimentRow]:
    """win-move ∈ Mdisjoint and coordination-free under domain guidance —
    the headline result of [32], reproved via Section 7's remark."""
    from ..datalog.connectivity import is_connected_rule
    from ..datalog.games import solve_game
    from ..datalog.wellfounded import (
        doubled_program,
        evaluate_doubled,
        evaluate_well_founded,
        winmove_program,
    )
    from ..queries.generators import random_game_graph

    program = winmove_program()
    game = Instance(parse_facts("Move(1,2). Move(2,1). Move(2,3). Move(4,4)."))
    direct = evaluate_well_founded(program, game)
    doubled = evaluate_doubled(program, game)
    query = win_move_query()
    verdict = membership_verdict(
        query, AdditionKind.DOMAIN_DISJOINT, seed=2,
        pairs=random_pairs(query.input_schema, AdditionKind.DOMAIN_DISJOINT, count=80, seed=2),
    )
    report = coordination_free_report(
        disjoint_protocol_transducer(query),
        query,
        game,
        domain_guided=True,
        seeds=(0,),
    )
    random_game = random_game_graph(40, 90, seed=21)
    won = {
        f.values[0]
        for f in evaluate_well_founded(program, random_game).true
        if f.relation == "Win"
    }
    return [
        ExperimentRow(
            "WM",
            "doubled program reproduces the well-founded model",
            direct.true == doubled.true and direct.undefined == doubled.undefined,
            f"|true|={len(direct.true)}, |undef|={len(direct.undefined)}",
        ),
        ExperimentRow(
            "WM",
            "doubling preserves rule connectivity",
            all(is_connected_rule(rule) for rule in doubled_program(program)),
        ),
        ExperimentRow("WM", "win-move ∈ Mdisjoint", verdict.holds, verdict.describe()),
        ExperimentRow(
            "WM",
            "win-move coordination-free under domain guidance",
            report.coordination_free,
            report.describe(),
        ),
        ExperimentRow(
            "WM",
            "well-founded Win = the won positions of retrograde analysis",
            won == solve_game(random_game).won,
            f"random game, {len(random_game.adom())} positions, {len(won)} won",
        ),
    ]


def theorem54_experiment(*, seed: int = 13) -> list[ExperimentRow]:
    """Theorem 5.4's reproducible half: (semi-connected) wILOG¬ fragments
    land in their classes, weak safety separates clean programs from
    leaking ones, and divergence is detected."""
    from ..ilog import (
        DivergenceError,
        ILOGQuery,
        classify_ilog,
        diverging_counter,
        evaluate_ilog,
        is_weakly_safe,
        semicon_wilog_cotc,
        sp_wilog_tagged_pairs,
        tc_with_witnesses,
        unsafe_leak,
    )
    from ..monotonicity.checker import check_monotonicity

    rows: list[ExperimentRow] = []
    cases = [
        (semicon_wilog_cotc(), "semicon-wilog", AdditionKind.DOMAIN_DISJOINT),
        (sp_wilog_tagged_pairs(), "sp-wilog", AdditionKind.DOMAIN_DISTINCT),
        (tc_with_witnesses(), "sp-wilog", AdditionKind.ANY),
    ]
    for program, expected_fragment, kind in cases:
        report = classify_ilog(program)
        query = ILOGQuery(program)
        verdict = check_monotonicity(
            query, kind, random_pairs(query.input_schema, kind, count=80, seed=seed)
        )
        rows.append(
            ExperimentRow(
                "THM5.4",
                f"{query.name} ∈ {expected_fragment}, respects its class",
                report.fragment == expected_fragment and verdict.holds,
                f"fragment={report.fragment}; {verdict.describe()}",
            )
        )
    rows.append(
        ExperimentRow(
            "THM5.4",
            "weak safety separates clean from leaking programs",
            is_weakly_safe(tc_with_witnesses()) and not is_weakly_safe(unsafe_leak()),
        )
    )
    diverged = False
    try:
        evaluate_ilog(
            diverging_counter(), Instance(parse_facts("Start(1).")), max_depth=5
        )
    except DivergenceError:
        diverged = True
    rows.append(
        ExperimentRow("THM5.4", "infinite invention detected as undefined output", diverged)
    )
    return rows


# ----------------------------------------------------------------------
# Protocol cost profiles (Section 4.3 discussion)
# ----------------------------------------------------------------------


def protocol_costs(
    node_count: int, instance: Instance, seed: int, *, barrier: bool = False
) -> list[tuple[str, RunMetrics]]:
    """(protocol kind, cost counters) of one fair synchronous run to
    quiescence of each Section-4 protocol on a *node_count*-node network: TC
    by ``broadcast``, co-TC by the ``distinct`` and the ``disjoint`` protocol,
    and with *barrier* also co-TC behind the All-``barrier``."""
    from ..transducers.barrier import global_barrier_transducer

    network = Network([f"n{i}" for i in range(node_count)])
    tc, cotc = transitive_closure_query(), complement_tc_query()
    configs = [
        ("broadcast", broadcast_transducer(tc), hash_policy(tc.input_schema, network)),
        (
            "distinct",
            distinct_protocol_transducer(cotc),
            hash_policy(cotc.input_schema, network),
        ),
        (
            "disjoint",
            disjoint_protocol_transducer(cotc),
            domain_guided_policy(
                cotc.input_schema, network, hash_domain_assignment(network)
            ),
        ),
    ]
    if barrier:
        configs.append(
            ("barrier", global_barrier_transducer(cotc), hash_policy(cotc.input_schema, network))
        )
    costs = []
    for kind, transducer, policy in configs:
        observation = execute(
            "sync",
            TransducerNetwork(network, transducer, policy),
            instance,
            seed=seed,
        )
        observation.result()
        costs.append((kind, RunMetrics(**observation.report.metrics)))
    return costs


#: The protocol labels of a sweep: ``kind/class it serves``.
BROADCAST, DISTINCT, DISJOINT = "broadcast/M", "distinct/Mdistinct", "disjoint/Mdisjoint"
_LABEL = {"broadcast": BROADCAST, "distinct": DISTINCT, "disjoint": DISJOINT}


def _sweep_entry(kind: str, axis: str, size: int, metrics: RunMetrics) -> dict:
    return {
        "protocol": _LABEL[kind],
        axis: size,
        "transitions": metrics.transitions,
        "message_facts": metrics.message_facts_sent,
        "rounds": metrics.rounds,
    }


def _sent(sweep: tuple[dict, ...], axis: str) -> dict[tuple[str, int], int]:
    """(protocol label, size on *axis*) -> message-facts sent."""
    return {(entry["protocol"], entry[axis]): entry["message_facts"] for entry in sweep}


def _message_profile(sweep: tuple[dict, ...], axis: str) -> str:
    """``message-facts at 1/2 nodes: broadcast/M 0/8, ...``."""
    sent = _sent(sweep, axis)
    sizes = sorted({size for _, size in sent})
    return f"message-facts at {'/'.join(map(str, sizes))} {axis}: " + ", ".join(
        f"{label} {'/'.join(str(sent[label, size]) for size in sizes)}"
        for label in _LABEL.values()
    )


def protocol_cost_experiment() -> list[ExperimentRow]:
    """Transitions / message-facts / rounds of the three Section-4 protocols,
    on an 8-edge graph as the network grows (1–4 nodes) and on a 3-node
    network as the input grows (4, 8, 16 edges): the richer classes pay in
    data-driven, never global, coordination."""
    graph = random_graph(6, 8, seed=0)
    by_nodes = tuple(
        _sweep_entry(kind, "nodes", count, metrics)
        for count in (1, 2, 3, 4)
        for kind, metrics in protocol_costs(count, graph, 0)
    )
    by_edges = tuple(
        _sweep_entry(kind, "edges", edges, metrics)
        for edges in (4, 8, 16)
        for kind, metrics in protocol_costs(3, random_graph(max(6, edges), edges, seed=0), 0)
    )
    nodes, edges = _sent(by_nodes, "nodes"), _sent(by_edges, "edges")
    richer = (DISTINCT, DISJOINT)
    return [
        ExperimentRow(
            "PROTO",
            "as the network grows: one node sends nothing, broadcast/M sends "
            "least, and distinct and disjoint send more at 4 nodes than at 2",
            all(nodes[label, 1] == 0 for label in _LABEL.values())
            and all(nodes[BROADCAST, n] < nodes[label, n] for n in (2, 3, 4) for label in richer)
            and all(nodes[label, 4] > nodes[label, 2] for label in richer),
            _message_profile(by_nodes, "nodes"),
            by_nodes,
        ),
        ExperimentRow(
            "PROTO",
            "as the input grows: every protocol sends more at 16 edges than at 4",
            all(edges[label, 16] > edges[label, 4] for label in _LABEL.values()),
            _message_profile(by_edges, "edges"),
            by_edges,
        ),
    ]


# ----------------------------------------------------------------------
# Coordination, confluence and chaos (Section 4: "every fair run")
# ----------------------------------------------------------------------


def coordination_experiment() -> list[ExperimentRow]:
    """With ``All`` a transducer computes any query through a global barrier
    — which is exactly what coordination-freeness forbids (Sections 4.1.5 /
    4.3): the barrier computes a query outside Mdisjoint but admits no
    heartbeat-only witness (Definition 3)."""
    from ..queries.graph import triangle_unless_two_disjoint_query
    from ..transducers.barrier import global_barrier_transducer
    from ..transducers.coordination import (
        check_distributed_computation,
        heartbeat_witness,
    )

    query = triangle_unless_two_disjoint_query()
    barrier = global_barrier_transducer(query)
    triangle = Instance(parse_facts("E(1,2). E(2,3). E(3,1)."))
    beyond = check_distributed_computation(
        barrier, query, triangle, seeds=(0,), include_trickle=False
    )
    witness = heartbeat_witness(
        barrier, query, Network(["a", "b", "c"]), triangle, max_heartbeats=20
    )
    return [
        ExperimentRow(
            "COORD",
            f"the All-barrier computes {query.name} ∉ Mdisjoint",
            beyond.consistent,
            beyond.describe(),
        ),
        ExperimentRow(
            "COORD",
            "the All-barrier has no heartbeat-only witness (3 nodes, ≤ 20 heartbeats)",
            not witness.found,
            witness.describe(),
        ),
    ]


def confluence_experiment() -> list[ExperimentRow]:
    """Every reachable configuration of a 2-node network, explored: broadcast
    is confluent and correct on TC, and confluent but uniformly wrong on
    coTC — which is why "distributedly computes Q" compares against Q(I)
    rather than only demanding schedule-independence."""
    from ..transducers.modelcheck import explore_runs

    network = Network(["a", "b"])
    rows = []
    for query, facts, correct in (
        (transitive_closure_query(), "E(1,2). E(2,3).", True),
        (complement_tc_query(), "E(1,2). E(2,1).", False),
    ):
        instance = Instance(parse_facts(facts))
        report = explore_runs(
            TransducerNetwork(
                network,
                broadcast_transducer(query),
                hash_policy(query.input_schema, network),
            ),
            instance,
        )
        right = report.complete and report.outputs[0] == query(instance)
        rows.append(
            ExperimentRow(
                "CONF",
                f"broadcast/{query.name} is confluent and "
                + ("correct" if correct else "wrong on every schedule"),
                report.complete and report.confluent and right == correct,
                report.describe(),
            )
        )
    return rows


def chaos_experiment() -> list[ExperimentRow]:
    """Each Section-4 protocol (and the coordinating barrier baseline) on 3
    nodes, once fair and under 20 seeded fault schedules — an
    adversarial scheduler with a duplicating, delaying, drop-and-redeliver
    channel — quiesces with one output fingerprint, equal to Q(I)'s, and
    consistent telemetry."""
    from ..transducers.barrier import barrier_baseline
    from ..transducers.faults import CHAOS_PLAN, chaos_scheduler_zoo
    from ..transducers.protocols import section4_protocols
    from ..transducers.telemetry import output_fingerprint

    rows = []
    for bundle in section4_protocols() + (barrier_baseline(),):
        network = bundle.network(["n1", "n2", "n3"])
        reports = [execute("sync", network, bundle.instance, scheduler="fair").report]
        for seed in range(20):
            zoo = chaos_scheduler_zoo(seed)
            reports.append(
                execute(
                    "sync", network, bundle.instance, seed=seed,
                    faults=CHAOS_PLAN, scheduler=zoo[seed % len(zoo)],
                ).report
            )
        expected = output_fingerprint(bundle.expected())
        faults: dict[str, int] = {}
        for report in reports:
            for key, value in report.faults.items():
                faults[key] = faults.get(key, 0) + value
        rounds = [report.metrics["rounds"] for report in reports]
        rows.append(
            ExperimentRow(
                "CHAOS",
                f"{bundle.theorem}: every run's fingerprint is Q(I)'s",
                all(
                    report.quiesced
                    and report.output_fingerprint == expected
                    and report.rounds_to_quiescence == report.metrics["rounds"]
                    and report.metrics["transitions"]
                    == sum(node.transitions for node in report.per_node)
                    for report in reports
                ),
                f"{len(reports)} runs, rounds {min(rounds)}..{max(rounds)}, "
                f"faults {faults}, out={expected[:12]}",
            )
        )
    return rows


#: The ``paper`` gate, in document order: every claim the repo makes about
#: the paper, each driver called with its defaults.
PAPER_DRIVERS: tuple[Callable[[], list[ExperimentRow]], ...] = (
    figure1_experiment,
    theorem31_experiment,
    lemma32_experiment,
    figure2_experiment,
    theorem43_experiment,
    theorem44_experiment,
    theorem45_experiment,
    hierarchy_f_experiment,
    lemma52_experiment,
    theorem53_experiment,
    theorem54_experiment,
    winmove_experiment,
    protocol_cost_experiment,
    coordination_experiment,
    confluence_experiment,
    chaos_experiment,
)
