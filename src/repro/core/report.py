"""EXPERIMENTS.md, rendered from a ``paper`` gate artifact.

The document's prose — the header, the deviations found during
reproduction, each section's title and blurb — is data here; every claim,
verdict, piece of evidence, sweep number and the summary count come from
the artifact's records.  The ``stamp`` and the records' ``wall_s`` are not
rendered, so the same records always render the same bytes.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["render_experiments"]

HEADER = """\
# EXPERIMENTS — paper claim vs. measured

Regenerate with `repro gate paper --output BENCH_paper.json && repro report BENCH_paper.json > EXPERIMENTS.md`.  The paper is a
theory paper: its artifacts are Figure 1, Figure 2 and the theorems, so
"measured" means *the claim was regenerated executably* — separations by
explicit counterexample pairs, memberships by counterexample search over
exhaustive-small plus seeded-random instance families, transducer claims by
simulated runs over sampled networks x policies x schedules.

A "verified" membership verdict is always relative to the searched family
(membership is undecidable); every "refuted"/separation verdict is an
explicit finite witness, exactly the evidence the paper's proofs construct.

## Deviations found during reproduction

* **Theorem 3.1(5), boundary case i = 1.**  The paper separates
  M^i_distinct from M^i_disjoint with Q^{i+1}_clique "using similar
  arguments as for (3)".  For i = 1 the membership half fails: a *single*
  domain-disjoint edge E(c, d) creates a fresh 2-clique from nothing, so
  Q^2_clique ∉ M^1_disjoint.  (For i >= 2 the argument is fine: a fresh
  (i+1)-clique needs i(i+1)/2 > i disjoint edges.)  The separation itself
  still holds at i = 1 — witnessed by Q^2_star instead — so the *statement*
  of the theorem is unaffected; only the witness family needs the swap.
* **No-`All` protocols need identifier announcements.**  The Theorem 4.3 /
  4.4 constructions decide absences / ownership over the node's own
  identifier.  With `All` present every node knows all identifiers; in the
  Theorem 4.5 no-`All` variant, other nodes never learn x's identifier and
  can neither report absences over it nor serve ownership requests for it.
  Our protocols therefore broadcast the node's own id alongside its data
  (redundant but harmless when `All` exists).  The paper's claim stands;
  this is an implementation detail its proof sketch leaves implicit.
* **Sampling alone cannot certify the "only if" directions.**  Natural
  policy families (hash, replicate, all-to-one) never split the inputs the
  way the proofs require; e.g. the Theorem 4.3 protocol run on coTC looks
  consistent under all of them.  The refutations below therefore use the
  paper's own relocation construction (ideal-for-I at x, addition J moved
  to y), which produces the wrong output deterministically.

"""


class Section(NamedTuple):
    """One ``##`` section: the records of *experiments*, in record order,
    as a claim table; then one table per record carrying a ``sweep``, each
    after its line of *sweep_intros* (empty: none)."""

    title: str
    blurb: str
    experiments: tuple[str, ...]
    sweep_intros: tuple[str, ...] = ()


SECTIONS = (
    Section(
        "FIG1 — the monotonicity hierarchy (Theorem 3.1)",
        "Figure 1: M ⊊ Mdistinct ⊊ Mdisjoint ⊊ C with the bounded families "
        "interleaved; all seven claims of Theorem 3.1.",
        ("FIG1",),
    ),
    Section(
        "THM3.1 — the separating witnesses",
        "Each packaged witness (coTC, Q^k_clique, Q^k_star, Q^j_duplicate, "
        "triangles-unless-two-disjoint) refutes exactly the class its proof "
        "says it refutes, at every index up to 3.",
        ("THM3.1",),
    ),
    Section(
        "L3.2 — H ⊊ Hinj = M ⊊ E = Mdistinct (Lemma 3.2)",
        "The extension condition and domain-distinct monotonicity agree pair "
        "by pair on an exhaustive family (J is an induced subinstance of I ∪ J "
        "iff J is domain distinct from I); spot checks for Hinj = M, H ⊊ Hinj "
        "and Datalog ⊆ H.",
        ("L3.2",),
    ),
    Section(
        "FIG2 — the main-results diagram",
        "Figure 2: fragment placements (Datalog ⊊ Datalog(≠) ⊆ M, "
        "SP-Datalog ⊆ Mdistinct, (semi)con-Datalog¬ ⊆ Mdisjoint) checked by "
        "the analyzer + counterexample search on the program zoo.",
        ("FIG2",),
    ),
    Section(
        "THM4.3 — F1 = Mdistinct (policy-aware model)",
        "Membership: the absence-broadcast protocol on an SP-Datalog query. "
        "Refutation: coTC ∉ Mdistinct via the relocation construction.",
        ("THM4.3",),
    ),
    Section(
        "THM4.4 — F2 = Mdisjoint (domain-guided model)",
        "Membership: the handshake protocol on coTC and win-move. "
        "Refutation: triangles-unless-two-disjoint ∉ Mdisjoint.",
        ("THM4.4",),
    ),
    Section(
        "THM4.5 / COR4.6 — the no-All and oblivious variants",
        "The protocols never read All and run unmodified (A1 = Mdistinct, "
        "A2 = Mdisjoint); broadcast is even oblivious (F0 = A0 = M).",
        ("THM4.5", "COR4.6"),
    ),
    Section(
        "F-HIER — the strict hierarchy F0 ⊊ F1 ⊊ F2 ⊊ C",
        "The coordination-free classes of [32], strict by the monotonicity "
        "characterizations: membership by protocol, exclusion by violation "
        "of the matching monotonicity kind.",
        ("F-HIER",),
    ),
    Section(
        "LEM5.2 — con-Datalog¬ distributes over components",
        "Global vs componentwise evaluation of Example 5.1's P1 on seeded "
        "multi-component instances.",
        ("LEM5.2",),
    ),
    Section(
        "THM5.3 — semicon-Datalog¬ ⊆ Mdisjoint",
        "Disjoint-addition counterexample search over the zoo's "
        "(semi-)connected programs; Example 5.1's P2 exits the class.",
        ("THM5.3",),
    ),
    Section(
        "THM5.4 — (semi-connected) wILOG¬ and Mdisjoint",
        "Value invention: fragment placements, class containments, weak "
        "safety, and divergence detection for the demo wILOG¬ programs.",
        ("THM5.4",),
    ),
    Section(
        "WM — win-move (Section 7 + [32])",
        "The doubled program reproduces the well-founded model and preserves "
        "connectivity; win-move ∈ Mdisjoint and is coordination-free under "
        "domain guidance.",
        ("WM",),
    ),
    Section(
        "PROTO — protocol cost profiles (Section 4.3 discussion)",
        "Transitions / message-facts / rounds to quiescence on the same "
        "8-edge input as the network grows.  Shape: broadcast cheapest; the "
        "policy-aware protocols pay more *data-driven* messaging, growing "
        "with node count — but none of it is global coordination.",
        ("PROTO",),
        ("", "With a fixed 3-node network and growing input (the companion sweep):"),
    ),
    Section(
        "COORD — the price of coordination (Sections 4.1.5 / 4.3)",
        "With All, a global barrier computes any query — but no "
        "heartbeat-only prefix does, which is exactly what coordination-"
        "freeness (Definition 3) forbids.",
        ("COORD",),
    ),
    Section(
        "CONF — every fair run, explored exhaustively",
        "All reachable configurations of a 2-node network (duplicate-"
        "idempotent set buffers).  Broadcast on the non-monotone coTC is "
        "confluent but uniformly wrong: schedule-independence alone does not "
        "make a strategy compute Q.",
        ("CONF",),
    ),
    Section(
        "CHAOS — confluence of the Section-4 protocols under injected faults",
        "Each protocol on 3 nodes, once fair and under 20 seeded fault "
        "schedules (an adversarial scheduler and a duplicating, delaying, "
        "drop-and-redeliver channel), quiesces with one output fingerprint, "
        "Q(I)'s.  The coordinating barrier rides along: it is confluent under "
        "fair faults too — what it lacks is coordination-freeness.",
        ("CHAOS",),
    ),
)


def _table(header: list[str], rows: list[list[str]]) -> list[str]:
    return [
        f"| {' | '.join(header)} |",
        "|" + "---|" * len(header),
        *(f"| {' | '.join(row)} |" for row in rows),
        "",
    ]


def _section(section: Section, records: list[dict]) -> list[str]:
    lines = [f"## {section.title}", "", section.blurb, ""]
    lines += _table(
        ["claim", "verdict", "evidence"],
        [[r["claim"], r["verdict"], r["evidence"].replace("|", "\\|")] for r in records],
    )
    sweeps = [r["sweep"] for r in records if "sweep" in r]
    for intro, sweep in zip(section.sweep_intros, sweeps, strict=True):
        lines += [intro, ""] if intro else []
        lines += _table(
            [key.replace("_", "-") for key in sweep[0]],
            [[str(value) for value in entry.values()] for entry in sweep],
        )
    return lines


def render_experiments(artifact: dict) -> str:
    """EXPERIMENTS.md for the ``paper`` gate *artifact*."""
    if artifact.get("gate") != "paper":
        raise ValueError(f"not a paper gate artifact (gate {artifact.get('gate')!r})")
    records = artifact["records"]
    sectioned = {e for section in SECTIONS for e in section.experiments}
    stray = sorted({r["experiment"] for r in records} - sectioned)
    if stray:
        raise ValueError(f"no EXPERIMENTS.md section renders {', '.join(stray)}")
    lines = [HEADER]
    for section in SECTIONS:
        lines += _section(
            section, [r for r in records if r["experiment"] in section.experiments]
        )
    failed = sum(not r["passed"] for r in records)
    lines.append(
        f"## Summary\n\n{len(records) - failed}/{len(records)} claims verified"
        + (f" — **{failed} FAILED**" if failed else "")
        + "\n"
    )
    return "\n".join(lines)
