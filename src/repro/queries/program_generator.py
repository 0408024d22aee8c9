"""Seeded random Datalog¬ (and wILOG¬) program generation.

Programs are generated stratum by stratum, so they are syntactically
stratifiable *by construction*: a rule's positive atoms may use edb
relations, earlier idb relations or same-stratum idb relations; its negated
atoms only edb or strictly earlier idb relations (unless
``negate_same_stratum`` asks for negation through recursion).  Safety is
guaranteed by drawing head and negated-atom variables from the positive
body's variables.

Used by the property-based tests to exercise the analyzer, the fragment
checkers and the Lemma 5.2 component semantics on inputs nobody hand-picked,
and by :mod:`repro.conformance.generator` to sample per-fragment workloads
for the differential fuzzer (``connect_last_stratum=False`` leaves only the
top stratum disconnected, which lands in semicon-Datalog¬ by construction
since top-stratum heads are never negated).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..datalog.program import Program
from ..datalog.rules import Rule
from ..datalog.schema import Schema
from ..datalog.terms import Atom, Inequality, Variable

__all__ = ["GeneratorConfig", "random_program", "random_ilog_program"]


@dataclass(frozen=True)
class GeneratorConfig:
    """Tunable shape of the generated programs."""

    edb_relations: tuple[tuple[str, int], ...] = (("E", 2), ("V", 1))
    strata: int = 2
    relations_per_stratum: int = 2
    rules_per_relation: int = 2
    max_body_atoms: int = 3
    negation_probability: float = 0.4
    inequality_probability: float = 0.2
    connect_rules: bool = False
    #: With ``connect_rules`` on, also connect the rules of the *last*
    #: stratum.  Turning this off while keeping ``connect_rules`` on yields
    #: semicon-Datalog¬ samples: every potentially-disconnected rule sits in
    #: the top stratum, whose heads no rule negates.
    connect_last_stratum: bool = True
    #: Also let a rule negate the relations of its *own* stratum.  This is
    #: the one way out of stratifiability by construction: negation through
    #: recursion (``Win(x) :- Move(x, y), not Win(y)``), whose meaning is the
    #: well-founded semantics.
    negate_same_stratum: bool = False
    variable_pool: tuple[str, ...] = ("x", "y", "z", "u", "v")


def _random_atom(rng: random.Random, relation: str, arity: int, variables) -> Atom:
    return Atom(relation, tuple(rng.choice(variables) for _ in range(arity)))


def _connect_atoms(
    rng: random.Random, atoms: list[Atom], variables: list[Variable]
) -> list[Atom]:
    """Rewrite atom arguments so the positive body's variable graph is
    connected (a chain through a shared variable)."""
    if len(atoms) <= 1:
        return atoms
    connected: list[Atom] = [atoms[0]]
    used = set(atoms[0].variables()) or {variables[0]}
    for atom in atoms[1:]:
        terms = list(atom.terms)
        # Force the first position to reuse an already-seen variable.
        terms[0] = rng.choice(sorted(used, key=lambda v: v.name))
        new_atom = Atom(atom.relation, terms)
        connected.append(new_atom)
        used |= new_atom.variables()
    return connected


def random_program(seed: int = 0, config: GeneratorConfig | None = None) -> Program:
    """Generate a Datalog¬ program, syntactically stratifiable unless
    ``config.negate_same_stratum`` is set."""
    config = config or GeneratorConfig()
    rng = random.Random(seed)
    variables = [Variable(name) for name in config.variable_pool]

    available: list[tuple[str, int]] = list(config.edb_relations)
    negatable: list[tuple[str, int]] = list(config.edb_relations)
    rules: list[Rule] = []
    last_heads: list[str] = []

    for stratum in range(1, config.strata + 1):
        stratum_relations = [
            (f"S{stratum}_{i}", rng.choice((1, 2)))
            for i in range(config.relations_per_stratum)
        ]
        # Same-stratum positive recursion is allowed.
        positive_pool = available + stratum_relations
        negative_pool = (
            negatable + stratum_relations
            if config.negate_same_stratum
            else negatable
        )
        for relation, arity in stratum_relations:
            for _ in range(config.rules_per_relation):
                body_size = rng.randint(1, config.max_body_atoms)
                pos = [
                    _random_atom(rng, *rng.choice(positive_pool), variables)
                    for _ in range(body_size)
                ]
                if config.connect_rules and (
                    config.connect_last_stratum or stratum < config.strata
                ):
                    pos = _connect_atoms(rng, pos, variables)
                pos_vars = sorted(
                    {v for atom in pos for v in atom.variables()},
                    key=lambda v: v.name,
                )
                if not pos_vars:
                    continue
                head = Atom(
                    relation, tuple(rng.choice(pos_vars) for _ in range(arity))
                )
                neg: list[Atom] = []
                if negative_pool and rng.random() < config.negation_probability:
                    neg_relation, neg_arity = rng.choice(negative_pool)
                    neg.append(
                        Atom(
                            neg_relation,
                            tuple(rng.choice(pos_vars) for _ in range(neg_arity)),
                        )
                    )
                ineq: list[Inequality] = []
                if len(pos_vars) >= 2 and rng.random() < config.inequality_probability:
                    left, right = rng.sample(pos_vars, 2)
                    ineq.append(Inequality(left, right))
                rules.append(Rule(head, pos, neg, ineq))
        available += stratum_relations
        negatable += stratum_relations
        last_heads = [name for name, _ in stratum_relations]

    if not rules:
        # Degenerate configs can produce no rules; fall back to a trivial one.
        x = variables[0]
        rules = [Rule(Atom("S1_0", (x,)), [Atom("V", (x,))])]
        last_heads = ["S1_0"]

    defined = {rule.head.relation for rule in rules}
    outputs = [name for name in last_heads if name in defined] or sorted(defined)
    extra_edb = Schema(dict(config.edb_relations))
    return Program(rules, output_relations=outputs[:1], extra_edb=extra_edb)


def random_ilog_program(
    seed: int = 0,
    config: GeneratorConfig | None = None,
    *,
    invention_rules: int = 2,
):
    """Generate a weakly-safe wILOG¬ program (value invention via ``*`` heads).

    Reuses :func:`random_program` for the plain Datalog¬ backbone, then adds
    *invention_rules* inventing rules over fresh relations whose bodies read
    the edb.  The designated outputs stay on the backbone, so invented
    values never reach an output position — weak safety by construction.
    """
    from ..ilog.program import ILOGProgram, ILOGRule

    config = config or GeneratorConfig()
    rng = random.Random(seed)
    base = random_program(rng.randrange(1 << 30), config)
    rules = [ILOGRule(rule, invents=False) for rule in base.rules]
    variables = [Variable(name) for name in config.variable_pool]
    for index in range(invention_rules):
        body_size = rng.randint(1, max(1, config.max_body_atoms - 1))
        pos = [
            _random_atom(rng, *rng.choice(config.edb_relations), variables)
            for _ in range(body_size)
        ]
        pos_vars = sorted(
            {v for atom in pos for v in atom.variables()}, key=lambda v: v.name
        )
        if not pos_vars:
            continue
        # The stored head excludes the invention slot; evaluation prepends
        # the Skolem term, so the declared arity is len(terms) + 1.
        head = Atom(
            f"N{index}",
            tuple(rng.choice(pos_vars) for _ in range(rng.choice((1, 2)))),
        )
        rules.append(ILOGRule(Rule(head, pos), invents=True))
    return ILOGProgram(
        rules,
        output_relations=base.output_relations,
        extra_edb=Schema(dict(config.edb_relations)),
    )
