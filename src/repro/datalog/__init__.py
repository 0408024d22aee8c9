"""The Datalog¬ substrate: terms, rules, programs, parsing and evaluation.

This package implements Section 2 of the paper (syntax, semi-positive and
stratified semantics), the connectivity fragments of Section 5.1, and the
well-founded semantics used by the Section 7 win-move remark.
"""

from .terms import Atom, Fact, Inequality, Variable, make_variables
from .rules import Rule, RuleValidationError
from .schema import Schema, SchemaError
from .instance import Instance
from .program import Program, ADOM_RELATION
from .parser import ParseError, parse_facts, parse_program, parse_rule, parse_rules
from .stratification import (
    NotStratifiableError,
    PrecedenceGraph,
    Stratification,
    is_stratifiable,
    precedence_graph,
    stratify,
)
from .stratified import (
    EvaluationError,
    StratifiedEvaluator,
    evaluate,
    evaluate_stratified,
)
from .connectivity import (
    ConnectivityReport,
    analyze_connectivity,
    is_con_datalog,
    is_connected_program,
    is_connected_rule,
    is_semicon_datalog,
    rule_variable_graph,
    semicon_violations,
)
from .games import (
    GameSolution,
    distance_to_win,
    optimal_move,
    solve_game,
)
from .wellfounded import (
    WellFoundedEvaluator,
    WellFoundedModel,
    doubled_program,
    evaluate_doubled,
    evaluate_well_founded,
    winmove_program,
    winmove_truths,
)

__all__ = [
    "Atom",
    "Fact",
    "Inequality",
    "Variable",
    "make_variables",
    "Rule",
    "RuleValidationError",
    "Schema",
    "SchemaError",
    "Instance",
    "Program",
    "ADOM_RELATION",
    "ParseError",
    "parse_facts",
    "parse_program",
    "parse_rule",
    "parse_rules",
    "EvaluationError",
    "NotStratifiableError",
    "PrecedenceGraph",
    "Stratification",
    "is_stratifiable",
    "precedence_graph",
    "stratify",
    "StratifiedEvaluator",
    "evaluate",
    "evaluate_stratified",
    "ConnectivityReport",
    "analyze_connectivity",
    "is_con_datalog",
    "is_connected_program",
    "is_connected_rule",
    "is_semicon_datalog",
    "rule_variable_graph",
    "semicon_violations",
    "GameSolution",
    "distance_to_win",
    "optimal_move",
    "solve_game",
    "WellFoundedEvaluator",
    "WellFoundedModel",
    "doubled_program",
    "evaluate_doubled",
    "evaluate_well_founded",
    "winmove_program",
    "winmove_truths",
]
