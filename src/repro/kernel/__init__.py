"""Interned columnar evaluation kernel: the production join engine.

Constants interned to dense ints (:mod:`.interning`), relations stored as
sets of int rows with lazy per-column indexes (:mod:`.relation`), and one
generated Python function per rule specialization (:mod:`.codegen`), driven
by a semi-naive fixpoint (:mod:`.engine`).  Stratified programs run every
stratum on one interned database (``StratifiedKernel``).  The well-founded
semantics rides the same pieces: :mod:`.wellfounded` freezes negation into
twin relations and runs each Γ of the alternating fixpoint as one
``saturate``.

``StratifiedEvaluator`` and ``WellFoundedEvaluator.session`` in
:mod:`repro.datalog` run on this package unconditionally; the references
it is checked against (:mod:`repro.reference`) never import it.
"""

from .codegen import CompiledRule, compile_rule
from .engine import KernelEvaluator, StratifiedKernel
from .interning import SymbolTable, decode_database, intern_instance
from .relation import ColumnarDatabase, ColumnarRelation
from .wellfounded import FrozenNegationKernel

__all__ = [
    "CompiledRule",
    "compile_rule",
    "KernelEvaluator",
    "StratifiedKernel",
    "FrozenNegationKernel",
    "SymbolTable",
    "decode_database",
    "intern_instance",
    "ColumnarDatabase",
    "ColumnarRelation",
]
