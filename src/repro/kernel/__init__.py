"""Interned columnar evaluation kernel (PR 6).

The fast core behind the default engine: constants interned to dense ints
(:mod:`.interning`), relations stored as sets of int rows with lazy
per-column indexes (:mod:`.relation`), and one generated Python function
per rule specialization (:mod:`.codegen`), driven by a semi-naive fixpoint
that mirrors the tuple engine exactly (:mod:`.engine`).  The well-founded
semantics rides the same pieces: :mod:`.wellfounded` freezes negation into
twin relations and runs each Γ of the alternating fixpoint as one
``saturate``.

Gating: ``repro.flags.kernel_enabled()`` (``REPRO_KERNEL`` /
``REPRO_DISABLE_KERNEL`` / the ``engine.KERNEL_ENABLED`` override), always
behind ``repro.flags.plans_enabled()`` at the dispatch point in
``SemiNaiveEvaluator.run`` and ``WellFoundedEvaluator.session`` — so
``REPRO_DISABLE_PLANS`` still restores the legacy oracle engine wholesale.
"""

from .codegen import CompiledRule, compile_rule
from .engine import KernelEvaluator, evaluate_semipositive
from .interning import SymbolTable, decode_database, intern_instance
from .relation import ColumnarDatabase, ColumnarRelation
from .wellfounded import FrozenNegationKernel

__all__ = [
    "CompiledRule",
    "compile_rule",
    "KernelEvaluator",
    "FrozenNegationKernel",
    "evaluate_semipositive",
    "SymbolTable",
    "decode_database",
    "intern_instance",
    "ColumnarDatabase",
    "ColumnarRelation",
]
