"""repro — a reproduction of "Weaker Forms of Monotonicity for Declarative
Networking: a More Fine-grained Answer to the CALM-conjecture" (PODS 2014).

The package is organized along the paper's sections:

* :mod:`repro.datalog` — Datalog¬ (Section 2): rules, parsing, semi-positive
  and stratified semantics, well-founded semantics, connectivity fragments.
* :mod:`repro.ilog` — ILOG¬ with value invention (Section 5.2).
* :mod:`repro.queries` — generic queries and the paper's witness queries.
* :mod:`repro.monotonicity` — M / Mdistinct / Mdisjoint and the bounded
  hierarchy (Section 3), preservation classes, Theorem 3.1 machinery.
* :mod:`repro.transducers` — relational transducer networks (Section 4):
  distribution policies, the operational semantics, model variants, and the
  three coordination-free evaluation protocols.
* :mod:`repro.core` — the CALM analyzer and the experiment drivers that
  regenerate every figure and theorem.

Quickstart::

    from repro.datalog import Instance, parse_facts, parse_program
    from repro.core import analyze, run_distributed

    program = parse_program('''
        T(x, y) :- E(x, y).
        T(x, z) :- T(x, y), E(y, z).
        O(x, y) :- Adom(x), Adom(y), not T(x, y).
    ''')
    print(analyze(program).describe())
    result = run_distributed(program, Instance(parse_facts("E(1,2). E(2,3).")))
"""

__version__ = "1.0.0"

from . import core, datalog, ilog, kernel, monotonicity, queries, transducers

__all__ = [
    "core",
    "datalog",
    "ilog",
    "kernel",
    "monotonicity",
    "queries",
    "transducers",
    "__version__",
]
