"""repro.conformance: differential + metamorphic fuzzing for every engine.

The repo evaluates the same query four ways — naive T_P iteration (the
reference), the interned columnar kernel, the incremental synchronous
transducer simulator, and the asynchronous ``repro.cluster`` runtime
(both transports, with chaos and crash schedules).  This package keeps
them honest:

* :mod:`generator` samples safe programs per paper fragment plus random
  instances and distinct-/disjoint-domain deltas;
* :mod:`stacks` puts the four evaluation stacks behind one interface;
* :mod:`differential` runs a (program, instance) through all stacks and
  reports the first divergence with full provenance;
* :mod:`metamorphic` turns the paper's monotonicity classes (Fig. 1,
  Lemma 3.2, Theorem 3.1) into executable oracles;
* :mod:`shrinker` minimizes failing cases (drop rules, drop facts,
  canonicalize the domain);
* :mod:`corpus` persists minimized cases under ``tests/corpus/`` so every
  past divergence becomes a permanent regression test;
* :mod:`fuzz` is the ``repro fuzz`` driver with seed/iteration/time
  budgets and JSON telemetry.

See ``docs/TESTING.md`` for the workflow.
"""

from .corpus import (
    CORPUS_VERSION,
    corpus_entries,
    default_corpus_dir,
    entry_from_verdict,
    load_entry,
    replay_entry,
    write_entry,
)
from .differential import (
    MUTATIONS,
    CaseVerdict,
    DifferentialCase,
    StackOutcome,
    run_case,
)
from .fuzz import FUZZ_REPORT_VERSION, FuzzConfig, run_fuzz, write_fuzz_report
from .generator import (
    FRAGMENT_TARGETS,
    WFS_TARGETS,
    sample_delta,
    sample_instance,
    sample_program,
)
from .metamorphic import MetamorphicViolation, check_metamorphic
from .shrinker import shrink_case
from .stacks import DEFAULT_STACK_NAMES, StackContext, build_stacks

__all__ = [
    "CORPUS_VERSION",
    "CaseVerdict",
    "DEFAULT_STACK_NAMES",
    "DifferentialCase",
    "FRAGMENT_TARGETS",
    "FUZZ_REPORT_VERSION",
    "FuzzConfig",
    "MUTATIONS",
    "MetamorphicViolation",
    "StackContext",
    "StackOutcome",
    "WFS_TARGETS",
    "build_stacks",
    "check_metamorphic",
    "corpus_entries",
    "default_corpus_dir",
    "entry_from_verdict",
    "load_entry",
    "replay_entry",
    "run_case",
    "run_fuzz",
    "sample_delta",
    "sample_instance",
    "sample_program",
    "shrink_case",
    "write_entry",
    "write_fuzz_report",
]
