"""Runtime feature flags, read from the environment at *call time*.

One switch remains: ``REPRO_DISABLE_QUERY_CACHE=1`` disables the
transducer memos (the step cache and the policy's ``nodes_for`` memo; a
node's carried cursor is not a memo and has no switch).  The
predicate re-reads the environment on each call, so setting or clearing the
switch mid-process takes effect immediately (subprocess-tested in
``tests/test_flags.py``).

The evaluation engine has no switch: the kernel is the only production
engine, and the reference is reached by calling it
(:func:`repro.datalog.evaluation.naive_fixpoint`,
:func:`repro.datalog.wellfounded.naive_well_founded`).
"""

from __future__ import annotations

import os

__all__ = ["env_flag", "query_cache_enabled"]

_TRUTHY = ("1", "true", "yes")


def env_flag(name: str) -> bool:
    """True when the environment variable *name* is set to a truthy value.

    Read at call time on purpose — see the module docstring.
    """
    return os.environ.get(name, "").lower() in _TRUTHY


def query_cache_enabled() -> bool:
    """Should the transducer runtime use its incremental memo layers?"""
    return not env_flag("REPRO_DISABLE_QUERY_CACHE")
