"""Runtime feature flags, read from the environment at *call time*.

Every performance layer of the engine has an environment kill switch:

* ``REPRO_DISABLE_PLANS=1`` — fall back from compiled join plans (and the
  kernel, which builds on the same dispatch point) to the legacy recursive
  join, the oracle engine;
* ``REPRO_DISABLE_KERNEL=1`` — keep compiled plans but disable the interned
  columnar kernel (:mod:`repro.kernel`), for the semi-naive evaluator and
  the well-founded alternating fixpoint alike;
* ``REPRO_KERNEL=0|1`` — explicit opt-out/opt-in for the kernel when no
  stronger override applies;
* ``REPRO_DISABLE_QUERY_CACHE=1`` — disable the incremental transducer
  memos (step cache, policy and protocol memos).

Historically each module parsed its own variable, some at import time and
some at call time, so flipping a switch mid-process worked for some layers
and silently did nothing for others.  This module is the single source of
truth: every predicate re-reads the environment on each call, so setting or
clearing a switch mid-process takes effect immediately (subprocess-tested
in ``tests/test_flags.py``).  Module-level overrides used by tests and the
conformance stacks (``evaluation.PLANS_ENABLED``,
``kernel.engine.KERNEL_ENABLED``) are still honored; for the kernel the
explicit override wins outright, while the plans attribute composes with
the environment (the env kill switch always wins there, because the legacy
join is the correctness oracle).
"""

from __future__ import annotations

import os

__all__ = [
    "env_flag",
    "plans_enabled",
    "kernel_enabled",
    "query_cache_enabled",
]

_TRUTHY = ("1", "true", "yes")


def env_flag(name: str) -> bool:
    """True when the environment variable *name* is set to a truthy value.

    Read at call time on purpose — see the module docstring.
    """
    return os.environ.get(name, "").lower() in _TRUTHY


def plans_enabled() -> bool:
    """Should the join engine run through compiled plans?

    False when either the ``REPRO_DISABLE_PLANS`` kill switch is set *or*
    the ``evaluation.PLANS_ENABLED`` module attribute was flipped off (the
    hook tests and the legacy conformance stack use).
    """
    from .datalog import evaluation

    if not evaluation.PLANS_ENABLED:
        return False
    return not env_flag("REPRO_DISABLE_PLANS")


def kernel_enabled() -> bool:
    """Should eligible evaluators run through the interned columnar kernel?

    Resolution order: the ``kernel.engine.KERNEL_ENABLED`` module override
    (``True``/``False``; ``None`` defers), then the ``REPRO_DISABLE_KERNEL``
    kill switch, then an explicit ``REPRO_KERNEL`` setting, then the
    default (on).  Note the kernel additionally rides behind
    :func:`plans_enabled` at the dispatch point, so ``REPRO_DISABLE_PLANS``
    restores the legacy oracle engine wholesale.
    """
    from .kernel import engine

    if engine.KERNEL_ENABLED is not None:
        return bool(engine.KERNEL_ENABLED)
    if env_flag("REPRO_DISABLE_KERNEL"):
        return False
    explicit = os.environ.get("REPRO_KERNEL")
    if explicit is not None:
        return explicit.lower() in _TRUTHY
    return True


def query_cache_enabled() -> bool:
    """Should the transducer runtime use its incremental memo layers?"""
    return not env_flag("REPRO_DISABLE_QUERY_CACHE")
