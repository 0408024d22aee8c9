"""Streaming fact arrival: epoch-indexed delta feeds.

The paper's transducer networks are *inflationary*: output only grows and
a late-arriving input fact is reacted to at the node's next transition, so
the model natively supports facts trickling in over time (Section 4.1.3).
A :class:`DeltaFeed` packages that trickle as a deterministic schedule of
**epochs**: batch ``k`` is injected only once the network has reached
global quiescence on everything up to batch ``k-1``, which makes "the
output so far" a well-defined object the delta-preservation oracle can
interrogate (``repro.conformance.streaming``).

Feeds are plain data — a tuple of fact batches — so the same feed can be
replayed against the synchronous simulator (:meth:`Run.stream_to_quiescence
<repro.transducers.runtime.Run.stream_to_quiescence>`), the asyncio cluster
(``ClusterRun(delta_feed=...)``) and the process cluster
(``ProcessCluster(delta_feed=...)``), and shipped over wire formats (hex
fact lists in worker specs, fact strings in YAML scenarios).

:meth:`DeltaFeed.generate` draws a feed from a seeded RNG such that every
batch is *kind-admissible* with respect to the accumulated base: for
``Mdistinct`` each batch carries fresh domain values, for ``Mdisjoint``
each batch is domain-disjoint from everything before it.  Admissibility
telescopes — if batch ``j`` is admissible against prefix ``j-1`` then the
whole tail beyond any prefix ``k`` is admissible against prefix ``k`` —
which is exactly the precondition of the paper's delta-preservation
guarantee ``Q(I_k) ⊆ Q(I_B)`` (Section 3.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..datalog.instance import Instance
from ..datalog.parser import parse_facts
from ..datalog.schema import Schema
from ..datalog.terms import Fact, sort_facts
from ..monotonicity.classes import AdditionKind

__all__ = ["DeltaBatch", "DeltaFeed"]


@dataclass(frozen=True)
class DeltaBatch:
    """One epoch's worth of late-arriving input facts."""

    epoch: int
    facts: tuple[Fact, ...]

    def instance(self) -> Instance:
        return Instance(self.facts)


class DeltaFeed:
    """An ordered, immutable schedule of delta batches (epochs ``0..B-1``)."""

    __slots__ = ("_batches",)

    def __init__(self, batches: Iterable[Iterable[Fact]] = ()) -> None:
        packaged: list[DeltaBatch] = []
        for epoch, facts in enumerate(batches):
            facts = tuple(facts)
            for fact in facts:
                if not isinstance(fact, Fact):
                    raise TypeError(f"delta feeds contain Facts, got {fact!r}")
            packaged.append(DeltaBatch(epoch, tuple(sort_facts(set(facts)))))
        self._batches: tuple[DeltaBatch, ...] = tuple(packaged)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def batches(self) -> tuple[DeltaBatch, ...]:
        return self._batches

    def __len__(self) -> int:
        return len(self._batches)

    def __bool__(self) -> bool:
        return bool(self._batches)

    def __iter__(self):
        return iter(self._batches)

    def batch(self, epoch: int) -> tuple[Fact, ...] | None:
        """The facts of epoch *epoch*, or ``None`` past the end of the
        feed — the shape runtime injection callbacks want ("is there more
        work, and what is it")."""
        if 0 <= epoch < len(self._batches):
            return self._batches[epoch].facts
        return None

    @property
    def total_facts(self) -> int:
        return sum(len(batch.facts) for batch in self._batches)

    def prefixes(self, base: Instance) -> list[Instance]:
        """The instance prefixes ``[I_0, I_1, ..., I_B]`` where ``I_0`` is
        *base* and ``I_k`` adds the first ``k`` batches.  Prefix ``k`` is
        what a centralized evaluator would have seen had the stream stopped
        before epoch ``k`` — the oracle's reference points."""
        prefixes = [base]
        accumulated = base
        for batch in self._batches:
            accumulated = accumulated | batch.facts
            prefixes.append(accumulated)
        return prefixes

    def admissible_for(self, kind: AdditionKind, base: Instance) -> bool:
        """Whether every batch is a *kind*-admissible addition to the
        accumulated base before it (the telescoping precondition)."""
        accumulated = base
        for batch in self._batches:
            if not kind.admits(accumulated, batch.instance()):
                return False
            accumulated = accumulated | batch.facts
        return True

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def generate(
        cls,
        rng,
        base: Instance,
        schema: Schema,
        kind: AdditionKind,
        *,
        batches: int = 2,
        max_facts: int = 3,
    ) -> "DeltaFeed":
        """Draw a deterministic feed of *batches* kind-admissible batches.

        Each batch is sampled against the base accumulated so far, so
        admissibility telescopes across the whole feed.  Batches that the
        sampler leaves empty are dropped (an empty epoch exercises nothing).
        """
        from ..conformance.generator import sample_delta

        drawn: list[tuple[Fact, ...]] = []
        accumulated = base
        for _ in range(batches):
            delta = sample_delta(rng, accumulated, schema, kind, max_facts=max_facts)
            fresh = tuple(sort_facts(set(delta) - accumulated.facts))
            if not fresh:
                continue
            drawn.append(fresh)
            accumulated = accumulated | fresh
        return cls(drawn)

    @classmethod
    def from_texts(cls, texts: Sequence[str]) -> "DeltaFeed":
        """Build a feed from fact-syntax strings (one string per epoch) —
        the YAML scenario / CLI ``--stream`` format."""
        return cls([tuple(parse_facts(text)) for text in texts])

    def to_texts(self) -> list[str]:
        return [
            " ".join(f"{fact}." for fact in batch.facts) for batch in self._batches
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DeltaFeed(batches={len(self._batches)}, facts={self.total_facts})"
