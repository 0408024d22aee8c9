"""The query abstraction: generic mappings between instances (Section 2).

A query in the paper is a *generic* mapping Q from instances over an input
schema to instances over an output schema: for every permutation pi of dom,
``Q(pi(I)) = pi(Q(I))``.  Genericity is not decidable for black-box callables
so :func:`check_genericity` verifies it on concrete inputs by random domain
permutations; the query classes in this package are generic by construction.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Callable, Hashable, Iterable

from ..datalog.instance import Instance
from ..datalog.program import Program
from ..datalog.schema import Schema
from ..datalog.stratified import StratifiedEvaluator
from ..datalog.wellfounded import WellFoundedEvaluator

__all__ = [
    "Query",
    "FunctionQuery",
    "DatalogQuery",
    "WellFoundedQuery",
    "check_genericity",
]


class Query(ABC):
    """A query from an input schema to an output schema.

    Subclasses implement :meth:`evaluate`, which must return an instance
    over the output schema; calling the query object applies it to an
    instance (which is first restricted to the input schema, so stray facts
    cannot leak into the computation).
    """

    def __init__(self, name: str, input_schema: Schema, output_schema: Schema) -> None:
        self._name = name
        self._input_schema = input_schema
        self._output_schema = output_schema

    @property
    def name(self) -> str:
        return self._name

    @property
    def input_schema(self) -> Schema:
        return self._input_schema

    @property
    def output_schema(self) -> Schema:
        return self._output_schema

    @abstractmethod
    def evaluate(self, instance: Instance) -> Instance:
        """Compute the query on an instance over the input schema."""

    def __call__(self, instance: Instance | Iterable) -> Instance:
        instance = Instance(instance)
        return self.evaluate(instance.restrict(self._input_schema))

    def __repr__(self) -> str:
        return f"<Query {self._name}: {self._input_schema!r} -> {self._output_schema!r}>"


class FunctionQuery(Query):
    """A query backed by a plain Python function ``Instance -> Instance``.

    The function must be generic; :func:`check_genericity` can spot-check.
    Its result is projected to the output schema, so stray relations never
    leak out of an arbitrary callable (the program-backed queries project
    inside their evaluators instead — one projection per call either way).
    """

    def __init__(
        self,
        name: str,
        input_schema: Schema,
        output_schema: Schema,
        function: Callable[[Instance], Instance],
    ) -> None:
        super().__init__(name, input_schema, output_schema)
        self._function = function

    def evaluate(self, instance: Instance) -> Instance:
        return Instance(self._function(instance)).restrict(self._output_schema)


class DatalogQuery(Query):
    """The query computed by a stratified Datalog¬ program.

    ``Q(I) = P(I)|_{sigma_out}`` per Section 2.  The input schema defaults
    to ``edb(P)`` (minus the auto-generated ``Adom`` inputs when the Adom
    convention was materialized).
    """

    def __init__(
        self,
        program: Program,
        name: str | None = None,
        input_schema: Schema | None = None,
    ) -> None:
        if input_schema is None:
            input_schema = program.edb()
        super().__init__(
            name or f"datalog[{','.join(sorted(program.output_relations))}]",
            input_schema,
            program.output_schema(),
        )
        self._program = program
        self._evaluator = StratifiedEvaluator(program)

    @property
    def program(self) -> Program:
        return self._program

    def evaluate(self, instance: Instance) -> Instance:
        return self._evaluator.output(instance)


class WellFoundedQuery(Query):
    """The query computed by a Datalog¬ program under well-founded semantics.

    The output consists of the *true* facts of the output relations (drawn /
    undefined facts are not output) — the reading under which win-move is a
    well-defined query [32].
    """

    def __init__(
        self,
        program: Program,
        name: str | None = None,
        input_schema: Schema | None = None,
    ) -> None:
        if input_schema is None:
            input_schema = program.edb()
        super().__init__(
            name or f"wfs[{','.join(sorted(program.output_relations))}]",
            input_schema,
            program.output_schema(),
        )
        self._program = program
        self._evaluator = WellFoundedEvaluator(program)

    @property
    def program(self) -> Program:
        return self._program

    def evaluate(self, instance: Instance) -> Instance:
        return self._evaluator.output(instance)


def check_genericity(
    query: Query,
    instance: Instance,
    *,
    trials: int = 5,
    seed: int = 0,
) -> bool:
    """Spot-check genericity: Q(pi(I)) == pi(Q(I)) for random permutations pi.

    Permutations move the active domain of *instance* (plus the output's
    active domain) to fresh values, which is the discriminating case.
    """
    rng = random.Random(seed)
    baseline = query(instance)
    domain: list[Hashable] = sorted(
        instance.adom() | baseline.adom(), key=lambda v: (type(v).__name__, repr(v))
    )
    if not domain:
        return True
    for trial in range(trials):
        fresh = [f"g{trial}_{i}" for i in range(len(domain))]
        rng.shuffle(fresh)
        mapping = dict(zip(domain, fresh))
        permuted_input = instance.rename(mapping)
        if query(permuted_input) != baseline.rename(mapping):
            return False
    return True
