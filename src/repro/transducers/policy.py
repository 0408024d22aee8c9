"""Networks, distribution policies and domain assignments (Section 4.1.1).

A *network* N is a finite nonempty set of dom-values called nodes.  A
*distribution policy* P for a schema and a network is a total function from
``facts(sigma)`` to nonempty sets of nodes; ``dist_P(I)`` maps each node to
the facts assigned to it.  A policy is *domain-guided* when it is induced by
a *domain assignment* alpha : dom -> P+(N) via
``P(R(a1..ak)) = alpha(a1) ∪ ... ∪ alpha(ak)``.

Policies must be total over the infinite fact space, so they are represented
by functions; dictionary-backed helpers cover the finitely many facts an
experiment touches with an explicit fallback for the rest.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Mapping

from ..datalog.instance import Instance
from ..datalog.schema import Schema
from ..datalog.terms import Fact

__all__ = [
    "Network",
    "DistributionPolicy",
    "DomainAssignment",
    "domain_guided_policy",
    "function_policy",
    "hash_policy",
    "everywhere_policy",
    "single_node_policy",
    "override_policy",
    "hash_domain_assignment",
    "block_domain_assignment",
    "range_policy",
    "replicated_hash_assignment",
    "single_node_assignment",
    "dict_domain_assignment",
    "distribute",
]


class Network(frozenset):
    """A nonempty finite set of node identifiers (dom-values).

    Node identifiers may occur as data inside relations (Example 4.1).
    """

    def __new__(cls, nodes: Iterable[Hashable]):
        network = super().__new__(cls, nodes)
        if not network:
            raise ValueError("a network must contain at least one node")
        return network

    def sorted_nodes(self) -> list[Hashable]:
        return sorted(self, key=lambda n: (type(n).__name__, repr(n)))

    def __repr__(self) -> str:
        inner = ", ".join(repr(n) for n in self.sorted_nodes())
        return f"Network({{{inner}}})"


class DomainAssignment:
    """A total function alpha : dom -> P+(N) (Section 4.1.1)."""

    def __init__(
        self, network: Network, assign: Callable[[Hashable], frozenset]
    ) -> None:
        self._network = network
        self._assign = assign

    @property
    def network(self) -> Network:
        return self._network

    def __call__(self, value: Hashable) -> frozenset:
        nodes = frozenset(self._assign(value))
        if not nodes:
            raise ValueError(f"domain assignment returned no node for {value!r}")
        if not nodes <= self._network:
            raise ValueError(
                f"domain assignment returned nodes outside the network for {value!r}"
            )
        return nodes


class DistributionPolicy:
    """A total function from facts over *schema* to nonempty node sets.

    ``domain_assignment`` is set when the policy is domain-guided; the
    :attr:`is_domain_guided` flag gates the domain-guided transducer model.
    """

    def __init__(
        self,
        schema: Schema,
        network: Network,
        assign: Callable[[Fact], frozenset],
        *,
        domain_assignment: DomainAssignment | None = None,
        name: str = "policy",
    ) -> None:
        self._schema = schema
        self._network = network
        self._assign = assign
        self._domain_assignment = domain_assignment
        self._name = name
        # Policies are static functions of the fact (Section 4.1.2), so the
        # assignment can be memoized; the bound keeps adversarial workloads
        # (policy materialization probes every tuple over the adom) from
        # holding the whole cross product.  Disabled together with the
        # transducer step cache so benchmark baselines reflect uncached
        # evaluation.
        from ..flags import query_cache_enabled

        self._memo: dict[Fact, frozenset] | None = (
            {} if query_cache_enabled() else None
        )

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def network(self) -> Network:
        return self._network

    @property
    def name(self) -> str:
        return self._name

    @property
    def is_domain_guided(self) -> bool:
        return self._domain_assignment is not None

    @property
    def domain_assignment(self) -> DomainAssignment | None:
        return self._domain_assignment

    _MEMO_SIZE = 65_536

    def nodes_for(self, fact: Fact) -> frozenset:
        """P(f): the nonempty set of nodes the fact is assigned to."""
        memo = self._memo
        if memo is not None:
            nodes = memo.get(fact)
            if nodes is not None:
                return nodes
        if not self._schema.contains_fact(fact):
            raise ValueError(f"fact {fact!r} is not over the policy schema")
        nodes = frozenset(self._assign(fact))
        if not nodes:
            raise ValueError(f"policy assigned no node to {fact!r}")
        if not nodes <= self._network:
            raise ValueError(f"policy assigned {fact!r} outside the network")
        if memo is not None:
            if len(memo) >= self._MEMO_SIZE:
                del memo[next(iter(memo))]
            memo[fact] = nodes
        return nodes

    def assigns(self, fact: Fact, node: Hashable) -> bool:
        """True when *node* ∈ P(*fact*)."""
        return node in self.nodes_for(fact)

    def distribute(self, instance: Instance) -> dict[Hashable, Instance]:
        """``dist_P(I)``: node -> its local fragment of *instance*."""
        fragments: dict[Hashable, set[Fact]] = {node: set() for node in self._network}
        for fact in instance:
            for node in self.nodes_for(fact):
                fragments[node].add(fact)
        return {node: Instance(facts) for node, facts in fragments.items()}

    def __repr__(self) -> str:
        kind = "domain-guided " if self.is_domain_guided else ""
        return f"<{kind}policy {self._name} on {self._network!r}>"


def distribute(policy: DistributionPolicy, instance: Instance) -> dict[Hashable, Instance]:
    """Module-level alias for :meth:`DistributionPolicy.distribute`."""
    return policy.distribute(instance)


# ----------------------------------------------------------------------
# Policy constructors
# ----------------------------------------------------------------------


def function_policy(
    schema: Schema,
    network: Network,
    assign: Callable[[Fact], Iterable[Hashable]],
    *,
    name: str = "custom",
) -> DistributionPolicy:
    """Wrap an arbitrary total assignment function as a policy."""
    return DistributionPolicy(
        schema, network, lambda fact: frozenset(assign(fact)), name=name
    )


def hash_policy(
    schema: Schema, network: Network, *, position: int = 0, name: str = "hash"
) -> DistributionPolicy:
    """Partition facts by hashing the value at *position* (Example 4.1's P1
    generalized: deterministic, non-replicating, not domain-guided)."""
    nodes = network.sorted_nodes()

    def assign(fact: Fact) -> frozenset:
        if fact.arity == 0:
            # Nullary facts carry no value to hash; key on the relation name.
            return frozenset({nodes[_stable_hash(fact.relation) % len(nodes)]})
        index = position if position < fact.arity else 0
        value = fact.values[index]
        return frozenset({nodes[_stable_hash(value) % len(nodes)]})

    return DistributionPolicy(schema, network, assign, name=name)


def everywhere_policy(schema: Schema, network: Network) -> DistributionPolicy:
    """Assign every fact to every node (full replication).

    Domain-guided: induced by alpha(v) = N for all v.
    """
    assignment = DomainAssignment(network, lambda value: frozenset(network))
    return DistributionPolicy(
        schema,
        network,
        lambda fact: frozenset(network),
        domain_assignment=assignment,
        name="everywhere",
    )


def single_node_policy(
    schema: Schema, network: Network, node: Hashable
) -> DistributionPolicy:
    """Assign every fact to one designated node — the 'ideal' distribution
    used by the coordination-freeness arguments.

    Domain-guided (alpha(v) = {node}).
    """
    if node not in network:
        raise ValueError(f"{node!r} is not a node of the network")
    target = frozenset({node})
    assignment = DomainAssignment(network, lambda value: target)
    return DistributionPolicy(
        schema,
        network,
        lambda fact: target,
        domain_assignment=assignment,
        name=f"all-to-{node!r}",
    )


def override_policy(
    base: DistributionPolicy,
    overrides: Mapping[Fact, Iterable[Hashable]],
    *,
    name: str | None = None,
) -> DistributionPolicy:
    """The policy used in the F1 ⊆ Mdistinct proof: P2(g) = override for the
    finitely many facts in *overrides*, else the base policy.

    The result is generally *not* domain-guided even when the base is.
    """
    frozen = {fact: frozenset(nodes) for fact, nodes in overrides.items()}

    def assign(fact: Fact) -> frozenset:
        if fact in frozen:
            return frozen[fact]
        return base.nodes_for(fact)

    return DistributionPolicy(
        base.schema, base.network, assign, name=name or f"{base.name}+overrides"
    )


# ----------------------------------------------------------------------
# Domain assignments and domain-guided policies
# ----------------------------------------------------------------------


def domain_guided_policy(
    schema: Schema,
    network: Network,
    assignment: DomainAssignment | Callable[[Hashable], Iterable[Hashable]],
    *,
    name: str = "domain-guided",
) -> DistributionPolicy:
    """The policy induced by a domain assignment: P(R(a1..ak)) = ∪ alpha(ai)."""
    if not isinstance(assignment, DomainAssignment):
        raw = assignment
        assignment = DomainAssignment(network, lambda v: frozenset(raw(v)))

    def assign(fact: Fact) -> frozenset:
        if not fact.values:
            # Section 7: in a domain-guided policy, nullary facts are
            # always assigned to all computing nodes.
            return frozenset(network)
        nodes: frozenset = frozenset()
        for value in fact.values:
            nodes |= assignment(value)
        return nodes

    return DistributionPolicy(
        schema, network, assign, domain_assignment=assignment, name=name
    )


def hash_domain_assignment(network: Network) -> DomainAssignment:
    """alpha hashing each value to one node (Example 4.1's P2 generalized)."""
    nodes = network.sorted_nodes()
    return DomainAssignment(
        network,
        lambda value: frozenset({nodes[_stable_hash(value) % len(nodes)]}),
    )


def block_domain_assignment(network: Network, block: int) -> DomainAssignment:
    """alpha mapping integer values to nodes by contiguous *block*:
    ``value // block`` picks the bucket, round-robin over the sorted nodes.

    This is the co-locating assignment for partitionable workloads: encode
    each shard's values inside one block (e.g. ``shard * block + local``)
    and every fact of a shard lands on exactly one node, so the induced
    domain-guided policy shards the database horizontally with no
    cross-node value sharing.  Non-integer values fall back to the stable
    hash so the assignment stays total.
    """
    if block < 1:
        raise ValueError("block must be >= 1")
    nodes = network.sorted_nodes()

    def assign(value: Hashable) -> frozenset:
        if isinstance(value, bool) or not isinstance(value, int):
            return frozenset({nodes[_stable_hash(value) % len(nodes)]})
        return frozenset({nodes[(value // block) % len(nodes)]})

    return DomainAssignment(network, assign)


def single_node_assignment(network: Network, node: Hashable) -> DomainAssignment:
    """alpha sending every value to one node."""
    if node not in network:
        raise ValueError(f"{node!r} is not a node of the network")
    target = frozenset({node})
    return DomainAssignment(network, lambda value: target)


def dict_domain_assignment(
    network: Network,
    mapping: Mapping[Hashable, Iterable[Hashable]],
    default: Hashable | None = None,
) -> DomainAssignment:
    """alpha from an explicit table, with a default node for unseen values
    (totality requires one; defaults to the smallest node)."""
    fallback = frozenset({default if default is not None else network.sorted_nodes()[0]})
    table = {value: frozenset(nodes) for value, nodes in mapping.items()}
    return DomainAssignment(network, lambda value: table.get(value, fallback))


def range_policy(
    schema: Schema,
    network: Network,
    boundaries: "list",
    *,
    position: int = 0,
    name: str = "range",
) -> DistributionPolicy:
    """Range partitioning on the value at *position*: node i receives the
    facts whose key falls below ``boundaries[i]`` (last node takes the
    rest).  Keys must be comparable with the boundaries; non-comparable
    keys fall through to the last node.  Deterministic, non-replicating,
    not domain-guided — the shape of a classic sharded table.
    """
    nodes = network.sorted_nodes()
    if len(boundaries) != len(nodes) - 1:
        raise ValueError(
            f"need {len(nodes) - 1} boundaries for {len(nodes)} nodes"
        )

    def assign(fact: Fact) -> frozenset:
        if fact.arity == 0:
            return frozenset({nodes[-1]})
        index = position if position < fact.arity else 0
        key = fact.values[index]
        for node, boundary in zip(nodes, boundaries):
            try:
                if key < boundary:
                    return frozenset({node})
            except TypeError:
                break  # incomparable key: fall through to the last node
        return frozenset({nodes[-1]})

    return DistributionPolicy(schema, network, assign, name=name)


def replicated_hash_assignment(network: Network, replication: int) -> DomainAssignment:
    """alpha sending each value to *replication* consecutive nodes (in the
    sorted node order) starting at its hash bucket — domain-guided
    replication, the fault-tolerant flavour of :func:`hash_domain_assignment`."""
    nodes = network.sorted_nodes()
    if not 1 <= replication <= len(nodes):
        raise ValueError("replication must be between 1 and the network size")

    def assign(value: Hashable) -> frozenset:
        first = _stable_hash(value) % len(nodes)
        return frozenset(nodes[(first + offset) % len(nodes)] for offset in range(replication))

    return DomainAssignment(network, assign)


def _stable_hash(value: Hashable) -> int:
    """A process-independent hash so seeded experiments are reproducible
    (Python's built-in hash of str is salted per process)."""
    text = f"{type(value).__name__}:{value!r}"
    acc = 2166136261
    for char in text:
        acc = (acc ^ ord(char)) * 16777619 % (1 << 32)
    return acc
