"""repro.cluster: the asynchronous distributed runtime.

Runs a :class:`~repro.transducers.runtime.TransducerNetwork` as concurrent
asyncio tasks — one per node, each with a bounded mailbox — talking only
through a versioned wire codec over pluggable transports, with quiescence
detected decentrally by Safra's token-ring algorithm.  See
``docs/CLUSTER.md`` for the architecture and the termination argument.
"""

from .checkpoint import (
    CheckpointError,
    CheckpointStore,
    DiskCheckpointStore,
    MemoryCheckpointStore,
    NodeJournal,
    NodeSnapshot,
    make_checkpoint_store,
)
from .codec import (
    CODEC_VERSION,
    CodecError,
    Envelope,
    TokenState,
    decode_envelope,
    decode_fact,
    decode_value,
    encode_envelope,
    encode_fact,
    encode_value,
)
from .faults import CRASH_PLAN, FaultLayer, FaultyEndpoint, NodeCrashed
from .gate import check_process_workload, check_workload, gate_workloads
from .procs import (
    SCALING_BLOCK,
    ClusterShutdown,
    ProcessCluster,
    scaling_workload,
    scaling_workload_by_key,
)
from .runtime import ClusterNode, ClusterRun
from .telemetry import build_cluster_report
from .transport import (
    TRANSPORT_NAMES,
    Endpoint,
    InMemoryTransport,
    Mailbox,
    TcpTransport,
    Transport,
    TransportError,
    make_transport,
)

__all__ = [
    "CODEC_VERSION",
    "CodecError",
    "Envelope",
    "TokenState",
    "encode_fact",
    "decode_fact",
    "encode_envelope",
    "decode_envelope",
    "encode_value",
    "decode_value",
    "CheckpointError",
    "CheckpointStore",
    "MemoryCheckpointStore",
    "DiskCheckpointStore",
    "NodeJournal",
    "NodeSnapshot",
    "make_checkpoint_store",
    "CRASH_PLAN",
    "FaultLayer",
    "FaultyEndpoint",
    "NodeCrashed",
    "ClusterNode",
    "ClusterRun",
    "ClusterShutdown",
    "ProcessCluster",
    "SCALING_BLOCK",
    "scaling_workload",
    "scaling_workload_by_key",
    "check_process_workload",
    "check_workload",
    "gate_workloads",
    "build_cluster_report",
    "Endpoint",
    "Mailbox",
    "Transport",
    "InMemoryTransport",
    "TcpTransport",
    "TransportError",
    "TRANSPORT_NAMES",
    "make_transport",
]
