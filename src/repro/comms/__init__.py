"""Communication layer: exact simulated collectives, wire quantization,
cluster topology and the alpha-beta latency model (paper Sections 4.5, 5.1).

The v2 process-group surface is re-exported here: typed AlltoAll dispatch
(:class:`AlltoAllKind`), accounting-carrying returns
(:class:`CollectiveResult`) and the snake-case latency-model names
(``perf_model.all_to_all_time`` et al.). The pre-v2 string
``direction=`` dispatch was removed after its deprecation window. See
``docs/observability.md`` for the deprecation timeline.
"""

from . import collectives, param_bench, perf_model
from .bucketing import Bucket, GradientBucketer
from .process_group import (AlltoAllKind, CollectiveResult, CommsLog,
                            SimProcessGroup)
from .quantization import CODECS, QuantizedCommsConfig, get_codec, wire_bytes
from .topology import PROTOTYPE_TOPOLOGY, ZION_TOPOLOGY, ClusterTopology

__all__ = [
    "collectives",
    "perf_model",
    "param_bench",
    "AlltoAllKind",
    "CollectiveResult",
    "SimProcessGroup",
    "CommsLog",
    "GradientBucketer",
    "Bucket",
    "QuantizedCommsConfig",
    "CODECS",
    "get_codec",
    "wire_bytes",
    "ClusterTopology",
    "PROTOTYPE_TOPOLOGY",
    "ZION_TOPOLOGY",
]
