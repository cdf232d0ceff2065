"""Alpha-beta latency model for collectives on the ZionEX-style fabric.

The correctness path (:mod:`repro.comms.collectives`) moves real data; this
module predicts how long those collectives take on the modelled cluster,
using the standard alpha (per-message latency) + beta (per-byte) model with
a two-level (NVLink within node, RoCE across nodes) hierarchy.

Calibration targets from the paper (Section 5.1 / Appendix A, 128 GPUs):

* AlltoAll of 256 MB per GPU achieves ~7 GB/s — bounded by the scale-out
  NIC (12.5 GB/s line rate, 10.5 GB/s achievable) and all-to-all incast.
* AllReduce of 256 MB achieves ~60 GB/s bus bandwidth — higher because the
  hierarchical algorithm rides NVLink for the intra-node phases.

Naming (v2): every entry point is named after the collective it models,
with the same word boundaries as :mod:`repro.comms.collectives` —
``all_to_all_time`` pairs with ``collectives.all_to_all`` and so on.
"""

from __future__ import annotations

from .topology import ClusterTopology

__all__ = ["all_to_all_time", "all_reduce_time", "reduce_scatter_time",
           "all_gather_time", "broadcast_time", "flat_reduce_scatter_time",
           "achieved_all_to_all_bw", "achieved_all_reduce_bw",
           "ALLTOALL_INCAST_EFFICIENCY"]

# fraction of achievable NIC bandwidth an all-to-all traffic pattern
# sustains (incast/congestion); calibrated to the paper's 7 GB/s at 256 MB
ALLTOALL_INCAST_EFFICIENCY = 0.67


def all_to_all_time(bytes_per_gpu: float, topo: ClusterTopology) -> float:
    """Time for an AlltoAll where each GPU exchanges ``bytes_per_gpu``.

    Each GPU sends ``(W-1)/W`` of its buffer away; the off-node fraction
    ``(W-G)/W`` crosses the NIC, the on-node fraction rides NVLink. The two
    phases overlap, so the slower one dominates; per-peer message setup
    adds the alpha term.
    """
    if bytes_per_gpu < 0:
        raise ValueError("bytes_per_gpu must be non-negative")
    w = topo.world_size
    g = topo.gpus_per_node
    if w == 1:
        return 0.0
    off_node_frac = (w - g) / w if w > g else 0.0
    on_node_frac = (min(g, w) - 1) / w
    t_net = 0.0
    if off_node_frac > 0:
        net_bw = topo.achievable_scaleout_bw * ALLTOALL_INCAST_EFFICIENCY
        t_net = bytes_per_gpu * off_node_frac / net_bw
    t_nvlink = bytes_per_gpu * on_node_frac / topo.scaleup_bw
    alpha = (w - 1) * (topo.scaleout_latency if w > g
                       else topo.scaleup_latency)
    return max(t_net, t_nvlink) + alpha


def all_reduce_time(bytes_per_gpu: float, topo: ClusterTopology) -> float:
    """Hierarchical ring AllReduce: intra-node reduce-scatter (NVLink),
    inter-node ring AllReduce on 1/G of the buffer (RoCE), intra-node
    all-gather (NVLink)."""
    if bytes_per_gpu < 0:
        raise ValueError("bytes_per_gpu must be non-negative")
    g = min(topo.gpus_per_node, topo.world_size)
    n = topo.num_nodes
    if topo.world_size == 1:
        return 0.0
    t_intra = 2 * bytes_per_gpu * (g - 1) / g / topo.scaleup_bw
    t_inter = 0.0
    if n > 1:
        chunk = bytes_per_gpu / g
        t_inter = 2 * chunk * (n - 1) / n / topo.achievable_scaleout_bw
    alpha = 2 * (g - 1) * topo.scaleup_latency \
        + 2 * (n - 1) * topo.scaleout_latency
    return t_intra + t_inter + alpha


def reduce_scatter_time(bytes_per_gpu: float, topo: ClusterTopology) -> float:
    """Hierarchical ReduceScatter — half of the AllReduce data movement."""
    if bytes_per_gpu < 0:
        raise ValueError("bytes_per_gpu must be non-negative")
    g = min(topo.gpus_per_node, topo.world_size)
    n = topo.num_nodes
    if topo.world_size == 1:
        return 0.0
    t_intra = bytes_per_gpu * (g - 1) / g / topo.scaleup_bw
    t_inter = 0.0
    if n > 1:
        chunk = bytes_per_gpu / g
        t_inter = chunk * (n - 1) / n / topo.achievable_scaleout_bw
    alpha = (g - 1) * topo.scaleup_latency + (n - 1) * topo.scaleout_latency
    return t_intra + t_inter + alpha


def all_gather_time(bytes_per_gpu: float, topo: ClusterTopology) -> float:
    """AllGather mirrors ReduceScatter's movement pattern."""
    return reduce_scatter_time(bytes_per_gpu, topo)


def broadcast_time(payload_bytes: float, topo: ClusterTopology) -> float:
    """Two-level pipelined broadcast of ``payload_bytes`` from the root.

    The root's node leader forwards the full buffer around the inter-node
    ring (pipelined, so ``(N-1)/N`` of the buffer is exposed), then each
    node fans out over NVLink. Unlike AllGather — whose inter-node phase
    only moves the per-GPU chunk — the *whole* payload crosses the
    scale-out fabric, which is why broadcast deserved its own entry
    rather than riding ``all_gather_time``.
    """
    if payload_bytes < 0:
        raise ValueError("payload_bytes must be non-negative")
    w = topo.world_size
    if w == 1:
        return 0.0
    g = min(topo.gpus_per_node, w)
    n = topo.num_nodes
    t_inter = 0.0
    if n > 1:
        t_inter = payload_bytes * (n - 1) / n / topo.achievable_scaleout_bw
    t_intra = payload_bytes * (g - 1) / g / topo.scaleup_bw
    alpha = (g - 1) * topo.scaleup_latency + (n - 1) * topo.scaleout_latency
    return t_inter + t_intra + alpha


def flat_reduce_scatter_time(bytes_per_gpu: float,
                             topo: ClusterTopology) -> float:
    """Single-level ring ReduceScatter over the scale-out fabric only.

    This is what a ReduceScatter costs when shard placement cannot
    exploit NVLink locality (row shards scattered arbitrarily across
    nodes) — the comparator for the hierarchical TWRW scheme, whose
    whole point (Section 4.2.5) is keeping the reduction on NVLink.
    """
    if bytes_per_gpu < 0:
        raise ValueError("bytes_per_gpu must be non-negative")
    w = topo.world_size
    if w == 1:
        return 0.0
    t_ring = bytes_per_gpu * (w - 1) / w / topo.achievable_scaleout_bw
    return t_ring + (w - 1) * topo.scaleout_latency


def achieved_all_to_all_bw(bytes_per_gpu: float,
                           topo: ClusterTopology) -> float:
    """NCCL-tests-style achieved bandwidth: buffer size / time."""
    t = all_to_all_time(bytes_per_gpu, topo)
    return bytes_per_gpu / t if t > 0 else float("inf")


def achieved_all_reduce_bw(bytes_per_gpu: float,
                           topo: ClusterTopology) -> float:
    """Bus bandwidth: ``2 (W-1)/W * size / time`` (NCCL convention)."""
    w = topo.world_size
    t = all_reduce_time(bytes_per_gpu, topo)
    if t <= 0:
        return float("inf")
    return 2 * (w - 1) / w * bytes_per_gpu / t

