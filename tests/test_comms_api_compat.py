"""API-stability tests for the comms v2 surface.

The removed pre-v2 forms (string AlltoAll dispatch) must raise. Plus
golden wire-byte values proving the nbytes billing fix: fp16 payloads
are billed at 2 bytes/element, never a hard-coded 4.
"""

import numpy as np
import pytest

from repro.comms import (AlltoAllKind, ClusterTopology, CollectiveResult,
                         SimProcessGroup, perf_model)

WORLD = 4
TOPO = ClusterTopology(num_nodes=1, gpus_per_node=WORLD)


def _alltoall_payload(dtype=np.float32):
    return [[np.full(3, r * WORLD + c, dtype=dtype) for c in range(WORLD)]
            for r in range(WORLD)]


class TestRemovedAlltoAllForms:
    """The pre-v2 string dispatch was removed after its deprecation
    window: ``direction=`` is no longer a parameter and string kinds
    raise instead of warning."""

    def test_direction_keyword_removed(self):
        pg = SimProcessGroup(TOPO)
        with pytest.raises(TypeError):
            pg.all_to_all(_alltoall_payload(),
                          direction="forward_alltoall")

    def test_string_kind_removed(self):
        pg = SimProcessGroup(TOPO)
        with pytest.raises(ValueError, match="removed after its"):
            pg.all_to_all(_alltoall_payload(), "backward_alltoall")

    def test_every_enum_kind_still_dispatches(self):
        for kind in AlltoAllKind:
            pg = SimProcessGroup(TOPO)
            payload = _alltoall_payload(
                np.int64 if kind is AlltoAllKind.INDEX else np.float32)
            result = pg.all_to_all(payload, kind=kind)
            assert result.collective == f"all_to_all/{kind.value}"

    def test_unknown_string_rejected(self):
        pg = SimProcessGroup(TOPO)
        with pytest.raises(ValueError):
            pg.all_to_all(_alltoall_payload(), "sideways")


class TestGoldenFp16WireBytes:
    """nbytes billing: fp16 payloads cost exactly half of fp32 — the
    hard-coded 4-bytes/element bug these collectives used to have."""

    def test_reduce_scatter_fp16(self):
        pg = SimProcessGroup(TOPO)
        inputs = [[np.ones(3, dtype=np.float16) for _ in range(WORLD)]
                  for _ in range(WORLD)]
        result = pg.reduce_scatter(inputs)
        # per-GPU contribution: 4 chunks x 3 elements x 2 bytes = 24
        assert result.wire_bytes == 24 * WORLD
        assert pg.log.wire_bytes["reduce_scatter"] == 96
        assert result.modeled_seconds == pytest.approx(
            perf_model.reduce_scatter_time(24, TOPO))

    def test_all_gather_fp16(self):
        pg = SimProcessGroup(TOPO)
        result = pg.all_gather([np.ones(5, dtype=np.float16)
                                for _ in range(WORLD)])
        assert result.wire_bytes == 5 * 2 * WORLD
        assert result.modeled_seconds == pytest.approx(
            perf_model.all_gather_time(10, TOPO))

    def test_broadcast_fp16(self):
        pg = SimProcessGroup(TOPO)
        result = pg.broadcast([np.ones(7, dtype=np.float16)
                               for _ in range(WORLD)], root=0)
        assert result.wire_bytes == 7 * 2 * WORLD
        np.testing.assert_array_equal(result[3],
                                      np.ones(7, dtype=np.float16))

    def test_fp32_costs_double_fp16(self):
        for dtype, factor in ((np.float16, 1), (np.float32, 2)):
            pg = SimProcessGroup(TOPO)
            pg.all_gather([np.ones(8, dtype=dtype) for _ in range(WORLD)])
            assert pg.log.wire_bytes["all_gather"] == 8 * 2 * factor * WORLD


class TestBroadcastPerfModel:
    """Broadcast has its own perf-model entry — no longer billed as an
    AllGather."""

    def test_broadcast_time_differs_from_all_gather_time(self):
        topo = ClusterTopology(num_nodes=4, gpus_per_node=8)
        payload = 2 ** 24
        bcast = perf_model.broadcast_time(payload, topo)
        agather = perf_model.all_gather_time(payload, topo)
        assert bcast > 0
        # broadcast ships the full payload across the scale-out ring;
        # all_gather only moves per-GPU chunks between nodes
        assert bcast != agather

    def test_single_gpu_broadcast_is_free(self):
        topo = ClusterTopology(num_nodes=1, gpus_per_node=1)
        assert perf_model.broadcast_time(2 ** 20, topo) == 0.0

    def test_process_group_uses_broadcast_time(self):
        pg = SimProcessGroup(TOPO)
        payload = np.ones(1024, dtype=np.float32)
        pg.broadcast([payload.copy() for _ in range(WORLD)], root=1)
        assert pg.log.modeled_seconds["broadcast"] == pytest.approx(
            perf_model.broadcast_time(payload.nbytes, TOPO))


class TestCollectiveResult:
    def test_fields_and_sequence_protocol(self):
        pg = SimProcessGroup(TOPO)
        result = pg.all_reduce([np.full(4, float(r), dtype=np.float32)
                                for r in range(WORLD)])
        assert isinstance(result, CollectiveResult)
        assert result.collective == "all_reduce"
        assert isinstance(result.wire_bytes, int)
        assert result.wire_bytes == 4 * 4 * WORLD
        assert result.modeled_seconds > 0
        # sequence shim: len / index / iterate like the old list return
        assert len(result) == WORLD
        expected = np.full(4, sum(range(WORLD)), dtype=np.float32)
        np.testing.assert_array_equal(result[0], expected)
        for out in result:
            np.testing.assert_array_equal(out, expected)
        assert list(result) == result.outputs

    def test_all_collectives_return_collective_result(self):
        pg = SimProcessGroup(TOPO)
        ones = [np.ones(4, dtype=np.float32) for _ in range(WORLD)]
        nested = [[np.ones(2, dtype=np.float32) for _ in range(WORLD)]
                  for _ in range(WORLD)]
        for result in (pg.all_reduce(ones),
                       pg.all_to_all(nested, kind=AlltoAllKind.FORWARD),
                       pg.reduce_scatter(nested),
                       pg.all_gather(ones),
                       pg.broadcast(ones, root=0)):
            assert isinstance(result, CollectiveResult)


class TestExplicitExports:
    def test_comms_all_is_importable(self):
        import repro.comms as comms
        for name in comms.__all__:
            assert hasattr(comms, name), name
        for name in ("AlltoAllKind", "CollectiveResult", "SimProcessGroup",
                     "CommsLog"):
            assert name in comms.__all__

    def test_process_group_module_all(self):
        from repro.comms import process_group
        assert set(process_group.__all__) == {
            "AlltoAllKind", "CollectiveResult", "CommsLog",
            "SimProcessGroup"}
