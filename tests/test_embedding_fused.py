"""Tests for the fused multi-table embedding collection."""

import inspect

import numpy as np
import pytest

from repro.embedding import (EmbeddingTable, EmbeddingTableConfig,
                             FusedEmbeddingCollection, SparseSGD,
                             SparseAdaGrad, lengths_to_offsets)


def make_collection(num_tables=3, h=10, d=4, seed=0):
    configs = [EmbeddingTableConfig(f"t{i}", h, d) for i in range(num_tables)]
    return FusedEmbeddingCollection.from_configs(
        configs, rng=np.random.default_rng(seed))


def make_batch(collection, batch_size=2, per_bag=3, seed=0):
    rng = np.random.default_rng(seed)
    batch = {}
    for t in collection.tables:
        lengths = np.full(batch_size, per_bag, dtype=np.int64)
        indices = rng.integers(0, t.config.num_embeddings,
                               size=batch_size * per_bag).astype(np.int64)
        batch[t.name] = (indices, lengths_to_offsets(lengths))
    return batch


class TestConstruction:
    def test_empty_raises(self):
        with pytest.raises(ValueError):
            FusedEmbeddingCollection([])

    def test_duplicate_names_raise(self):
        cfg = EmbeddingTableConfig("same", 4, 4)
        tables = [EmbeddingTable(cfg), EmbeddingTable(cfg)]
        with pytest.raises(ValueError):
            FusedEmbeddingCollection(tables)

    def test_num_parameters(self):
        coll = make_collection(num_tables=3, h=10, d=4)
        assert coll.num_parameters() == 3 * 10 * 4

    @pytest.mark.parametrize("ctor", [
        FusedEmbeddingCollection, FusedEmbeddingCollection.from_configs])
    def test_no_execution_mode_knob(self, ctor):
        """The arena is the only execution path; the per-table loop is
        a test oracle, not a constructor option."""
        assert "fusion" not in inspect.signature(ctor).parameters

    def test_memory_bytes(self):
        coll = make_collection(num_tables=2, h=10, d=4)
        assert coll.memory_bytes() == 2 * 10 * 4 * 4
        assert coll.memory_bytes("fp16") == 2 * 10 * 4 * 2


class TestForward:
    def test_matches_individual_tables(self):
        coll = make_collection()
        batch = make_batch(coll)
        out = coll.forward(batch)
        for t in coll.tables:
            solo = EmbeddingTable(t.config, weight=t.weight)
            indices, offsets = batch[t.name]
            np.testing.assert_array_equal(out[t.name],
                                          solo.forward(indices, offsets))

    def test_missing_table_raises(self):
        coll = make_collection()
        batch = make_batch(coll)
        del batch["t0"]
        with pytest.raises(KeyError):
            coll.forward(batch)

    def test_single_kernel_launch_per_call(self):
        """The fusion claim: T tables, one launch (vs T unfused)."""
        coll = make_collection(num_tables=5)
        batch = make_batch(coll)
        assert coll.kernel_launches == 0
        coll.forward(batch)
        assert coll.kernel_launches == 1
        coll.backward({n: np.ones((2, 4), dtype=np.float32)
                       for n in coll.names})
        assert coll.kernel_launches == 2


class TestBackwardAndUpdate:
    def test_fused_equals_unfused(self):
        """backward_and_update == backward + apply_optimizer."""
        c1 = make_collection(seed=1)
        c2 = make_collection(seed=1)
        batch = make_batch(c1, seed=2)
        dy = {n: np.random.default_rng(3).normal(size=(2, 4)).astype(np.float32)
              for n in c1.names}

        c1.forward(batch)
        c1.backward_and_update(dy, SparseAdaGrad(lr=0.1))

        c2.forward(batch)
        c2.backward(dy)
        c2.apply_optimizer(SparseAdaGrad(lr=0.1))

        for n in c1.names:
            np.testing.assert_array_equal(c1.table(n).weight,
                                          c2.table(n).weight)

    def test_apply_without_backward_raises(self):
        coll = make_collection()
        with pytest.raises(RuntimeError):
            coll.apply_optimizer(SparseSGD(lr=0.1))

    def test_update_changes_only_touched_rows(self):
        coll = make_collection(h=20)
        batch = {n: (np.array([3], dtype=np.int64),
                     np.array([0, 1], dtype=np.int64)) for n in coll.names}
        before = {n: coll.table(n).weight.copy() for n in coll.names}
        coll.forward(batch)
        coll.backward_and_update(
            {n: np.ones((1, 4), dtype=np.float32) for n in coll.names},
            SparseSGD(lr=0.1))
        for n in coll.names:
            w = coll.table(n).weight
            assert not np.allclose(w[3], before[n][3])
            mask = np.ones(20, dtype=bool)
            mask[3] = False
            np.testing.assert_array_equal(w[mask], before[n][mask])

    def test_pending_grads_cleared(self):
        coll = make_collection()
        batch = make_batch(coll)
        coll.forward(batch)
        coll.backward({n: np.ones((2, 4), dtype=np.float32)
                       for n in coll.names})
        coll.apply_optimizer(SparseSGD(lr=0.1))
        with pytest.raises(RuntimeError):
            coll.apply_optimizer(SparseSGD(lr=0.1))
