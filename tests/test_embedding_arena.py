"""Parity tests for the fused embedding arena (repro.embedding.arena).

The contract under test: the arena's single-dispatch fused kernels are
*bitwise* identical to the per-table segment-sum loop
(``tests/oracles/per_table.py``) for forward, backward and fused
backward+optimizer — and numerically equal (up to summation-order
rounding) to the seed's ``np.add.at`` reference implementation.
"""

import numpy as np
import pytest

from repro.embedding import (EmbeddingArena, EmbeddingTable,
                             EmbeddingTableConfig, FusedEmbeddingCollection,
                             RowWiseAdaGrad, SparseSGD, lengths_to_offsets)

from .oracles.per_table import PerTableEmbeddings


def make_tables(configs, seed=0):
    rng = np.random.default_rng(seed)
    return [EmbeddingTable(c, rng=rng) for c in configs]


def clone_tables(tables):
    return [EmbeddingTable(t.config, weight=t.weight.copy()) for t in tables]


def random_batch(configs, batch_size, rng, max_len=6, empty_prob=0.2):
    batch = {}
    for c in configs:
        lengths = rng.integers(0, max_len + 1, size=batch_size)
        lengths[rng.random(batch_size) < empty_prob] = 0
        offsets = lengths_to_offsets(lengths)
        indices = rng.integers(0, c.num_embeddings,
                               size=int(offsets[-1])).astype(np.int64)
        batch[c.name] = (indices, offsets)
    return batch


MIXED_CONFIGS = [
    EmbeddingTableConfig("sum_a", 50, 8),
    EmbeddingTableConfig("mean_b", 30, 8, pooling_mode="mean"),
    EmbeddingTableConfig("sum_c", 70, 8),
    EmbeddingTableConfig("single_row", 1, 8),          # H=1 edge case
    EmbeddingTableConfig("wide", 40, 16),              # second dim group
    EmbeddingTableConfig("wide_mean", 25, 16, pooling_mode="mean"),
]


class TestArenaLayout:
    def test_groups_by_dimension(self):
        arena = EmbeddingArena(make_tables(MIXED_CONFIGS))
        assert arena.num_groups == 2
        dims = sorted(g.dim for g in arena.groups)
        assert dims == [8, 16]

    def test_storage_is_contiguous_and_views_alias_it(self):
        tables = make_tables(MIXED_CONFIGS)
        before = {t.name: t.weight.copy() for t in tables}
        arena = EmbeddingArena(tables)
        for group in arena.groups:
            assert group.storage.flags.c_contiguous
            assert group.storage.shape == (
                sum(t.config.num_embeddings for t in group.tables),
                group.dim)
            for t, base in zip(group.tables, group.bases):
                # weight is a view of arena storage with unchanged contents
                assert t.weight.base is group.storage
                np.testing.assert_array_equal(t.weight, before[t.name])
                np.testing.assert_array_equal(
                    group.storage[base:base + t.config.num_embeddings],
                    before[t.name])

    def test_table_write_visible_to_arena(self):
        tables = make_tables(MIXED_CONFIGS[:2])
        arena = EmbeddingArena(tables)
        tables[0].weight[3] = 42.0
        group = arena.groups[0]
        np.testing.assert_array_equal(group.storage[3], np.full(8, 42.0))

    def test_rebound_weight_resynced_on_forward(self):
        tables = make_tables(MIXED_CONFIGS[:2], seed=1)
        arena = EmbeddingArena(tables)
        # external rebind, e.g. a checkpoint restore
        fresh = np.random.default_rng(9).normal(
            size=tables[0].weight.shape).astype(np.float32)
        tables[0].weight = fresh
        batch = random_batch(MIXED_CONFIGS[:2], 4, np.random.default_rng(2))
        out = arena.forward(batch)
        # arena must have repacked the new rows and re-pointed the view
        assert tables[0].weight.base is arena.groups[0].storage
        np.testing.assert_array_equal(tables[0].weight, fresh)
        ref = EmbeddingTable(tables[0].config, weight=fresh.copy())
        np.testing.assert_array_equal(
            out["sum_a"], ref.forward(*batch["sum_a"]))

    def test_memory_bytes(self):
        arena = EmbeddingArena(make_tables(MIXED_CONFIGS))
        expected = sum(c.num_embeddings * c.embedding_dim * 4
                       for c in MIXED_CONFIGS)
        assert arena.memory_bytes() == expected

    def test_empty_tables_rejected(self):
        with pytest.raises(ValueError):
            EmbeddingArena([])


class TestForwardParity:
    @pytest.mark.parametrize("seed", range(5))
    def test_bitwise_vs_loop_mode(self, seed):
        rng = np.random.default_rng(seed)
        arena_c = FusedEmbeddingCollection(make_tables(MIXED_CONFIGS, seed))
        loop_c = PerTableEmbeddings(clone_tables(arena_c.tables))
        batch = random_batch(MIXED_CONFIGS, 16, rng)
        out_a, out_l = arena_c.forward(batch), loop_c.forward(batch)
        for name in arena_c.names:
            np.testing.assert_array_equal(out_a[name], out_l[name])

    def test_close_to_add_at_reference(self):
        rng = np.random.default_rng(3)
        arena_c = FusedEmbeddingCollection(make_tables(MIXED_CONFIGS))
        refs = clone_tables(arena_c.tables)
        batch = random_batch(MIXED_CONFIGS, 16, rng, max_len=20)
        out = arena_c.forward(batch)
        for t in refs:
            np.testing.assert_allclose(
                out[t.name], t.forward_reference(*batch[t.name]),
                rtol=1e-6, atol=1e-6)

    def test_all_empty_batch(self):
        configs = MIXED_CONFIGS[:3]
        arena_c = FusedEmbeddingCollection(make_tables(configs))
        batch = {c.name: (np.zeros(0, dtype=np.int64),
                          np.zeros(9, dtype=np.int64)) for c in configs}
        out = arena_c.forward(batch)
        for c in configs:
            np.testing.assert_array_equal(out[c.name], np.zeros((8, 8)))

    def test_per_table_backward_still_works_after_arena_forward(self):
        # arena.forward primes each table's saved state, so table.backward
        # must keep working.
        configs = MIXED_CONFIGS[:2]
        arena_c = FusedEmbeddingCollection(make_tables(configs))
        loop = clone_tables(arena_c.tables)
        rng = np.random.default_rng(4)
        batch = random_batch(configs, 8, rng)
        arena_c.forward(batch)
        dy = rng.normal(size=(8, 8)).astype(np.float32)
        for t_a, t_l in zip(arena_c.tables, loop):
            t_l.forward(*batch[t_l.name])
            g_a, g_l = t_a.backward(dy), t_l.backward(dy)
            np.testing.assert_array_equal(g_a.rows, g_l.rows)
            np.testing.assert_array_equal(g_a.values, g_l.values)


class TestBackwardParity:
    @pytest.mark.parametrize("seed", range(3))
    def test_sparse_gradients_bitwise(self, seed):
        rng = np.random.default_rng(seed + 10)
        arena_c = FusedEmbeddingCollection(make_tables(MIXED_CONFIGS, seed))
        loop_c = PerTableEmbeddings(clone_tables(arena_c.tables))
        batch = random_batch(MIXED_CONFIGS, 12, rng)
        arena_c.forward(batch)
        loop_c.forward(batch)
        dy = {c.name: rng.normal(size=(12, c.embedding_dim)).astype(
            np.float32) for c in MIXED_CONFIGS}
        g_a, g_l = arena_c.backward(dy), loop_c.backward(dy)
        for name in arena_c.names:
            np.testing.assert_array_equal(g_a[name].rows, g_l[name].rows)
            np.testing.assert_array_equal(g_a[name].values, g_l[name].values)

    @pytest.mark.parametrize("make_opt", [
        lambda: SparseSGD(lr=0.1),
        lambda: RowWiseAdaGrad(lr=0.05),
    ])
    @pytest.mark.parametrize("seed", range(3))
    def test_fused_update_bitwise(self, make_opt, seed):
        rng = np.random.default_rng(seed + 20)
        arena_c = FusedEmbeddingCollection(make_tables(MIXED_CONFIGS, seed))
        loop_c = PerTableEmbeddings(clone_tables(arena_c.tables))
        opt_a, opt_l = make_opt(), make_opt()
        for step in range(3):   # multi-step: optimizer state must agree too
            batch = random_batch(MIXED_CONFIGS, 12, rng)
            arena_c.forward(batch)
            loop_c.forward(batch)
            dy = {c.name: rng.normal(size=(12, c.embedding_dim)).astype(
                np.float32) for c in MIXED_CONFIGS}
            arena_c.backward_and_update(dy, opt_a)
            loop_c.backward_and_update(dy, opt_l)
            for name in arena_c.names:
                np.testing.assert_array_equal(
                    arena_c.table(name).weight, loop_c.table(name).weight,
                    err_msg=f"step {step} table {name}")

    def test_backward_before_forward_raises(self):
        arena = EmbeddingArena(make_tables(MIXED_CONFIGS[:1]))
        with pytest.raises(RuntimeError):
            arena.backward({"sum_a": np.zeros((2, 8), dtype=np.float32)})


class TestKernelLaunchAccounting:
    def test_arena_counts_one_launch_per_dim_group(self):
        coll = FusedEmbeddingCollection(make_tables(MIXED_CONFIGS))
        batch = random_batch(MIXED_CONFIGS, 4, np.random.default_rng(0))
        coll.forward(batch)
        assert coll.kernel_launches == 2  # dims {8, 16}
        dy = {c.name: np.zeros((4, c.embedding_dim), dtype=np.float32)
              for c in MIXED_CONFIGS}
        coll.backward_and_update(dy, SparseSGD(lr=0.1))
        assert coll.kernel_launches == 4

    def test_uniform_dim_model_is_single_dispatch(self):
        configs = [EmbeddingTableConfig(f"t{i}", 20, 8) for i in range(10)]
        coll = FusedEmbeddingCollection(make_tables(configs))
        batch = random_batch(configs, 4, np.random.default_rng(1))
        coll.forward(batch)
        assert coll.kernel_launches == 1
