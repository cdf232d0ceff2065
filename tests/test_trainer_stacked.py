"""Rank-stacked trainer vs the looped reference oracle.

:class:`NeoTrainer` packs all ranks' dense state into leading-axis
``(R, ...)`` arrays and advances every replica with one batched kernel
per phase. It is only allowed to exist because it is *bitwise
identical* to the sequential per-rank loop
(``tests/oracles/looped_trainer.py``): this file fuzzes that identity
over random architectures, world sizes, sharding schemes, dense and
sparse optimizers — losses, dense parameters, gathered tables, comms
byte/call logs, and eval outputs — and pins
the compatibility surface (per-rank ``dense_opt`` facade, checkpoint
state, ``replicas_in_sync``) that the rest of the repo reads through.
"""

import inspect

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import nn
from repro.comms import ClusterTopology
from repro.core import NeoTrainer
from repro.data import SyntheticCTRDataset
from repro.embedding import (EmbeddingTableConfig, RowWiseAdaGrad,
                             SparseAdaGrad, SparseSGD)
from repro.models import DLRMConfig
from repro.sharding import ShardingPlan, ShardingScheme, shard_table

from .oracles.looped_trainer import LoopedNeoTrainer

SCHEMES = [ShardingScheme.TABLE_WISE, ShardingScheme.ROW_WISE,
           ShardingScheme.TABLE_ROW_WISE, ShardingScheme.COLUMN_WISE,
           ShardingScheme.DATA_PARALLEL]

OPTIMIZERS = {
    "sgd": lambda p: nn.SGD(p, lr=0.1),
    "momentum": lambda p: nn.SGD(p, lr=0.1, momentum=0.9),
    "adam": lambda p: nn.Adam(p, lr=0.01),
    "lamb": lambda p: nn.LAMB(p, lr=0.01),
}

SPARSE_OPTIMIZERS = {
    "sgd": lambda: SparseSGD(lr=0.1),
    "adagrad": lambda: SparseAdaGrad(lr=0.1),
    "rowwise_adagrad": lambda: RowWiseAdaGrad(lr=0.1),
}


def table_ranks(scheme, i, world):
    """Owner ranks of table ``i``: one rank for table-wise, the first
    half of the world (one "node") for table-row-wise, else all."""
    if scheme == ShardingScheme.TABLE_WISE:
        return [i % world]
    if scheme == ShardingScheme.TABLE_ROW_WISE:
        return list(range(max(1, world // 2)))
    return list(range(world))


def build_pair(tables, emb_dim, world, schemes, seed, optimizer="sgd",
               sparse_optimizer="sgd", dense_dim=3):
    """One looped and one stacked trainer with identical state."""
    config = DLRMConfig(dense_dim=dense_dim, bottom_mlp=(6, emb_dim),
                        tables=tables, top_mlp=(6,))
    trainers = []
    for cls in (LoopedNeoTrainer, NeoTrainer):
        plan = ShardingPlan(world_size=world)
        for i, t in enumerate(tables):
            scheme = schemes[t.name]
            plan.tables[t.name] = shard_table(
                t, scheme, table_ranks(scheme, i, world))
        plan.validate()
        trainers.append(cls(
            config, plan, ClusterTopology(num_nodes=1, gpus_per_node=world),
            dense_optimizer=OPTIMIZERS[optimizer],
            sparse_optimizer=SPARSE_OPTIMIZERS[sparse_optimizer](),
            seed=seed))
    return trainers[0], trainers[1]


def assert_bitwise_equal(looped, stacked, tables):
    """Every observable of the two trainers must agree exactly."""
    for r in range(looped.world_size):
        for pa, pb in zip(looped.ranks[r].dense_parameters(),
                          stacked.ranks[r].dense_parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)
    for t in tables:
        np.testing.assert_array_equal(looped.gather_table(t.name),
                                      stacked.gather_table(t.name))
    assert looped.pg.log.wire_bytes == stacked.pg.log.wire_bytes
    assert looped.pg.log.calls == stacked.pg.log.calls
    assert looped.replicas_in_sync()
    assert stacked.replicas_in_sync()


@st.composite
def stacked_scenario(draw):
    num_tables = draw(st.integers(min_value=1, max_value=3))
    emb_dim = draw(st.sampled_from([4, 8]))
    world = draw(st.sampled_from([2, 4]))
    batch_per_rank = draw(st.integers(min_value=1, max_value=4))
    tables = tuple(
        EmbeddingTableConfig(
            f"t{i}",
            num_embeddings=draw(st.integers(min_value=world * 2,
                                            max_value=64)),
            embedding_dim=emb_dim,
            avg_pooling=float(draw(st.integers(min_value=1, max_value=5))))
        for i in range(num_tables))
    schemes = {t.name: draw(st.sampled_from(SCHEMES)) for t in tables}
    optimizer = draw(st.sampled_from(sorted(OPTIMIZERS)))
    sparse_optimizer = draw(st.sampled_from(sorted(SPARSE_OPTIMIZERS)))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return (tables, emb_dim, world, batch_per_rank, schemes, optimizer,
            sparse_optimizer, seed)


@given(stacked_scenario())
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
def test_stacked_bitwise_matches_looped(scenario):
    """Random configs x world sizes x schemes x dense and sparse
    optimizers: per-step losses, all dense params, gathered tables,
    comms byte/call totals and eval outputs are bitwise equal between
    the stacked trainer and the looped oracle."""
    (tables, emb_dim, world, batch_per_rank, schemes, optimizer,
     sparse_optimizer, seed) = scenario
    looped, stacked = build_pair(tables, emb_dim, world, schemes, seed,
                                 optimizer=optimizer,
                                 sparse_optimizer=sparse_optimizer)
    ds = SyntheticCTRDataset(tables, dense_dim=3, seed=seed)
    for i in range(3):
        split = ds.batch(batch_per_rank * world, i).split(world)
        loss_l = looped.train_step(split)
        loss_s = stacked.train_step(split)
        assert loss_l == loss_s  # exact, not approx
    assert_bitwise_equal(looped, stacked, tables)
    split = ds.batch(batch_per_rank * world, 99).split(world)
    for out_l, out_s in zip(looped.eval_forward(split),
                            stacked.eval_forward(split)):
        np.testing.assert_array_equal(out_l, out_s)


def two_table_setup(world=2, optimizer="sgd", seed=0):
    tables = (EmbeddingTableConfig("t0", 32, 8, avg_pooling=3.0),
              EmbeddingTableConfig("t1", 16, 8, avg_pooling=2.0))
    schemes = {"t0": ShardingScheme.TABLE_WISE,
               "t1": ShardingScheme.DATA_PARALLEL}
    looped, stacked = build_pair(tables, 8, world, schemes, seed,
                                 optimizer=optimizer)
    ds = SyntheticCTRDataset(tables, dense_dim=3, seed=seed)
    return looped, stacked, ds, tables


class TestOptimizerParity:
    """Exact parity for every stateful optimizer, fixed config."""

    @pytest.mark.parametrize("optimizer", sorted(OPTIMIZERS))
    def test_bitwise_parity(self, optimizer):
        looped, stacked, ds, tables = two_table_setup(optimizer=optimizer)
        for i in range(4):
            split = ds.batch(8, i).split(2)
            assert looped.train_step(split) == stacked.train_step(split)
        assert_bitwise_equal(looped, stacked, tables)


class TestOptimizerFacade:
    """Per-rank ``ranks[r].dense_opt`` stays a usable read surface in
    stacked mode — checkpointing and LR schedulers go through it."""

    def test_state_for_slices_rank_state(self):
        _, stacked, ds, _ = two_table_setup(optimizer="momentum")
        stacked.train_step(ds.batch(8, 0).split(2))
        for r in range(2):
            opt = stacked.ranks[r].dense_opt
            for p in stacked.ranks[r].dense_parameters():
                state = opt.state_for(p)
                assert "momentum" in state
                assert state["momentum"].shape == p.data.shape

    def test_rank_states_identical_replicas(self):
        """Dense state is replicated, so every rank's slice agrees."""
        _, stacked, ds, _ = two_table_setup(optimizer="adam")
        stacked.train_step(ds.batch(8, 0).split(2))
        params = [stacked.ranks[r].dense_parameters() for r in range(2)]
        for p0, p1 in zip(*params):
            s0 = stacked.ranks[0].dense_opt.state_for(p0)
            s1 = stacked.ranks[1].dense_opt.state_for(p1)
            assert s0.keys() == s1.keys()
            for key in s0:
                np.testing.assert_array_equal(s0[key], s1[key])

    def test_step_raises(self):
        _, stacked, _, _ = two_table_setup()
        with pytest.raises(RuntimeError):
            stacked.ranks[0].dense_opt.step()

    def test_scheduler_drives_shared_lr(self):
        """A scheduler built on rank 0's facade reaches the shared
        stacked optimizer (and therefore every replica)."""
        _, stacked, ds, _ = two_table_setup()
        sched = nn.StepDecay(stacked.ranks[0].dense_opt, base_lr=0.1,
                             milestones=[1], gamma=0.5)
        sched.step()
        assert stacked.ranks[0].dense_opt.lr == pytest.approx(0.05)
        assert stacked.ranks[1].dense_opt.lr == pytest.approx(0.05)
        stacked.train_step(ds.batch(8, 0).split(2))  # still trains


class TestStackedStateLayout:
    def test_parameters_are_views_of_stacked_storage(self):
        _, stacked, ds, _ = two_table_setup()
        sp_list = stacked._stacked_state.dense_parameters()
        for r in range(2):
            for p, sp in zip(stacked.ranks[r].dense_parameters(), sp_list):
                assert sp.stacked
                assert sp.data.shape == (2,) + p.data.shape
                assert np.shares_memory(p.data, sp.data)
        # and the views survive a training step (updates are in-place)
        stacked.train_step(ds.batch(8, 0).split(2))
        for p, sp in zip(stacked.ranks[0].dense_parameters(), sp_list):
            assert np.shares_memory(p.data, sp.data)

    def test_looped_oracle_is_unstacked(self):
        """The oracle really loops: no stacked state, and every rank
        steps its own optimizer over its own parameters."""
        looped, _, _, _ = two_table_setup()
        assert looped._stacked_state is None
        for state in looped.ranks:
            assert state.dense_opt.params == state.dense_parameters()
            assert not any(p.stacked for p in state.dense_parameters())

    @pytest.mark.parametrize("ctor", [NeoTrainer, NeoTrainer.from_planner])
    def test_no_execution_mode_knob(self, ctor):
        """Rank-stacking is the only production path; the looped mode
        is a test oracle, not a constructor option."""
        assert "stacked" not in inspect.signature(ctor).parameters


def test_stacked_smoke_r64():
    """A 64-rank step is affordable in stacked mode (the reason the
    Fig. 11 sweep moved to the fast tier)."""
    tables = (EmbeddingTableConfig("t0", 256, 8, avg_pooling=2.0),)
    config = DLRMConfig(dense_dim=4, bottom_mlp=(8, 8), tables=tables,
                        top_mlp=(8,))
    plan = ShardingPlan(world_size=64)
    plan.tables["t0"] = shard_table(tables[0],
                                    ShardingScheme.DATA_PARALLEL,
                                    list(range(64)))
    trainer = NeoTrainer(
        config, plan, ClusterTopology(num_nodes=8, gpus_per_node=8),
        dense_optimizer=lambda p: nn.SGD(p, lr=0.1),
        sparse_optimizer=SparseAdaGrad(lr=0.1), seed=0)
    ds = SyntheticCTRDataset(tables, dense_dim=4, seed=1)
    losses = [trainer.train_step(ds.batch(128, i).split(64))
              for i in range(2)]
    assert all(np.isfinite(l) for l in losses)
    assert trainer.replicas_in_sync()
