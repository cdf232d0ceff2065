"""Tests for checkpointing: exact resume, differential writes, quantized
storage (Check-N-Run semantics)."""

import io
import os

import numpy as np
import pytest

from repro import nn
from repro.comms import ClusterTopology
from repro.core import CheckpointManager, NeoTrainer
from repro.data import SyntheticCTRDataset
from repro.embedding import EmbeddingTableConfig, SparseAdaGrad, SparseSGD
from repro.models import DLRMConfig
from repro.sharding import ShardingPlan, ShardingScheme, shard_table

from .oracles.looped_trainer import LoopedNeoTrainer


def make_trainer(world=2, seed=0, scheme=ShardingScheme.TABLE_WISE,
                 stacked=True, momentum=0.0):
    tables = tuple(EmbeddingTableConfig(f"t{i}", 64, 8, avg_pooling=3.0)
                   for i in range(2))
    config = DLRMConfig(dense_dim=4, bottom_mlp=(8, 8), tables=tables,
                        top_mlp=(8,))
    plan = ShardingPlan(world_size=world)
    for i, t in enumerate(tables):
        ranks = [i % world] if scheme == ShardingScheme.TABLE_WISE \
            else list(range(world))
        plan.tables[t.name] = shard_table(t, scheme, ranks)
    cls = NeoTrainer if stacked else LoopedNeoTrainer
    trainer = cls(
        config, plan, ClusterTopology(num_nodes=1, gpus_per_node=world),
        dense_optimizer=lambda p: nn.SGD(p, lr=0.1, momentum=momentum),
        sparse_optimizer=SparseSGD(lr=0.1), seed=seed)
    ds = SyntheticCTRDataset(tables, dense_dim=4, seed=1)
    return trainer, ds, config


class TestFullCheckpoint:
    def test_save_creates_file(self, tmp_path):
        trainer, ds, _ = make_trainer()
        mgr = CheckpointManager(str(tmp_path))
        path = mgr.save(trainer)
        assert os.path.exists(path)
        assert mgr.list_steps() == [0]

    def test_round_trip_exact(self, tmp_path):
        trainer, ds, config = make_trainer()
        for i in range(3):
            trainer.train_step(ds.batch(8, i).split(2))
        mgr = CheckpointManager(str(tmp_path))
        mgr.save(trainer)
        saved = {t.name: trainer.gather_table(t.name)
                 for t in config.tables}
        # wreck the state, then restore
        for i in range(3, 6):
            trainer.train_step(ds.batch(8, i).split(2))
        mgr.load(trainer)
        assert trainer.steps == 3
        for t in config.tables:
            np.testing.assert_array_equal(trainer.gather_table(t.name),
                                          saved[t.name])

    def test_resume_equivalence(self, tmp_path):
        """train 6 == train 3, checkpoint, restore into a fresh trainer,
        train 3 more — the checkpoint carries everything needed."""
        straight, ds, config = make_trainer(seed=0)
        for i in range(6):
            straight.train_step(ds.batch(8, i).split(2))

        first, _, _ = make_trainer(seed=0)
        for i in range(3):
            first.train_step(ds.batch(8, i).split(2))
        mgr = CheckpointManager(str(tmp_path))
        mgr.save(first)

        resumed, _, _ = make_trainer(seed=99)  # different init; overwritten
        mgr.load(resumed)
        for i in range(3, 6):
            resumed.train_step(ds.batch(8, i).split(2))
        for t in config.tables:
            np.testing.assert_allclose(resumed.gather_table(t.name),
                                       straight.gather_table(t.name),
                                       rtol=1e-5, atol=1e-7)
        for a, b in zip(resumed.ranks[0].dense_parameters(),
                        straight.ranks[0].dense_parameters()):
            np.testing.assert_allclose(a.data, b.data, rtol=1e-5, atol=1e-7)

    def test_load_empty_dir_raises(self, tmp_path):
        trainer, _, _ = make_trainer()
        with pytest.raises(FileNotFoundError):
            CheckpointManager(str(tmp_path)).load(trainer)

    def test_load_missing_step_raises(self, tmp_path):
        trainer, _, _ = make_trainer()
        mgr = CheckpointManager(str(tmp_path))
        mgr.save(trainer)
        with pytest.raises(FileNotFoundError):
            mgr.load(trainer, step=999)

    def test_row_wise_sharded_round_trip(self, tmp_path):
        trainer, ds, config = make_trainer(scheme=ShardingScheme.ROW_WISE)
        trainer.train_step(ds.batch(8, 0).split(2))
        mgr = CheckpointManager(str(tmp_path))
        mgr.save(trainer)
        saved = trainer.gather_table("t0").copy()
        trainer.train_step(ds.batch(8, 1).split(2))
        mgr.load(trainer)
        np.testing.assert_array_equal(trainer.gather_table("t0"), saved)


class TestCrashSafeSave:
    def test_crash_mid_save_keeps_previous_checkpoint(self, tmp_path,
                                                      monkeypatch):
        """A save that dies half-way through writing leaves no truncated
        "newest" checkpoint: list_steps() and load() still see the last
        complete one."""
        trainer, ds, config = make_trainer()
        trainer.train_step(ds.batch(8, 0).split(2))
        mgr = CheckpointManager(str(tmp_path))
        mgr.save(trainer)
        saved = {t.name: trainer.gather_table(t.name)
                 for t in config.tables}
        trainer.train_step(ds.batch(8, 1).split(2))

        real_savez = np.savez

        def crash_mid_write(file, **arrays):
            buf = io.BytesIO()
            real_savez(buf, **arrays)
            if isinstance(file, str):  # np.savez's own path handling
                file = open(file if file.endswith(".npz")
                            else file + ".npz", "wb")
            file.write(buf.getvalue()[:buf.tell() // 2])
            file.flush()
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", crash_mid_write)
        with pytest.raises(OSError, match="disk full"):
            mgr.save(trainer)
        monkeypatch.undo()

        assert mgr.list_steps() == [1]
        fresh, _, _ = make_trainer(seed=5)
        assert mgr.load(fresh) == 1
        for t in config.tables:
            np.testing.assert_array_equal(fresh.gather_table(t.name),
                                          saved[t.name])

    def test_load_writes_shard_weights_in_place(self, tmp_path):
        trainer, ds, _ = make_trainer()
        mgr = CheckpointManager(str(tmp_path))
        mgr.save(trainer)
        weights = {shard: table.weight
                   for shard, table in trainer._shard_tables.items()}
        trainer.train_step(ds.batch(8, 0).split(2))
        mgr.load(trainer)
        for shard, table in trainer._shard_tables.items():
            assert table.weight is weights[shard]


class TestCrossPlanRestore:
    def test_tw_checkpoint_loads_into_rw_trainer(self, tmp_path):
        """Checkpoints store gathered tables, so a job can restart under
        a *different* sharding plan (resharding on restore — what lets
        operations change the fleet size between runs)."""
        tw_trainer, ds, config = make_trainer(
            scheme=ShardingScheme.TABLE_WISE)
        for i in range(3):
            tw_trainer.train_step(ds.batch(8, i).split(2))
        mgr = CheckpointManager(str(tmp_path))
        mgr.save(tw_trainer)

        rw_trainer, _, _ = make_trainer(scheme=ShardingScheme.ROW_WISE,
                                        seed=77)
        mgr.load(rw_trainer)
        for t in config.tables:
            np.testing.assert_array_equal(rw_trainer.gather_table(t.name),
                                          tw_trainer.gather_table(t.name))
        # and it keeps training under the new plan
        loss = rw_trainer.train_step(ds.batch(8, 99).split(2))
        assert np.isfinite(loss)


class TestCrossFormatResume:
    """The checkpoint format is execution-mode neutral: it stores one
    replica's dense state, so the rank-stacked trainer and the looped
    oracle (``tests/oracles/looped_trainer.py``) write and read the same
    files. A stacked-trained checkpoint must resume *bitwise* on the
    looped oracle (and vice versa) — including stateful optimizer
    buffers."""

    @pytest.mark.parametrize("train_stacked,resume_stacked",
                             [(True, False), (False, True)])
    def test_resume_bitwise_across_modes(self, tmp_path, train_stacked,
                                         resume_stacked):
        # reference: uninterrupted 6-step run in the *training* mode
        straight, ds, config = make_trainer(stacked=train_stacked,
                                            momentum=0.9)
        for i in range(6):
            straight.train_step(ds.batch(8, i).split(2))

        first, _, _ = make_trainer(stacked=train_stacked, momentum=0.9)
        for i in range(3):
            first.train_step(ds.batch(8, i).split(2))
        mgr = CheckpointManager(str(tmp_path))
        mgr.save(first)

        resumed, _, _ = make_trainer(stacked=resume_stacked, momentum=0.9,
                                     seed=99)  # different init; overwritten
        mgr.load(resumed)
        for i in range(3, 6):
            resumed.train_step(ds.batch(8, i).split(2))

        for t in config.tables:
            np.testing.assert_array_equal(resumed.gather_table(t.name),
                                          straight.gather_table(t.name))
        for r in range(2):
            for pa, pb in zip(straight.ranks[r].dense_parameters(),
                              resumed.ranks[r].dense_parameters()):
                np.testing.assert_array_equal(pa.data, pb.data)
        assert resumed.replicas_in_sync()

    def test_restored_momentum_state_matches(self, tmp_path):
        """Optimizer slot state written by a stacked run reads back
        per-rank on the looped path (and agrees exactly)."""
        stacked, ds, _ = make_trainer(stacked=True, momentum=0.9)
        for i in range(2):
            stacked.train_step(ds.batch(8, i).split(2))
        mgr = CheckpointManager(str(tmp_path))
        mgr.save(stacked)
        looped, _, _ = make_trainer(stacked=False, momentum=0.9, seed=99)
        mgr.load(looped)
        for pa, pb in zip(stacked.ranks[0].dense_parameters(),
                          looped.ranks[0].dense_parameters()):
            sa = stacked.ranks[0].dense_opt.state_for(pa)
            sb = looped.ranks[0].dense_opt.state_for(pb)
            assert sa.keys() == sb.keys()
            for key in sa:
                np.testing.assert_array_equal(np.asarray(sa[key]),
                                              np.asarray(sb[key]))


class TestRetention:
    def test_retain_last_prunes_full_checkpoints(self, tmp_path):
        trainer, ds, _ = make_trainer()
        mgr = CheckpointManager(str(tmp_path))
        for i in range(4):
            trainer.train_step(ds.batch(8, i).split(2))
            mgr.save(trainer)
        deleted = mgr.retain_last(2)
        assert deleted == [1, 2]
        assert mgr.list_steps() == [3, 4]
        # newest checkpoint still loads
        mgr.load(trainer)
        assert trainer.steps == 4

    def test_differential_refuses_pruning(self, tmp_path):
        trainer, ds, _ = make_trainer()
        mgr = CheckpointManager(str(tmp_path), differential=True)
        mgr.save(trainer)
        with pytest.raises(ValueError, match="differential"):
            mgr.retain_last(1)

    def test_invalid_keep(self, tmp_path):
        mgr = CheckpointManager(str(tmp_path))
        with pytest.raises(ValueError):
            mgr.retain_last(0)


class TestDifferentialCheckpoint:
    def test_second_checkpoint_writes_only_touched_rows(self, tmp_path):
        trainer, ds, config = make_trainer()
        mgr = CheckpointManager(str(tmp_path), differential=True)
        mgr.save(trainer)  # full
        trainer.train_step(ds.batch(4, 0).split(2))  # touches few rows
        mgr.save(trainer)  # differential
        first, second = mgr.history
        assert not first.differential
        assert second.differential
        assert second.written_rows < first.written_rows
        assert second.write_fraction < 0.6

    def test_differential_chain_restores_exactly(self, tmp_path):
        trainer, ds, config = make_trainer()
        mgr = CheckpointManager(str(tmp_path), differential=True)
        mgr.save(trainer)
        for i in range(4):
            trainer.train_step(ds.batch(8, i).split(2))
            mgr.save(trainer)
        final = {t.name: trainer.gather_table(t.name)
                 for t in config.tables}
        fresh, _, _ = make_trainer(seed=5)
        mgr.load(fresh)
        assert fresh.steps == 4
        for t in config.tables:
            np.testing.assert_array_equal(fresh.gather_table(t.name),
                                          final[t.name])

    def test_restore_intermediate_step(self, tmp_path):
        trainer, ds, config = make_trainer()
        mgr = CheckpointManager(str(tmp_path), differential=True)
        snapshots = {}
        mgr.save(trainer)
        snapshots[0] = trainer.gather_table("t0").copy()
        for i in range(3):
            trainer.train_step(ds.batch(8, i).split(2))
            mgr.save(trainer)
            snapshots[i + 1] = trainer.gather_table("t0").copy()
        fresh, _, _ = make_trainer(seed=5)
        mgr.load(fresh, step=2)
        np.testing.assert_array_equal(fresh.gather_table("t0"),
                                      snapshots[2])


class TestQuantizedCheckpoint:
    def test_fp16_smaller_payload(self, tmp_path):
        t32, ds, _ = make_trainer()
        t16, _, _ = make_trainer()
        m32 = CheckpointManager(str(tmp_path / "fp32"), precision="fp32")
        m16 = CheckpointManager(str(tmp_path / "fp16"), precision="fp16")
        m32.save(t32)
        m16.save(t16)
        assert m16.history[0].payload_bytes < m32.history[0].payload_bytes

    def test_fp16_restore_error_bounded(self, tmp_path):
        trainer, ds, config = make_trainer()
        trainer.train_step(ds.batch(8, 0).split(2))
        exact = trainer.gather_table("t0").copy()
        mgr = CheckpointManager(str(tmp_path), precision="fp16")
        mgr.save(trainer)
        fresh, _, _ = make_trainer(seed=5)
        mgr.load(fresh)
        restored = fresh.gather_table("t0")
        err = np.abs(restored - exact)
        assert np.all(err <= np.abs(exact) * 2 ** -11 + 1e-7)

    def test_invalid_precision(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointManager(str(tmp_path), precision="int4")
