"""Cross-module property fuzzing: random DLRMs through random sharding
plans must always match the single-process reference.

This is the repository's strongest invariant, checked over a randomized
space of architectures, scheme assignments and batch shapes rather than
the handful of fixed cases in test_core_trainer.py.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import nn
from repro.comms import ClusterTopology
from repro.core import NeoTrainer
from repro.data import SyntheticCTRDataset
from repro.embedding import EmbeddingTableConfig, SparseSGD
from repro.models import DLRM, DLRMConfig
from repro.sharding import ShardingPlan, ShardingScheme, shard_table

from .oracles.per_table import PerTableEmbeddings

SCHEMES = [ShardingScheme.TABLE_WISE, ShardingScheme.ROW_WISE,
           ShardingScheme.COLUMN_WISE, ShardingScheme.DATA_PARALLEL]


@st.composite
def dlrm_scenario(draw):
    num_tables = draw(st.integers(min_value=1, max_value=4))
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
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return tables, emb_dim, world, batch_per_rank, schemes, seed


@given(dlrm_scenario())
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
def test_random_plan_matches_reference(scenario):
    tables, emb_dim, world, batch_per_rank, schemes, seed = scenario
    config = DLRMConfig(dense_dim=3, bottom_mlp=(6, emb_dim),
                        tables=tables, top_mlp=(6,))
    plan = ShardingPlan(world_size=world)
    for i, t in enumerate(tables):
        scheme = schemes[t.name]
        ranks = [i % world] if scheme == ShardingScheme.TABLE_WISE \
            else list(range(world))
        plan.tables[t.name] = shard_table(t, scheme, ranks)
    plan.validate()

    ds = SyntheticCTRDataset(tables, dense_dim=3, seed=seed)
    batch = ds.batch(batch_per_rank * world, 0)

    reference = DLRM(config, seed=seed)
    ref_opt = nn.SGD(reference.dense_parameters(), lr=0.1)
    ref_loss = reference.train_step(batch, ref_opt, SparseSGD(lr=0.1))

    trainer = NeoTrainer(
        config, plan, ClusterTopology(num_nodes=1, gpus_per_node=world),
        dense_optimizer=lambda p: nn.SGD(p, lr=0.1),
        sparse_optimizer=SparseSGD(lr=0.1), seed=seed)
    dist_loss = trainer.train_step(batch.split(world))

    assert dist_loss == pytest.approx(ref_loss, rel=1e-4, abs=1e-6)
    for t in tables:
        np.testing.assert_allclose(
            trainer.gather_table(t.name),
            reference.embeddings.table(t.name).weight,
            rtol=1e-4, atol=1e-6)
    assert trainer.replicas_in_sync()


@given(st.integers(min_value=1, max_value=6),
       st.integers(min_value=2, max_value=8),
       st.integers(min_value=0, max_value=1000))
@settings(max_examples=25, deadline=None)
def test_random_sharding_plan_memory_conservation(num_tables, world, seed):
    """Any plan's total placed memory equals the model's table memory
    (DP replicas aside) — no parameters lost or duplicated."""
    rng = np.random.default_rng(seed)
    tables = [EmbeddingTableConfig(
        f"t{i}", int(rng.integers(world, 500)),
        int(rng.choice([4, 8, 16]))) for i in range(num_tables)]
    plan = ShardingPlan(world_size=world)
    total_expected = 0
    for t in tables:
        scheme = SCHEMES[int(rng.integers(0, len(SCHEMES)))]
        ranks = [int(rng.integers(0, world))] \
            if scheme == ShardingScheme.TABLE_WISE else list(range(world))
        plan.tables[t.name] = shard_table(t, scheme, ranks)
        replicas = world if scheme == ShardingScheme.DATA_PARALLEL else 1
        total_expected += t.num_parameters * replicas
    plan.validate()
    assert sum(plan.memory_per_rank(bytes_per_element=1)) == total_expected


@st.composite
def arena_scenario(draw):
    num_tables = draw(st.integers(min_value=1, max_value=6))
    dims = draw(st.lists(st.sampled_from([4, 8, 16]), min_size=1,
                         max_size=2, unique=True))
    batch = draw(st.integers(min_value=1, max_value=12))
    max_len = draw(st.integers(min_value=0, max_value=7))
    pooling = draw(st.lists(st.sampled_from(["sum", "mean"]),
                            min_size=num_tables, max_size=num_tables))
    heights = draw(st.lists(st.integers(min_value=1, max_value=50),
                            min_size=num_tables, max_size=num_tables))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return dims, heights, pooling, batch, max_len, seed


@given(arena_scenario())
@settings(max_examples=40, deadline=None)
def test_arena_fusion_bitwise_matches_per_table_loop(scenario):
    """The fused arena path (one gather + one reduceat per dim group,
    group-global gradient merge) is bitwise identical to the per-table
    loop for forward, and for a full fused backward+RowWiseAdaGrad step,
    over random table shapes, pooling modes and jagged batches —
    including empty bags and single-row tables."""
    from repro.embedding import (FusedEmbeddingCollection, RowWiseAdaGrad,
                                 lengths_to_offsets)
    dims, heights, pooling, batch_size, max_len, seed = scenario
    rng = np.random.default_rng(seed)
    configs = [EmbeddingTableConfig(f"t{i}", h, dims[i % len(dims)],
                                    pooling_mode=p)
               for i, (h, p) in enumerate(zip(heights, pooling))]
    arena = FusedEmbeddingCollection.from_configs(
        configs, rng=np.random.default_rng(seed))
    loop = PerTableEmbeddings(
        [type(t)(t.config, weight=t.weight.copy()) for t in arena.tables])
    batch, dy = {}, {}
    for c in configs:
        lengths = rng.integers(0, max_len + 1, size=batch_size)
        offsets = lengths_to_offsets(lengths)
        batch[c.name] = (rng.integers(0, c.num_embeddings,
                                      size=int(offsets[-1])), offsets)
        dy[c.name] = rng.normal(
            size=(batch_size, c.embedding_dim)).astype(np.float32)
    out_a, out_l = arena.forward(batch), loop.forward(batch)
    for name in arena.names:
        np.testing.assert_array_equal(out_a[name], out_l[name])
    arena.backward_and_update(dy, RowWiseAdaGrad(lr=0.05))
    loop.backward_and_update(dy, RowWiseAdaGrad(lr=0.05))
    for name in arena.names:
        np.testing.assert_array_equal(arena.table(name).weight,
                                      loop.table(name).weight)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_quantized_wire_preserves_learning_direction(seed):
    """FP16-wire and FP32-wire single steps move parameters in nearly the
    same direction (cosine similarity ~1) for random models."""
    from repro.comms import QuantizedCommsConfig
    tables = (EmbeddingTableConfig("t0", 32, 8, avg_pooling=3.0),)
    config = DLRMConfig(dense_dim=3, bottom_mlp=(6, 8), tables=tables,
                        top_mlp=(6,))
    plan = ShardingPlan(world_size=2)
    plan.tables["t0"] = shard_table(tables[0], ShardingScheme.TABLE_WISE,
                                    [0])
    ds = SyntheticCTRDataset(tables, dense_dim=3, seed=seed)
    batch = ds.batch(8, 0)
    deltas = {}
    for label, comms in (("fp32", None),
                         ("quant", QuantizedCommsConfig.paper_recipe())):
        trainer = NeoTrainer(
            config, plan, ClusterTopology(num_nodes=1, gpus_per_node=2),
            dense_optimizer=lambda p: nn.SGD(p, lr=0.1),
            sparse_optimizer=SparseSGD(lr=0.1), comms_config=comms,
            seed=seed)
        before = trainer.gather_table("t0").copy()
        trainer.train_step(batch.split(2))
        deltas[label] = (trainer.gather_table("t0") - before).ravel()
    a, b = deltas["fp32"], deltas["quant"]
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na > 1e-12 and nb > 1e-12:
        cosine = float(a @ b / (na * nb))
        assert cosine > 0.99
