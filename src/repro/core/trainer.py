"""Neo: synchronous hybrid-parallel DLRM training (paper Sections 3, 4).

The trainer runs ``W`` simulated ranks in lock-step inside one process:

* **data parallelism** for the MLPs — every rank holds a replica, local
  backward gradients are AllReduced and averaged (PyTorch-DDP semantics);
* **model parallelism** for the embedding tables — each table is placed by
  a :class:`repro.sharding.ShardingPlan` and its forward/backward follows
  the Fig. 8 communication pattern of its scheme:

  =============  =======================  =========================
  scheme         forward comms            backward comms
  =============  =======================  =========================
  table-wise     index AlltoAll + pooled  pooled-gradient AlltoAll
                 AlltoAll
  row-wise /     bucketized index         pooled-gradient AllGather
  table-row-wise AlltoAll + ReduceScatter
  column-wise    replicated index         sliced-gradient AlltoAll
                 AlltoAll + pooled
                 AlltoAll
  data-parallel  none (local lookup)      gradient AllReduce
  =============  =======================  =========================

* **exact sparse optimizers** update the embedding shards, so results are
  independent of how the batch was split across ranks.

All collectives move real data through :class:`SimProcessGroup`, which also
accumulates wire bytes and modeled latency. The trainer's numerics are
validated against the single-process :class:`repro.models.DLRM` reference.

**Rank-stacked simulation**: since every rank's dense replica is
bitwise identical in architecture, all replicas' parameters are packed
into leading-axis ``(R, ...)`` arrays (:class:`StackedRankState`, built
by :mod:`repro.nn.stacked`) so the data-parallel bottom/top MLP forward
and backward across all ranks is one batched ``np.matmul`` per layer
instead of ``R`` sequential calls, and the bucketed dense AllReduce
ships one ``(R, elements)`` array through the :class:`SimProcessGroup`
stacked fast path. Every per-rank quantity is bitwise identical to a
sequential per-rank loop (the looped reference oracle in
``tests/oracles/looped_trainer.py``, fuzzed against in
``tests/test_trainer_stacked.py``). The per-rank ``_RankState`` objects
survive as *views* into the stacked storage, so checkpointing,
``freeze()`` export and replica-sync checks read rank state directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import nn
from ..comms import (AlltoAllKind, ClusterTopology, QuantizedCommsConfig,
                     SimProcessGroup)
from ..comms.bucketing import GradientBucketer
from ..data.datagen import MiniBatch
from ..data.kernels import bucketize_sparse
from ..embedding import (EmbeddingTable, EmbeddingTableConfig,
                         QuantizedEmbeddingTable, SparseGradient,
                         SparseOptimizer)
from ..embedding.table import lengths_to_offsets, offsets_to_lengths
from ..models.dlrm import DLRM, DLRMConfig
from ..obs.metrics import MetricRegistry
from ..obs.tracer import as_tracer
from ..sharding import Shard, ShardingPlan, ShardingScheme

__all__ = ["NeoTrainer", "StackedRankState"]


@dataclass
class _RankState:
    """Dense (data-parallel) model state of one rank."""

    bottom: nn.MLP
    top: nn.MLP
    interaction: nn.Module  # DotInteraction or CatInteraction
    loss_fn: nn.BCEWithLogitsLoss
    dense_opt: nn.Optimizer
    projections: Dict[str, nn.Linear]
    table_order: Tuple[str, ...]

    def dense_parameters(self) -> List[nn.Parameter]:
        """Same ordering as :meth:`repro.models.DLRM.dense_parameters`."""
        params = self.bottom.parameters()
        for name in self.table_order:
            if name in self.projections:
                params.extend(self.projections[name].parameters())
        return params + self.top.parameters()


@dataclass
class StackedRankState:
    """All ranks' dense state packed into leading-axis ``(R, ...)`` arrays.

    Mirrors :class:`_RankState` field for field; every parameter holds
    the ``(R, *shape)`` stack of the per-rank replicas (built by
    :mod:`repro.nn.stacked`), and each rank's ``_RankState`` parameters
    are rebound to the contiguous views ``stacked.data[r]`` so both
    representations share storage — mutating one mutates the other.
    """

    bottom: nn.Module
    top: nn.Module
    interaction: nn.Module
    loss_fn: nn.BCEWithLogitsLoss
    dense_opt: nn.Optimizer
    projections: Dict[str, nn.Module]
    table_order: Tuple[str, ...]

    def dense_parameters(self) -> List[nn.Parameter]:
        """Stacked parameters in :meth:`_RankState.dense_parameters`
        order; entry ``i`` is the ``(R, *shape)`` stack of every rank's
        parameter ``i``."""
        params = self.bottom.parameters()
        for name in self.table_order:
            if name in self.projections:
                params.extend(self.projections[name].parameters())
        return params + self.top.parameters()


class _StackedOptimizerView:
    """Per-rank facade over the shared stacked dense optimizer.

    Keeps the ``trainer.ranks[r].dense_opt`` surface alive: LR
    schedulers read/write ``.lr`` (one shared optimizer drives every
    replica), and checkpointing reads per-rank slot state through
    :meth:`state_for`, which slices this rank out of any stacked state
    array. Calling
    :meth:`step` raises: the trainer steps the stacked optimizer once
    per iteration, and a silent per-rank step would double-update.
    """

    def __init__(self, opt: nn.Optimizer, rank: int,
                 rank_params: Sequence[nn.Parameter],
                 stacked_params: Sequence[nn.Parameter]) -> None:
        self._opt = opt
        self._rank = rank
        self.params = list(rank_params)
        self._to_stacked = {id(p): sp for p, sp in
                            zip(rank_params, stacked_params)}

    @property
    def lr(self) -> float:
        return self._opt.lr

    @lr.setter
    def lr(self, value: float) -> None:
        self._opt.lr = value

    def state_for(self, param: nn.Parameter) -> Dict[str, np.ndarray]:
        """This rank's view of the stacked optimizer state for ``param``.

        Stacked state arrays (shape ``(R, *param_shape)``) are sliced to
        this rank; anything else — step counters, state restored at
        per-rank shape by :meth:`NeoTrainer.load_dense_state` — is
        rank-identical already and passes through. The returned dict is
        a snapshot: mutate optimizer state through the trainer, not here.
        """
        sp = self._to_stacked.get(id(param))
        if sp is None:
            return {}
        out: Dict[str, np.ndarray] = {}
        for key, value in self._opt.state_for(sp).items():
            if isinstance(value, np.ndarray) and \
                    value.shape == sp.data.shape:
                out[key] = value[self._rank]
            else:
                out[key] = value
        return out

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        raise RuntimeError(
            "per-rank dense_opt is a read-only view; "
            "the trainer steps the shared stacked optimizer")


def _empty_ids() -> np.ndarray:
    return np.zeros(0, dtype=np.int64)


class NeoTrainer:
    """Synchronous distributed DLRM trainer over simulated ranks."""

    def __init__(self, config: DLRMConfig, plan: ShardingPlan,
                 topology: ClusterTopology,
                 dense_optimizer: Callable[[Sequence[nn.Parameter]],
                                           nn.Optimizer],
                 sparse_optimizer: SparseOptimizer,
                 comms_config: Optional[QuantizedCommsConfig] = None,
                 seed: int = 0, trace=None,
                 metrics: Optional[MetricRegistry] = None,
                 process_group_factory: Optional[
                     Callable[..., SimProcessGroup]] = None,
                 representation_plan=None) -> None:
        if plan.world_size != topology.world_size:
            raise ValueError(
                f"plan world size {plan.world_size} != topology world size "
                f"{topology.world_size}")
        missing = {t.name for t in config.tables} - set(plan.tables)
        if missing:
            raise ValueError(f"plan missing tables {sorted(missing)}")
        for t in config.tables:
            scheme = plan.scheme_of(t.name)
            if scheme in (ShardingScheme.ROW_WISE,
                          ShardingScheme.TABLE_ROW_WISE) and \
                    t.pooling_mode != "sum":
                raise ValueError(
                    f"row-wise sharding requires sum pooling "
                    f"(table {t.name} uses {t.pooling_mode})")
        self.config = config
        self.plan = plan
        # optional repro.planner.RepresentationPlan (duck-typed: anything
        # with training_precision(name)): tables planned for fp16/bf16/
        # int8 serving train on quantized shard storage so the trained
        # weights already live with the round-trip numerics the export
        # will freeze; full/tt/cold-planned tables train fp32
        self.representation_plan = representation_plan
        if representation_plan is not None:
            missing_repr = [t.name for t in config.tables
                            if t.name not in representation_plan.assignments]
            if missing_repr:
                raise ValueError(
                    f"representation plan has no assignment for tables "
                    f"{missing_repr}")
        # observability: off by default (no-op tracer); `trace` accepts a
        # Tracer, True (wall clock) or a clock name ("wall"/"logical")
        self.tracer = as_tracer(trace)
        self.metrics = metrics if metrics is not None else MetricRegistry()
        # the factory hook lets callers substitute a wrapped group — e.g.
        # repro.resilience.FaultyProcessGroup for fault-injection runs —
        # without the trainer knowing anything about faults
        make_pg = process_group_factory if process_group_factory is not None \
            else SimProcessGroup
        self.pg = make_pg(topology, comms_config,
                          registry=self.metrics, tracer=self.tracer)
        self.world_size = plan.world_size
        self.sparse_opt = sparse_optimizer
        self.steps = 0

        # Golden initialization: slice a reference model so the distributed
        # start state is identical to the single-process DLRM's.
        golden = DLRM(config, seed=seed)
        self.ranks: List[_RankState] = []
        table_order = tuple(t.name for t in config.tables)
        for _ in range(self.world_size):
            bottom = nn.MLP((config.dense_dim,) + config.bottom_mlp,
                            final_activation="relu", name="bottom")
            top = nn.MLP((config.interaction_dim,) + config.top_mlp + (1,),
                         name="top")
            projections: Dict[str, nn.Linear] = {}
            if config.project_features:
                for t in config.tables:
                    projections[t.name] = nn.Linear(
                        t.embedding_dim, config.embedding_dim,
                        name=f"proj.{t.name}")
            state = _RankState(
                bottom=bottom, top=top,
                interaction=config.make_interaction(),
                loss_fn=nn.BCEWithLogitsLoss(), dense_opt=None,
                projections=projections, table_order=table_order)
            for dst, src in zip(state.dense_parameters(),
                                golden.dense_parameters()):
                dst.data = src.data.copy()
            self.ranks.append(state)
        # pack every replica's dense parameters into (R, ...) arrays and
        # rebind the per-rank parameters to views
        self._stacked_state: StackedRankState = self._stack_ranks(
            dense_optimizer)
        # bucketing is defined over one replica's parameter shapes (the
        # stacked AllReduce packs (R, elems) buckets)
        self._bucketer = GradientBucketer(
            self.ranks[0].dense_parameters())

        # Shard the embedding weights according to the plan.
        self._build_shards(config, plan, golden)

    @classmethod
    def from_planner(cls, config: DLRMConfig, topology: ClusterTopology,
                     dense_optimizer, sparse_optimizer,
                     comms_config: Optional[QuantizedCommsConfig] = None,
                     seed: int = 0,
                     planner_config=None,
                     device_memory_bytes: Optional[float] = None,
                     trace=None,
                     metrics: Optional[MetricRegistry] = None,
                     process_group_factory: Optional[
                         Callable[..., SimProcessGroup]] = None,
                     representation_plan=None) -> "NeoTrainer":
        """Build a trainer with an automatically planned, memory-validated
        sharding plan — the one-call production entry point.

        ``representation_plan`` is an optional
        :class:`repro.planner.RepresentationPlan`: tables the plan stores
        at fp16/bf16/int8 train on quantized shards (write-back through
        the storage precision after every sparse step)."""
        from ..sharding import EmbeddingShardingPlanner, PlannerConfig
        from ..sharding.memory_validation import validate_plan_memory
        if planner_config is None:
            planner_config = PlannerConfig(
                world_size=topology.world_size,
                ranks_per_node=min(topology.gpus_per_node,
                                   topology.world_size))
        planner = EmbeddingShardingPlanner(planner_config)
        plan = planner.plan(list(config.tables))
        if device_memory_bytes is not None:
            validate_plan_memory(plan, device_memory_bytes)
        return cls(config, plan, topology, dense_optimizer,
                   sparse_optimizer, comms_config=comms_config, seed=seed,
                   trace=trace, metrics=metrics,
                   process_group_factory=process_group_factory,
                   representation_plan=representation_plan)

    def _stack_ranks(self, dense_optimizer: Callable[
            [Sequence[nn.Parameter]], nn.Optimizer]) -> StackedRankState:
        """Pack the per-rank dense replicas into one stacked model.

        After this, ``ranks[r]``'s parameters are contiguous views into
        the stacked ``(R, ...)`` storage and ``ranks[r].dense_opt`` is a
        :class:`_StackedOptimizerView` over the single shared optimizer.
        """
        ss = StackedRankState(
            bottom=nn.stacked.stack_modules(
                [s.bottom for s in self.ranks]),
            top=nn.stacked.stack_modules([s.top for s in self.ranks]),
            interaction=self.config.make_interaction(),
            loss_fn=nn.BCEWithLogitsLoss(),
            dense_opt=None,
            projections={
                name: nn.stacked.stack_modules(
                    [s.projections[name] for s in self.ranks])
                for name in self.ranks[0].projections},
            table_order=self.ranks[0].table_order)
        stacked_params = ss.dense_parameters()
        ss.dense_opt = dense_optimizer(stacked_params)
        for r, state in enumerate(self.ranks):
            rank_params = state.dense_parameters()
            for p, sp in zip(rank_params, stacked_params):
                p.data = sp.data[r]
            state.dense_opt = _StackedOptimizerView(
                ss.dense_opt, r, rank_params, stacked_params)
        return ss

    def _build_shards(self, config: DLRMConfig, plan: ShardingPlan,
                      golden: DLRM) -> None:
        self._shard_tables: Dict[Shard, EmbeddingTable] = {}
        # per-shard metric counters, created once so the hot path only
        # pays a cached-attribute increment
        emb_metrics = self.metrics.scope("embedding")
        self._lookup_counters: Dict[Shard, object] = {}
        self._update_counters: Dict[Shard, object] = {}
        for t in config.tables:
            weight = golden.embeddings.table(t.name).weight
            train_precision = "fp32"
            if self.representation_plan is not None:
                train_precision = \
                    self.representation_plan.training_precision(t.name)
            for shard in plan.tables[t.name].shards:
                r0, r1 = shard.row_range
                c0, c1 = shard.col_range
                shard_cfg = EmbeddingTableConfig(
                    name=f"{t.name}@{shard.rank}:{r0}-{r1}:{c0}-{c1}",
                    num_embeddings=r1 - r0, embedding_dim=c1 - c0,
                    avg_pooling=t.avg_pooling, pooling_mode=t.pooling_mode,
                    precision=train_precision)
                if train_precision == "fp32":
                    self._shard_tables[shard] = EmbeddingTable(
                        shard_cfg, weight=weight[r0:r1, c0:c1])
                else:
                    self._shard_tables[shard] = QuantizedEmbeddingTable(
                        shard_cfg, weight=weight[r0:r1, c0:c1])
                self._lookup_counters[shard] = emb_metrics.counter(
                    "lookup_rows", table=t.name)
                self._update_counters[shard] = emb_metrics.counter(
                    "update_rows", table=t.name)
        self._launch_counter = emb_metrics.counter("kernel_launches")

    # ------------------------------------------------------------------
    # instrumented shard access
    # ------------------------------------------------------------------
    def _shard_forward(self, shard: Shard, ids: np.ndarray,
                       offsets: np.ndarray) -> np.ndarray:
        """Pooled lookup on one shard, under an ``embedding_lookup`` span."""
        with self.tracer.span("trainer.embedding_lookup", cat="embedding",
                              table=shard.table, rank=shard.rank,
                              rows=int(len(ids))):
            out = self._shard_tables[shard].forward(ids, offsets)
        self._lookup_counters[shard].inc(int(len(ids)))
        self._launch_counter.inc(1)  # one gather+segment-reduce dispatch
        return out

    def _shard_update(self, shard: Shard, d_global: np.ndarray) -> None:
        """Shard backward + exact sparse update, under an
        ``embedding_update`` span."""
        with self.tracer.span("trainer.embedding_update", cat="embedding",
                              table=shard.table, rank=shard.rank):
            table = self._shard_tables[shard]
            grad = table.backward(d_global)
            self.sparse_opt.step(table, grad)
            self._sync_shard_storage(table)
        self._update_counters[shard].inc(int(len(grad.rows)))
        self._launch_counter.inc(1)  # one merge+apply dispatch

    def _apply_sparse(self, shard: Shard, sparse: SparseGradient) -> None:
        with self.tracer.span("trainer.embedding_update", cat="embedding",
                              table=shard.table, rank=shard.rank):
            table = self._shard_tables[shard]
            self.sparse_opt.step(table, sparse)
            self._sync_shard_storage(table)
        self._update_counters[shard].inc(int(len(sparse.rows)))

    @staticmethod
    def _sync_shard_storage(table: EmbeddingTable) -> None:
        """Re-round a quantized shard's storage after an optimizer step
        (no-op for fp32 shards) — the write-back half of training on
        low-precision tables."""
        if isinstance(table, QuantizedEmbeddingTable):
            table.sync_storage()

    # ------------------------------------------------------------------
    # embedding forward/backward, per scheme
    # ------------------------------------------------------------------
    def _global_jagged(self, shards_inputs: List[Tuple[np.ndarray,
                                                       np.ndarray]]
                       ) -> Tuple[np.ndarray, np.ndarray]:
        """Concatenate per-source-rank (ids, lengths) into one global
        jagged batch, source-rank-major (matching batch concatenation)."""
        ids = np.concatenate([i for i, _ in shards_inputs]) \
            if shards_inputs else _empty_ids()
        lengths = np.concatenate([l for _, l in shards_inputs]) \
            if shards_inputs else _empty_ids()
        return ids, lengths_to_offsets(lengths)

    def _forward_table_wise(self, table: EmbeddingTableConfig,
                            shard: Shard,
                            local_inputs: List[Tuple[np.ndarray, np.ndarray]],
                            local_batch: int) -> List[np.ndarray]:
        w = self.world_size
        owner = shard.rank
        # index AlltoAll: every rank ships its local ids to the owner
        payload = [[local_inputs[src][0] if dst == owner else _empty_ids()
                    for dst in range(w)] for src in range(w)]
        arrived = self.pg.all_to_all(payload, kind=AlltoAllKind.INDEX)
        lengths = [[offsets_to_lengths(local_inputs[src][1])
                    if dst == owner else _empty_ids()
                    for dst in range(w)] for src in range(w)]
        arrived_lengths = self.pg.all_to_all(lengths, kind=AlltoAllKind.INDEX)
        ids, offsets = self._global_jagged(
            list(zip(arrived[owner], arrived_lengths[owner])))
        pooled_global = self._shard_forward(shard, ids, offsets)
        # pooled AlltoAll: owner scatters each rank's sub-batch
        d = pooled_global.shape[1]
        out_payload = [[pooled_global[dst * local_batch:(dst + 1)
                                      * local_batch]
                        if src == owner else
                        np.zeros((0, d), dtype=np.float32)
                        for dst in range(w)] for src in range(w)]
        delivered = self.pg.all_to_all(out_payload,
                                       kind=AlltoAllKind.FORWARD)
        return [delivered[r][owner] for r in range(w)]

    def _backward_table_wise(self, shard: Shard,
                             d_pooled: List[np.ndarray]) -> None:
        w = self.world_size
        owner = shard.rank
        d = d_pooled[0].shape[1]
        payload = [[d_pooled[src] / w if dst == owner else
                    np.zeros((0, d), dtype=np.float32)
                    for dst in range(w)] for src in range(w)]
        arrived = self.pg.all_to_all(payload, kind=AlltoAllKind.BACKWARD)
        d_global = np.concatenate(arrived[owner], axis=0).astype(np.float32)
        self._shard_update(shard, d_global)

    def _forward_column_wise(self, table: EmbeddingTableConfig,
                             shards: List[Shard],
                             local_inputs: List[Tuple[np.ndarray,
                                                      np.ndarray]],
                             local_batch: int) -> List[np.ndarray]:
        w = self.world_size
        owners = [s.rank for s in shards]
        # replicated index AlltoAll: each rank ships ids to every owner
        payload = [[local_inputs[src][0] if dst in owners else _empty_ids()
                    for dst in range(w)] for src in range(w)]
        arrived = self.pg.all_to_all(payload, kind=AlltoAllKind.INDEX)
        lengths = [[offsets_to_lengths(local_inputs[src][1])
                    if dst in owners else _empty_ids()
                    for dst in range(w)] for src in range(w)]
        arrived_lengths = self.pg.all_to_all(lengths, kind=AlltoAllKind.INDEX)
        # each owner pools its column slice for the global batch
        pooled_slices: Dict[Shard, np.ndarray] = {}
        for shard in shards:
            ids, offsets = self._global_jagged(
                list(zip(arrived[shard.rank],
                         arrived_lengths[shard.rank])))
            pooled_slices[shard] = self._shard_forward(shard, ids, offsets)
        # pooled AlltoAll per shard (two shards may share an owner rank),
        # then concatenate slices by column order
        ordered = sorted(shards, key=lambda s: s.col_range)
        delivered_by_shard = {}
        for shard in ordered:
            pooled = pooled_slices[shard]
            d = pooled.shape[1]
            out_payload = [[pooled[dst * local_batch:(dst + 1) * local_batch]
                            if src == shard.rank else
                            np.zeros((0, d), dtype=np.float32)
                            for dst in range(w)] for src in range(w)]
            delivered = self.pg.all_to_all(out_payload,
                                           kind=AlltoAllKind.FORWARD)
            delivered_by_shard[shard] = [delivered[r][shard.rank]
                                         for r in range(w)]
        return [np.concatenate([delivered_by_shard[s][r] for s in ordered],
                               axis=1) for r in range(w)]

    def _backward_column_wise(self, shards: List[Shard],
                              d_pooled: List[np.ndarray]) -> None:
        w = self.world_size
        for shard in sorted(shards, key=lambda s: s.col_range):
            c0, c1 = shard.col_range
            payload = [[d_pooled[src][:, c0:c1] / w
                        if dst == shard.rank else
                        np.zeros((0, c1 - c0), dtype=np.float32)
                        for dst in range(w)] for src in range(w)]
            arrived = self.pg.all_to_all(payload,
                                         kind=AlltoAllKind.BACKWARD)
            d_global = np.concatenate(arrived[shard.rank],
                                      axis=0).astype(np.float32)
            self._shard_update(shard, d_global)

    def _forward_row_wise(self, table: EmbeddingTableConfig,
                          shards: List[Shard],
                          local_inputs: List[Tuple[np.ndarray, np.ndarray]],
                          local_batch: int) -> List[np.ndarray]:
        w = self.world_size
        d = table.embedding_dim
        ordered = sorted(shards, key=lambda s: s.row_range)
        boundaries = [s.row_range[0] for s in ordered] \
            + [ordered[-1].row_range[1]]
        # bucketize each rank's ids and ship bucket k to its owner
        payload_ids = [[_empty_ids() for _ in range(w)] for _ in range(w)]
        payload_lengths = [[_empty_ids() for _ in range(w)]
                           for _ in range(w)]
        for src in range(w):
            ids, offsets = local_inputs[src]
            buckets = bucketize_sparse(ids, offsets_to_lengths(offsets),
                                       boundaries)
            for shard, (b_ids, b_lengths) in zip(ordered, buckets):
                payload_ids[src][shard.rank] = b_ids
                payload_lengths[src][shard.rank] = b_lengths
        arrived_ids = self.pg.all_to_all(payload_ids, kind=AlltoAllKind.INDEX)
        arrived_lengths = self.pg.all_to_all(payload_lengths,
                                             kind=AlltoAllKind.INDEX)
        # owners compute partial pooled sums for the global batch
        global_batch = local_batch * w
        partials = [np.zeros((global_batch, d), dtype=np.float32)
                    for _ in range(w)]
        for shard in ordered:
            ids, offsets = self._global_jagged(
                list(zip(arrived_ids[shard.rank],
                         arrived_lengths[shard.rank])))
            partials[shard.rank] = self._shard_forward(shard, ids, offsets)
        # ReduceScatter: sum partials, deliver each rank its sub-batch
        chunked = [[p[r * local_batch:(r + 1) * local_batch]
                    for r in range(w)] for p in partials]
        return self.pg.reduce_scatter(chunked)

    def _backward_row_wise(self, shards: List[Shard],
                           d_pooled: np.ndarray) -> None:
        # one (W, B, D) array through the AllGather; the gathered stack
        # reshapes to the source-rank-major (W*B, D) global gradient
        gathered = self.pg.all_gather(d_pooled / self.world_size).stacked
        d_global = gathered.reshape(
            gathered.shape[0] * gathered.shape[1], -1).astype(np.float32)
        for shard in shards:
            self._shard_update(shard, d_global)

    def _forward_data_parallel(self, shards: List[Shard],
                               local_inputs: List[Tuple[np.ndarray,
                                                        np.ndarray]]
                               ) -> List[np.ndarray]:
        by_rank = {s.rank: s for s in shards}
        out = []
        for r in range(self.world_size):
            ids, offsets = local_inputs[r]
            out.append(self._shard_forward(by_rank[r], ids, offsets))
        return out

    def _backward_data_parallel(self, shards: List[Shard],
                                d_pooled: List[np.ndarray]) -> None:
        by_rank = {s.rank: s for s in shards}
        dense_grads = []
        for r in range(self.world_size):
            grad = self._shard_tables[by_rank[r]].backward(d_pooled[r])
            dense_grads.append(grad.to_dense())
        summed = self.pg.all_reduce(dense_grads)
        for r in range(self.world_size):
            avg = summed[r] / self.world_size
            rows = np.nonzero(np.any(avg != 0.0, axis=1))[0]
            sparse = SparseGradient(rows=rows.astype(np.int64),
                                    values=avg[rows],
                                    num_embeddings=avg.shape[0])
            self._apply_sparse(by_rank[r], sparse)

    # ------------------------------------------------------------------
    # shared per-phase helpers, used by train_step AND eval_forward; each
    # advances all ranks with one batched kernel over the stacked state
    # ------------------------------------------------------------------
    def _check_batches(self, local_batches: List[MiniBatch]) -> int:
        if len(local_batches) != self.world_size:
            raise ValueError(
                f"need {self.world_size} local batches, "
                f"got {len(local_batches)}")
        sizes = {b.batch_size for b in local_batches}
        if len(sizes) != 1:
            raise ValueError(f"local batches must be equal size, got {sizes}")
        return sizes.pop()

    def _bottom_forward(self, local_batches: List[MiniBatch]) -> np.ndarray:
        """Bottom MLP over all ranks: (R, B, D)."""
        dense_in = np.stack([b.dense for b in local_batches], axis=0)
        return self._stacked_state.bottom.forward(dense_in)

    def _table_forward(self, t: EmbeddingTableConfig, table_plan,
                       inputs: List[Tuple[np.ndarray, np.ndarray]],
                       local_batch: int) -> List[np.ndarray]:
        """Scheme dispatch for one table's forward (Fig. 8 patterns)."""
        scheme = table_plan.scheme
        if scheme == ShardingScheme.TABLE_WISE:
            return self._forward_table_wise(
                t, table_plan.shards[0], inputs, local_batch)
        if scheme == ShardingScheme.COLUMN_WISE:
            return self._forward_column_wise(
                t, table_plan.shards, inputs, local_batch)
        if scheme in (ShardingScheme.ROW_WISE,
                      ShardingScheme.TABLE_ROW_WISE):
            return self._forward_row_wise(
                t, table_plan.shards, inputs, local_batch)
        return self._forward_data_parallel(table_plan.shards, inputs)

    def _embedding_forward(self, local_batches: List[MiniBatch],
                           local_batch: int, spans: bool
                           ) -> Dict[str, List[np.ndarray]]:
        """All tables' pooled lookups; ``spans`` wraps each table in a
        ``trainer.table_fwd`` span (train path) or not (eval path)."""
        pooled: Dict[str, List[np.ndarray]] = {}
        for t in self.config.tables:
            table_plan = self.plan.tables[t.name]
            inputs = [local_batches[r].sparse[t.name]
                      for r in range(self.world_size)]
            if spans:
                with self.tracer.span("trainer.table_fwd", cat="trainer",
                                      table=t.name,
                                      scheme=table_plan.scheme.value):
                    pooled[t.name] = self._table_forward(
                        t, table_plan, inputs, local_batch)
            else:
                pooled[t.name] = self._table_forward(
                    t, table_plan, inputs, local_batch)
        return pooled

    def _interaction_forward(self, dense_out: np.ndarray,
                             pooled: Dict[str, List[np.ndarray]]
                             ) -> np.ndarray:
        """Projections + interaction over all ranks: (R, B, I)."""
        ss = self._stacked_state
        features = [dense_out]
        for t in self.config.tables:
            value = np.stack(list(pooled[t.name]), axis=0)
            if t.name in ss.projections:
                value = ss.projections[t.name].forward(value)
            features.append(value)
        return ss.interaction.forward_list(features)

    def _top_forward(self, interacted: np.ndarray) -> np.ndarray:
        """Top MLP logits: (R, B)."""
        return self._stacked_state.top.forward(interacted)[..., 0]

    def _loss_forward(self, logits: np.ndarray,
                      local_batches: List[MiniBatch]) -> np.ndarray:
        """Per-rank mean BCE losses: (R,)."""
        labels = np.stack([b.labels for b in local_batches], axis=0)
        return self._stacked_state.loss_fn.forward(logits, labels)

    def _dense_backward(self) -> Dict[str, np.ndarray]:
        """Loss -> top -> interaction -> bottom backward; returns each
        table's (R, B, D) pooled-embedding gradient."""
        ss = self._stacked_state
        for p in ss.dense_parameters():
            p.zero_grad()
        d_logits = ss.loss_fn.backward()[..., None]
        d_inter = ss.top.backward(d_logits)
        d_features = ss.interaction.backward_list(d_inter)
        ss.bottom.backward(d_features[0])
        d_pooled: Dict[str, np.ndarray] = {}
        for i, t in enumerate(self.config.tables):
            grad = d_features[1 + i]
            if t.name in ss.projections:
                grad = ss.projections[t.name].backward(grad)
            d_pooled[t.name] = grad
        return d_pooled

    def _table_backward(self, table_plan, d_pooled) -> None:
        """Scheme dispatch for one table's backward. Row-wise keeps the
        (R, B, D) gradient whole (its AllGather ships the stack in one
        call); other schemes consume per-rank slices."""
        scheme = table_plan.scheme
        if scheme in (ShardingScheme.ROW_WISE,
                      ShardingScheme.TABLE_ROW_WISE):
            self._backward_row_wise(table_plan.shards, d_pooled)
            return
        d_pooled = [d_pooled[r] for r in range(self.world_size)]
        if scheme == ShardingScheme.TABLE_WISE:
            self._backward_table_wise(table_plan.shards[0], d_pooled)
        elif scheme == ShardingScheme.COLUMN_WISE:
            self._backward_column_wise(table_plan.shards, d_pooled)
        else:
            self._backward_data_parallel(table_plan.shards, d_pooled)

    def _dense_allreduce(self) -> List[np.ndarray]:
        """Bucketed DDP gradient sync; returns the reduced (R, elems)
        flat buckets."""
        flats = self._bucketer.flatten_stacked(
            [p.grad for p in self._stacked_state.dense_parameters()])
        for b in range(self._bucketer.num_buckets):
            flats[b] = self.pg.all_reduce(flats[b]).stacked
        return flats

    def _optimizer_step(self, flats) -> List[np.ndarray]:
        """Unflatten reduced buckets, average, step. Returns rank 0's
        averaged gradients (for read-only instrumentation)."""
        w = self.world_size
        ss = self._stacked_state
        params = ss.dense_parameters()
        for p, g in zip(params, self._bucketer.unflatten_stacked(flats)):
            p.grad = (g / w).astype(np.float32)
        ss.dense_opt.step()
        return [p.grad[0] for p in params]

    # ------------------------------------------------------------------
    # the training step
    # ------------------------------------------------------------------
    def train_step(self, local_batches: List[MiniBatch]) -> float:
        """One synchronous iteration over per-rank sub-batches.

        Returns the global mean loss. All ranks advance together; the
        update is mathematically the single-process update on the
        concatenated global batch, and bitwise identical to a sequential
        per-rank loop over the replicas.

        When tracing is enabled (``trace=`` at construction) each phase
        runs under a span (``trainer.bottom_mlp_fwd`` ... ``trainer.
        optimizer``) with collective spans nested inside; the compute is
        byte-for-byte identical either way — instrumentation only reads.
        """
        w = self.world_size
        local_batch = self._check_batches(local_batches)
        tr = self.tracer
        # announce the iteration boundary (v2 ProcessGroup API) so
        # wrappers can key scheduled faults on the logical step
        self.pg.on_iteration_start(self.steps)

        with tr.span("trainer.iteration", cat="trainer", step=self.steps,
                     local_batch=local_batch):
            # forward: bottom MLP (data parallel)
            with tr.span("trainer.bottom_mlp_fwd", cat="trainer"):
                dense_out = self._bottom_forward(local_batches)

            # forward: embeddings per table, per scheme
            with tr.span("trainer.embedding_fwd", cat="trainer"):
                pooled = self._embedding_forward(local_batches, local_batch,
                                                 spans=True)

            # forward: per-feature projections + interaction (data parallel)
            with tr.span("trainer.interaction_fwd", cat="trainer"):
                interacted = self._interaction_forward(dense_out, pooled)

            # forward: top MLP + loss (data parallel)
            with tr.span("trainer.top_mlp_fwd", cat="trainer"):
                logits = self._top_forward(interacted)
                losses = self._loss_forward(logits, local_batches)

            # backward: top MLP + interaction + bottom MLP (data parallel)
            with tr.span("trainer.dense_bwd", cat="trainer"):
                d_pooled = self._dense_backward()

            # backward: embeddings per table (exact sparse updates)
            with tr.span("trainer.embedding_bwd", cat="trainer"):
                for t in self.config.tables:
                    table_plan = self.plan.tables[t.name]
                    with tr.span("trainer.table_bwd", cat="trainer",
                                 table=t.name,
                                 scheme=table_plan.scheme.value):
                        self._table_backward(table_plan, d_pooled[t.name])

            # gradient sync (DDP semantics, bucketed — one AllReduce per
            # ~25 MB bucket, not per parameter)
            with tr.span("trainer.allreduce", cat="trainer"):
                flats = self._dense_allreduce()

            # dense optimizer step
            with tr.span("trainer.optimizer", cat="trainer"):
                grads = self._optimizer_step(flats)
                if tr.enabled:
                    # read-only instrumentation: global dense grad norm
                    # (identical on every rank after the AllReduce)
                    norm = float(np.sqrt(sum(
                        float(np.sum(np.asarray(g).astype(np.float64) ** 2))
                        for g in grads)))
                    self.metrics.histogram("trainer.grad_norm").record(norm)
        self.steps += 1
        return float(np.mean(losses))

    # ------------------------------------------------------------------
    # evaluation forward (the serving-export parity reference)
    # ------------------------------------------------------------------
    def eval_forward(self, local_batches: List[MiniBatch]
                     ) -> List[np.ndarray]:
        """Forward-only pass over per-rank sub-batches; returns each
        rank's logits ``(B/W,)``.

        No optimizer state, gradients or weights are touched — this is
        the eval answer the online-training loop would ship to serving,
        and the reference :func:`repro.serving.freeze` parity is tested
        against. Collectives still run (and are billed) exactly as in
        the forward half of :meth:`train_step`.
        """
        w = self.world_size
        local_batch = self._check_batches(local_batches)
        with self.tracer.span("trainer.eval_forward", cat="trainer",
                              local_batch=local_batch):
            dense_out = self._bottom_forward(local_batches)
            pooled = self._embedding_forward(local_batches, local_batch,
                                             spans=False)
            interacted = self._interaction_forward(dense_out, pooled)
            logits = self._top_forward(interacted)
        return [logits[r].copy() for r in range(w)]

    # ------------------------------------------------------------------
    # checkpoint restore
    # ------------------------------------------------------------------
    def load_dense_state(self, dense: Dict[int, np.ndarray],
                         opt_state: Dict[int, Dict[str, np.ndarray]]
                         ) -> None:
        """Restore dense parameters and optimizer slot state from
        checkpoint payloads (``dense[i]`` is parameter ``i`` at per-rank
        shape; ``opt_state[i]`` its optimizer slots).

        Each value is broadcast-written across the leading axis *in
        place*, preserving the per-rank parameter views, and slot state
        is restored at per-rank shape: every optimizer update is
        elementwise over the replica axis, so the first step broadcasts
        the state back to stacked shape with bitwise-identical values.
        """
        ss = self._stacked_state
        for i, sp in enumerate(ss.dense_parameters()):
            sp.data[...] = dense[i][None]
            slot = ss.dense_opt.state_for(sp)
            slot.clear()
            for name, value in opt_state.get(i, {}).items():
                slot[name] = value.copy()

    # ------------------------------------------------------------------
    # inspection / export
    # ------------------------------------------------------------------
    def gather_table(self, name: str) -> np.ndarray:
        """Reassemble the full (H, D) weight of one table from shards."""
        table_plan = self.plan.tables[name]
        cfg = table_plan.config
        if table_plan.scheme == ShardingScheme.DATA_PARALLEL:
            return self._shard_tables[table_plan.shards[0]].weight.copy()
        full = np.zeros((cfg.num_embeddings, cfg.embedding_dim),
                        dtype=np.float32)
        for shard in table_plan.shards:
            r0, r1 = shard.row_range
            c0, c1 = shard.col_range
            full[r0:r1, c0:c1] = self._shard_tables[shard].weight
        return full

    def to_local_model(self, seed: int = 0) -> DLRM:
        """Export current distributed state as a single-process DLRM."""
        model = DLRM(self.config, seed=seed)
        for dst, src in zip(model.dense_parameters(),
                            self.ranks[0].dense_parameters()):
            dst.data = src.data.copy()
        for t in self.config.tables:
            model.embeddings.table(t.name).weight = self.gather_table(t.name)
        return model

    def replicas_in_sync(self) -> bool:
        """Data-parallel invariant: all dense replicas bitwise identical."""
        ref = self.ranks[0].dense_parameters()
        for state in self.ranks[1:]:
            for a, b in zip(ref, state.dense_parameters()):
                if not np.array_equal(a.data, b.data):
                    return False
        return True
