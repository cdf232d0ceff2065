"""Freezing a trained model into an immutable servable artifact.

Training and serving want opposite things from the same weights:
training needs mutable shards, optimizer state and exact gradients;
serving needs an immutable forward-only snapshot that is cheap to
replicate, quantize and place across the memory hierarchy. ``freeze``
is the boundary: it snapshots a :class:`repro.core.NeoTrainer` (or a
single-process :class:`repro.models.DLRM`) into a
:class:`ServableModel`:

* **fp32 path** — bitwise-identical forward to the source model's eval
  forward (the parity tests assert this exactly);
* **quantized paths** — embedding weights round through fp16/bf16/int8
  storage at freeze time (Section 4.1.4 storage precisions), with the
  per-table max quantization error recorded on the artifact so serving
  error budgets are *measured*, not asserted;
* **hierarchical placement** — an optional per-node HBM budget: tables
  are packed hot-first (smallest first, maximizing the count of
  arena-served tables) and the overflow is served through the software
  cache in front of a DRAM backing store, the CacheEmbedding serving
  arrangement over :mod:`repro.cache`.

All weight arrays are marked read-only; an optimizer step against a
frozen model raises instead of silently corrupting the serving fleet.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import lowp, nn
from ..cache import CACHE_KINDS, ArrayBackingStore, make_cache
from ..data.datagen import MiniBatch
from ..data.freq import FrequencyStats
from ..embedding import (EmbeddingTable, FusedEmbeddingCollection,
                         TTEmbeddingTable, lengths_to_offsets)
from ..embedding.dedup import dedup_cache_read, dedup_forward
from ..embedding.kernels import segment_sum
from ..models.dlrm import DLRM, DLRMConfig
from ..nn import functional as F

__all__ = ["FreezeConfig", "ServableModel", "freeze"]

_EMB_BYTES = {"fp32": 4, "fp16": 2, "bf16": 2, "int8": 1}


@dataclass(frozen=True)
class FreezeConfig:
    """How to snapshot a model for serving.

    ``precision`` is the embedding *storage* precision (dense MLP weights
    always serve in fp32 — they are a rounding error of the footprint).
    ``hot_bytes`` is the HBM budget for arena-resident tables; ``None``
    serves everything from the arena. Cold tables are served through any
    :class:`repro.cache.RowCache`: ``cache_kind`` names the organization
    (built via :func:`repro.cache.make_cache`), ``cache_fraction`` sizes
    its capacity as a fraction of each table's rows, and ``cache_config``
    carries kind-specific knobs (``ways=``, ``chunk_rows=``, ...).
    ``dedup`` routes serve-path lookups through
    :mod:`repro.embedding.dedup` so each unique id in a dispatch pays one
    arena/cache read (bitwise identical output).

    The pre-RowCache spellings ``cache_rows_fraction=`` and
    ``cache_ways=`` were removed after their deprecation window; pass
    ``cache_fraction=`` / ``cache_config={'ways': ...}``.
    """

    precision: str = "fp32"
    hot_bytes: Optional[float] = None
    cache_kind: str = "set_associative"
    cache_fraction: float = 0.25
    cache_config: Optional[Dict] = None
    dedup: bool = True

    def __post_init__(self) -> None:
        if self.precision not in _EMB_BYTES:
            raise ValueError(
                f"precision must be one of {sorted(_EMB_BYTES)}, "
                f"got {self.precision!r}")
        if self.hot_bytes is not None and self.hot_bytes < 0:
            raise ValueError("hot_bytes must be >= 0")
        if self.cache_kind not in CACHE_KINDS:
            raise ValueError(
                f"cache_kind must be one of {list(CACHE_KINDS)}, "
                f"got {self.cache_kind!r}")
        if not 0.0 < self.cache_fraction <= 1.0:
            raise ValueError("cache_fraction must be in (0, 1]")


class _ColdTable:
    """Forward-only pooled lookup through the software cache.

    Wraps a read-only backing store plus any :class:`repro.cache.RowCache`
    (built via :func:`repro.cache.make_cache`); rows are exact (the cache
    is a placement model, not an approximation) so the pooled output is
    bitwise-identical to a direct lookup while hit/miss traffic
    accumulates in ``cache.stats`` for the perf model. With ``dedup``,
    each unique id in a dispatch touches the cache once
    (:func:`repro.embedding.dedup.dedup_cache_read`).
    """

    def __init__(self, name: str, weight: np.ndarray, pooling_mode: str,
                 cache_kind: str, cache_fraction: float,
                 cache_config: Optional[Dict] = None,
                 dedup: bool = True) -> None:
        self.name = name
        self.pooling_mode = pooling_mode
        self.dedup = dedup
        self.backing = ArrayBackingStore(weight)
        # the store copies its input (astype), so freeze its copy too
        self.backing.rows.flags.writeable = False
        num_rows, dim = weight.shape
        target = max(1, int(num_rows * cache_fraction))
        self.cache = make_cache(cache_kind, row_dim=dim,
                                capacity_rows=target,
                                **dict(cache_config or {}))
        self.rows_requested = 0
        self.rows_read = 0

    def warm(self, histogram: np.ndarray) -> int:
        """Pre-pack the cache from a frequency histogram (kinds that
        support it); warm traffic is excluded from the byte counters."""
        warm = getattr(self.cache, "warm", None)
        if warm is None:
            return 0
        count = warm(histogram, self.backing)
        self.backing.reset_counters()
        return count

    def forward(self, indices: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        indices = np.asarray(indices, dtype=np.int64)
        offsets = np.asarray(offsets, dtype=np.int64)
        if not len(indices):
            rows = np.zeros((0, self.backing.row_dim), dtype=np.float32)
        elif self.dedup:
            rows, unique_count = dedup_cache_read(
                self.cache, indices, self.backing)
            self.rows_requested += len(indices)
            self.rows_read += unique_count
        else:
            rows = self.cache.read(indices, self.backing)
            self.rows_requested += len(indices)
            self.rows_read += len(indices)
        out = segment_sum(rows, offsets)
        if self.pooling_mode == "mean":
            lengths = np.diff(offsets)
            out /= np.maximum(lengths, 1).astype(np.float32)[:, None]
        return out


class _TTServingTable:
    """Forward-only pooled lookup over frozen TT cores.

    The representation planner may assign a table the ``tt`` path: the
    trained fp32 weight is TT-SVD-decomposed at freeze time
    (:meth:`repro.embedding.TTEmbeddingTable.from_weight`) and rows are
    re-materialized per lookup from the read-only cores — trading
    contraction FLOPs for an order-of-magnitude storage cut.
    """

    def __init__(self, name: str, weight: np.ndarray, pooling_mode: str,
                 ranks) -> None:
        self.name = name
        self.pooling_mode = pooling_mode
        self.table = TTEmbeddingTable.from_weight(name, weight, ranks=ranks)
        for core in self.table.cores:
            core.flags.writeable = False

    @property
    def storage_bytes(self) -> int:
        return int(sum(c.nbytes for c in self.table.cores))

    def max_error(self, weight: np.ndarray) -> float:
        """Measured max |fp32 - materialized| against the source weight."""
        if not weight.size:
            return 0.0
        return float(np.max(np.abs(weight - self.table.materialize())))

    def forward(self, indices: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        offsets = np.asarray(offsets, dtype=np.int64)
        out = self.table.forward(np.asarray(indices, dtype=np.int64),
                                 offsets)
        if self.pooling_mode == "mean":
            lengths = np.diff(offsets)
            out /= np.maximum(lengths, 1).astype(np.float32)[:, None]
        return out


def _quantize_weight(weight: np.ndarray, precision: str) -> np.ndarray:
    if precision == "fp32":
        return weight.astype(np.float32)
    if precision == "fp16":
        return lowp.fp16_roundtrip(weight).astype(np.float32)
    if precision == "bf16":
        return lowp.bf16_roundtrip(weight).astype(np.float32)
    codes, scale, offset = lowp.quantize_int8_rowwise(weight)
    return lowp.dequantize_int8_rowwise(codes, scale, offset).astype(
        np.float32)


@dataclass
class ServableModel:
    """An immutable forward-only DLRM snapshot for the serving fleet.

    Built via :func:`freeze`; exposes :meth:`forward` (logits) and
    :meth:`predict` (probabilities) over :class:`MiniBatch` inputs, plus
    the footprint/quantization metadata capacity planning needs. The
    underlying weight arrays are read-only numpy views.
    """

    config: DLRMConfig
    precision: str
    bottom: nn.MLP
    top: nn.MLP
    interaction: nn.Module
    projections: Dict[str, nn.Linear]
    hot_tables: Optional[FusedEmbeddingCollection]
    cold_tables: Dict[str, _ColdTable]
    quantization_error: Dict[str, float] = field(default_factory=dict)
    # training steps the source had completed at freeze time — snapshot
    # provenance the online hot-swap slot uses for staleness accounting
    source_step: int = 0
    # route serve-path lookups through repro.embedding.dedup: each unique
    # id per dispatch pays one arena read (output is bitwise identical)
    dedup: bool = True
    dedup_rows_requested: int = 0
    dedup_rows_read: int = 0
    # plan-aware artifacts: TT-compressed tables, the per-table kind map
    # and the per-table stored bytes (uniform exports leave these empty)
    tt_tables: Dict[str, _TTServingTable] = field(default_factory=dict)
    representation: Dict[str, str] = field(default_factory=dict)
    table_storage_bytes: Dict[str, int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def hot_table_names(self) -> List[str]:
        return self.hot_tables.names if self.hot_tables is not None else []

    @property
    def cold_table_names(self) -> List[str]:
        return sorted(self.cold_tables)

    @property
    def tt_table_names(self) -> List[str]:
        return sorted(self.tt_tables)

    def max_quantization_error(self) -> float:
        """Largest per-element |fp32 - stored| across all tables."""
        return max(self.quantization_error.values(), default=0.0)

    def embedding_storage_bytes(self) -> int:
        """Serving footprint of the embedding tables. Plan-aware exports
        sum the per-table stored bytes the plan chose; uniform exports
        use the single storage precision (int8 includes the per-row
        float32 scale/offset pair)."""
        if self.table_storage_bytes:
            return int(sum(self.table_storage_bytes.values()))
        per_element = _EMB_BYTES[self.precision]
        total = 0
        for t in self.config.tables:
            total += t.num_parameters * per_element
            if self.precision == "int8":
                total += t.num_embeddings * 8
        return total

    def dense_storage_bytes(self) -> int:
        return self.config.num_dense_parameters() * 4

    def storage_bytes(self) -> int:
        return self.embedding_storage_bytes() + self.dense_storage_bytes()

    # ------------------------------------------------------------------
    def _pooled(self, batch: MiniBatch) -> Dict[str, np.ndarray]:
        pooled: Dict[str, np.ndarray] = {}
        if self.hot_tables is not None:
            if self.dedup:
                for name in self.hot_table_names:
                    indices, offsets = batch.sparse[name]
                    pooled[name], unique_count = dedup_forward(
                        self.hot_tables.table(name), indices, offsets)
                    self.dedup_rows_requested += len(indices)
                    self.dedup_rows_read += unique_count
            else:
                hot_inputs = {name: batch.sparse[name]
                              for name in self.hot_table_names}
                pooled = self.hot_tables.forward(hot_inputs)
        for name, table in self.cold_tables.items():
            indices, offsets = batch.sparse[name]
            pooled[name] = table.forward(indices, offsets)
        for name, tt_table in self.tt_tables.items():
            indices, offsets = batch.sparse[name]
            pooled[name] = tt_table.forward(indices, offsets)
        return pooled

    def forward(self, batch: MiniBatch) -> np.ndarray:
        """Logits of shape (B,) — the same arithmetic as
        :meth:`repro.models.DLRM.forward` over frozen weights."""
        dense_out = self.bottom.forward(batch.dense)
        pooled = self._pooled(batch)
        features = [dense_out]
        for t in self.config.tables:
            value = pooled[t.name]
            if t.name in self.projections:
                value = self.projections[t.name].forward(value)
            features.append(value)
        interacted = self.interaction.forward_list(features)
        return self.top.forward(interacted)[:, 0]

    def predict(self, batch: MiniBatch) -> np.ndarray:
        """Click probabilities of shape (B,)."""
        return F.sigmoid(self.forward(batch))

    def nnz(self, batch: MiniBatch) -> int:
        """Total embedding rows a batch touches (perf-model input)."""
        return int(sum(len(ids) for ids, _ in batch.sparse.values()))


def _freeze_array(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float32)
    a.flags.writeable = False
    return a


def freeze(source, config: Optional[FreezeConfig] = None,
           step: Optional[int] = None,
           frequency_stats: Optional[FrequencyStats] = None,
           plan=None) -> ServableModel:
    """Snapshot a trainer or reference model into a :class:`ServableModel`.

    ``source`` is a :class:`repro.core.NeoTrainer` (exported via its
    ``to_local_model``, i.e. rank-0 dense replicas + gathered shards) or
    a :class:`repro.models.DLRM`. ``step`` overrides the recorded
    training-step provenance; by default a trainer's own step counter is
    stamped onto the artifact (``source_step``).

    ``frequency_stats`` (a :class:`repro.data.FrequencyStats`, typically
    from the ingestion service's ``track_frequencies``) makes the
    hot/cold packing frequency-aware: tables are packed into the HBM
    budget by observed accesses *per byte* instead of smallest-first,
    and cold-tier caches that support histogram warm-up (the
    ``freq_aware`` kind) are pre-packed with each table's hottest rows
    before the artifact serves its first request.

    ``plan`` is a :class:`repro.planner.RepresentationPlan`: instead of
    one uniform storage precision and budget-driven hot/cold packing,
    each table takes the representation the planner assigned it —
    ``full``/``fp16``/``bf16``/``int8`` arena-resident, ``tt``
    (TT-SVD-compressed cores), or ``cold`` (exact fp32 behind the
    software cache). With a plan, ``cfg.precision`` and
    ``cfg.hot_bytes`` are ignored (the plan already made those calls)
    while the cache knobs still shape the cold tier; the artifact's
    ``precision`` reads ``"mixed"`` and per-table stored bytes land in
    ``table_storage_bytes``.
    """
    cfg = config if config is not None else FreezeConfig()
    if step is None:
        step = int(getattr(source, "steps", 0))
    model = source.to_local_model() if hasattr(source, "to_local_model") \
        else source
    if not isinstance(model, DLRM):
        raise TypeError(
            f"freeze() needs a NeoTrainer or DLRM, got {type(source)!r}")
    dlrm_config = model.config

    # dense stack: fresh layers with copied, read-only weights
    bottom = nn.MLP((dlrm_config.dense_dim,) + dlrm_config.bottom_mlp,
                    final_activation="relu", name="bottom")
    top = nn.MLP((dlrm_config.interaction_dim,) + dlrm_config.top_mlp + (1,),
                 name="top")
    projections: Dict[str, nn.Linear] = {}
    if dlrm_config.project_features:
        for t in dlrm_config.tables:
            projections[t.name] = nn.Linear(
                t.embedding_dim, dlrm_config.embedding_dim,
                name=f"proj.{t.name}")
    dst_params = bottom.parameters()
    for t in dlrm_config.tables:
        if t.name in projections:
            dst_params.extend(projections[t.name].parameters())
    dst_params += top.parameters()
    for dst, src in zip(dst_params, model.dense_parameters()):
        dst.data = _freeze_array(src.data.copy())

    if plan is not None:
        return _freeze_planned(model, cfg, plan, step, frequency_stats,
                               bottom, top, projections)

    # embeddings: quantize at freeze time, then place hot/cold
    quantized: Dict[str, np.ndarray] = {}
    errors: Dict[str, float] = {}
    for t in dlrm_config.tables:
        weight = model.embeddings.table(t.name).weight
        q = _quantize_weight(weight, cfg.precision)
        quantized[t.name] = q
        errors[t.name] = float(np.max(np.abs(weight - q))) \
            if weight.size else 0.0

    per_element = _EMB_BYTES[cfg.precision]
    hot: List[EmbeddingTable] = []
    cold: Dict[str, _ColdTable] = {}
    if frequency_stats is not None:
        # frequency-aware packing: spend the HBM budget on the tables
        # with the most observed accesses per byte
        def hotness_per_byte(t):
            return frequency_stats.total(t.name) / max(
                1, t.num_parameters * per_element)
        order = sorted(dlrm_config.tables,
                       key=lambda t: (-hotness_per_byte(t), t.name))
    else:
        # smallest-first packing maximizes how many tables stay
        # arena-served; the big cold tables are exactly the ones the
        # cache tier is for
        order = sorted(dlrm_config.tables, key=lambda t: (t.num_parameters,
                                                          t.name))
    budget = cfg.hot_bytes if cfg.hot_bytes is not None else float("inf")
    for t in order:
        table_bytes = t.num_parameters * per_element
        if table_bytes <= budget:
            budget -= table_bytes
            hot.append(EmbeddingTable(t, weight=quantized[t.name]))
        else:
            cold[t.name] = _ColdTable(
                t.name, _freeze_array(quantized[t.name]), t.pooling_mode,
                cfg.cache_kind, cfg.cache_fraction, cfg.cache_config,
                dedup=cfg.dedup)
            if frequency_stats is not None:
                cold[t.name].warm(frequency_stats.histogram(
                    t.name, t.num_embeddings))
    hot_collection = None
    if hot:
        # keep config order inside the collection (feature order is config
        # order in forward(); the arena regroups by dim internally anyway)
        hot.sort(key=lambda table: [t.name for t in dlrm_config.tables]
                 .index(table.name))
        hot_collection = FusedEmbeddingCollection(hot)
        # a view's writeable flag is captured at creation, so freeze the
        # arena storage AND every table's view of it
        for group in hot_collection.arena.groups:
            group.storage.flags.writeable = False
            for view in group.views:
                view.flags.writeable = False

    return ServableModel(
        config=dlrm_config, precision=cfg.precision, bottom=bottom, top=top,
        interaction=dlrm_config.make_interaction(), projections=projections,
        hot_tables=hot_collection, cold_tables=cold,
        quantization_error=errors, source_step=step, dedup=cfg.dedup)


def _freeze_planned(model: DLRM, cfg: FreezeConfig, plan, step: int,
                    frequency_stats: Optional[FrequencyStats],
                    bottom: nn.MLP, top: nn.MLP,
                    projections: Dict[str, nn.Linear]) -> ServableModel:
    """Place each table per a :class:`repro.planner.RepresentationPlan`
    (duck-typed: anything with an ``assignments`` name->assignment map
    carrying ``kind``/``tt_ranks`` works, so serving never imports the
    planner package)."""
    dlrm_config = model.config
    assignments = plan.assignments
    missing = [t.name for t in dlrm_config.tables
               if t.name not in assignments]
    if missing:
        raise ValueError(f"plan has no assignment for tables {missing}")

    hot: List[EmbeddingTable] = []
    cold: Dict[str, _ColdTable] = {}
    tt_tables: Dict[str, _TTServingTable] = {}
    errors: Dict[str, float] = {}
    representation: Dict[str, str] = {}
    table_bytes: Dict[str, int] = {}
    for t in dlrm_config.tables:
        weight = model.embeddings.table(t.name).weight
        assignment = assignments[t.name]
        kind = assignment.kind
        representation[t.name] = kind
        if kind in ("full", "fp16", "bf16", "int8"):
            precision = "fp32" if kind == "full" else kind
            q = _quantize_weight(weight, precision)
            errors[t.name] = float(np.max(np.abs(weight - q))) \
                if weight.size else 0.0
            hot.append(EmbeddingTable(t, weight=q))
            table_bytes[t.name] = t.num_parameters * _EMB_BYTES[precision]
            if kind == "int8":
                table_bytes[t.name] += t.num_embeddings * 8
        elif kind == "tt":
            ranks = assignment.tt_ranks or (8, 8)
            tt = _TTServingTable(t.name, weight, t.pooling_mode, ranks)
            errors[t.name] = tt.max_error(weight)
            tt_tables[t.name] = tt
            table_bytes[t.name] = tt.storage_bytes
        elif kind == "cold":
            cold[t.name] = _ColdTable(
                t.name, _freeze_array(weight.copy()), t.pooling_mode,
                cfg.cache_kind, cfg.cache_fraction, cfg.cache_config,
                dedup=cfg.dedup)
            if frequency_stats is not None:
                cold[t.name].warm(frequency_stats.histogram(
                    t.name, t.num_embeddings))
            errors[t.name] = 0.0
            table_bytes[t.name] = t.num_parameters * 4
        else:
            raise ValueError(
                f"plan assigns table {t.name!r} unknown kind {kind!r}")

    hot_collection = None
    if hot:
        hot_collection = FusedEmbeddingCollection(hot)
        for group in hot_collection.arena.groups:
            group.storage.flags.writeable = False
            for view in group.views:
                view.flags.writeable = False

    return ServableModel(
        config=dlrm_config, precision="mixed", bottom=bottom, top=top,
        interaction=dlrm_config.make_interaction(), projections=projections,
        hot_tables=hot_collection, cold_tables=cold,
        quantization_error=errors, source_step=step, dedup=cfg.dedup,
        tt_tables=tt_tables, representation=representation,
        table_storage_bytes=table_bytes)
