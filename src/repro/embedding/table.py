"""Embedding tables with pooled (EmbeddingBag-style) lookup.

An embedding table of shape ``(H, D)`` maps categorical ids to dense
vectors; a pooled lookup reduces the ``L`` ids of each sample ("bag") into a
single vector. This is the memory-bandwidth-bound operator at the heart of
DLRM (Section 4.1 of the paper).

Inputs use the jagged ``(indices, offsets)`` layout of
``torch.nn.EmbeddingBag``: ``indices`` concatenates all ids, ``offsets[b]``
is the start of bag ``b`` and has length ``B + 1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .kernels import expand_bag_ids, segment_sum

__all__ = ["EmbeddingTableConfig", "SparseGradient", "EmbeddingTable",
           "lengths_to_offsets", "offsets_to_lengths"]


def lengths_to_offsets(lengths: np.ndarray) -> np.ndarray:
    """Convert per-bag lengths to the (B+1)-element offsets vector."""
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return offsets


def offsets_to_lengths(offsets: np.ndarray) -> np.ndarray:
    return np.diff(offsets).astype(np.int64)


@dataclass(frozen=True)
class EmbeddingTableConfig:
    """Static description of one embedding table.

    ``avg_pooling`` (the paper's ``L``) and ``batch_hotness`` only feed the
    sharding cost model and the performance model; the functional path uses
    whatever indices it is given.
    """

    name: str
    num_embeddings: int  # H
    embedding_dim: int   # D
    avg_pooling: float = 1.0  # L
    pooling_mode: str = "sum"
    precision: str = "fp32"

    def __post_init__(self) -> None:
        if self.num_embeddings <= 0:
            raise ValueError(f"num_embeddings must be positive: {self}")
        if self.embedding_dim <= 0:
            raise ValueError(f"embedding_dim must be positive: {self}")
        if self.pooling_mode not in ("sum", "mean"):
            raise ValueError(f"pooling_mode must be 'sum' or 'mean': {self}")

    @property
    def num_parameters(self) -> int:
        return self.num_embeddings * self.embedding_dim

    def memory_bytes(self, precision: Optional[str] = None) -> int:
        from .. import lowp
        return self.num_parameters * lowp.bytes_per_element(
            precision or self.precision)


@dataclass
class SparseGradient:
    """Gradient of a pooled lookup w.r.t. table rows, in COO-row form.

    ``rows[k]`` received gradient ``values[k]``; the same row may appear
    multiple times (once per occurrence in the batch) — exact optimizers
    merge duplicates before updating (Section 4.1.2).
    """

    rows: np.ndarray          # (nnz,) int64
    values: np.ndarray        # (nnz, D) float32
    num_embeddings: int = 0   # H, for densification

    def to_dense(self) -> np.ndarray:
        """Scatter-add into a dense (H, D) gradient (reference semantics)."""
        if self.num_embeddings <= 0:
            raise ValueError("num_embeddings must be set to densify")
        dense = np.zeros((self.num_embeddings, self.values.shape[1]),
                         dtype=np.float32)
        np.add.at(dense, self.rows, self.values)
        return dense


class EmbeddingTable:
    """One embedding table with pooled lookup and explicit sparse backward."""

    def __init__(self, config: EmbeddingTableConfig,
                 rng: Optional[np.random.Generator] = None,
                 weight: Optional[np.ndarray] = None) -> None:
        self.config = config
        if weight is not None:
            if weight.shape != (config.num_embeddings, config.embedding_dim):
                raise ValueError(
                    f"weight shape {weight.shape} does not match config "
                    f"({config.num_embeddings}, {config.embedding_dim})")
            self.weight = weight.astype(np.float32, copy=True)
        else:
            rng = rng if rng is not None else np.random.default_rng(0)
            # DLRM reference init: uniform in +-1/sqrt(H)
            limit = 1.0 / np.sqrt(config.num_embeddings)
            self.weight = rng.uniform(
                -limit, limit,
                size=(config.num_embeddings, config.embedding_dim),
            ).astype(np.float32)
        self._saved: Optional[tuple] = None

    @property
    def name(self) -> str:
        return self.config.name

    def _validate(self, indices: np.ndarray, offsets: np.ndarray) -> None:
        if offsets.ndim != 1 or len(offsets) < 1:
            raise ValueError("offsets must be a 1-D array of length B+1")
        if offsets[0] != 0 or offsets[-1] != len(indices):
            raise ValueError(
                f"offsets must start at 0 and end at len(indices)="
                f"{len(indices)}, got [{offsets[0]}, {offsets[-1]}]")
        if len(indices) and (indices.min() < 0
                             or indices.max() >= self.config.num_embeddings):
            raise IndexError(
                f"indices out of range for table {self.name} with "
                f"H={self.config.num_embeddings}")

    def forward(self, indices: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """Pooled lookup: returns (B, D) with B = len(offsets) - 1.

        One gather plus one segment-reduce (``np.add.reduceat``), the
        CPU analogue of the paper's batched FBGEMM lookup. Bag ids for
        the backward pass are derived lazily — the forward hot path
        never materializes a scatter index.
        """
        indices = np.asarray(indices, dtype=np.int64)
        offsets = np.asarray(offsets, dtype=np.int64)
        self._validate(indices, offsets)
        lengths = np.diff(offsets)
        gathered = self.weight[indices] if len(indices) else \
            np.zeros((0, self.config.embedding_dim), dtype=np.float32)
        out = segment_sum(gathered, offsets)
        if self.config.pooling_mode == "mean":
            denom = np.maximum(lengths, 1).astype(np.float32)
            out /= denom[:, None]
        self._saved = (indices, None, lengths)
        return out

    def backward(self, dy: np.ndarray) -> SparseGradient:
        """Gradient w.r.t. rows touched in the last forward pass."""
        if self._saved is None:
            raise RuntimeError("backward called before forward")
        indices, bag_ids, lengths = self._saved
        if bag_ids is None:
            bag_ids = expand_bag_ids(lengths)
            self._saved = (indices, bag_ids, lengths)
        grad_rows = dy[bag_ids].astype(np.float32)
        if self.config.pooling_mode == "mean":
            denom = np.maximum(lengths, 1).astype(np.float32)
            grad_rows = grad_rows / denom[bag_ids][:, None]
        return SparseGradient(rows=indices, values=grad_rows,
                              num_embeddings=self.config.num_embeddings)

    def num_parameters(self) -> int:
        return self.config.num_parameters
