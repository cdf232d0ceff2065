"""Per-table embedding oracles.

:class:`PerTableEmbeddings` exposes the slice of the
:class:`repro.embedding.FusedEmbeddingCollection` surface the parity
tests drive, implemented as the plain per-table loop (one ``forward`` /
``backward`` / ``optimizer.step`` call per table) the fused arena
kernels must match bitwise.

:func:`forward_reference` is the seed's ``np.add.at`` scatter lookup:
the numerical oracle for the reduceat kernels and the ``legacy``
baseline ``benchmarks/bench_fused_kernel.py`` times.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.embedding import EmbeddingTable, SparseGradient, SparseOptimizer


def forward_reference(table: EmbeddingTable, indices: np.ndarray,
                      offsets: np.ndarray) -> np.ndarray:
    """Pooled lookup of ``table`` by sequential ``np.add.at`` scatter.

    ``np.add.at`` accumulates strictly sequentially while
    :func:`~repro.embedding.kernels.segment_sum` uses numpy's pairwise
    reduction order, so for bags longer than ~8 the two are equal only
    to float32 rounding (the pairwise order is the more accurate one).
    Leaves the table ready for :meth:`EmbeddingTable.backward`.
    """
    indices = np.asarray(indices, dtype=np.int64)
    offsets = np.asarray(offsets, dtype=np.int64)
    table._validate(indices, offsets)
    batch = len(offsets) - 1
    lengths = np.diff(offsets)
    bag_ids = np.repeat(np.arange(batch, dtype=np.int64), lengths)
    out = np.zeros((batch, table.config.embedding_dim), dtype=np.float32)
    if len(indices):
        np.add.at(out, bag_ids, table.weight[indices])
    if table.config.pooling_mode == "mean":
        denom = np.maximum(lengths, 1).astype(np.float32)
        out /= denom[:, None]
    table._saved = (indices, bag_ids, lengths)
    return out


class PerTableEmbeddings:
    """Unfused reference over a list of :class:`EmbeddingTable`."""

    def __init__(self, tables: Sequence[EmbeddingTable]) -> None:
        self.tables = list(tables)
        self._by_name = {t.name: t for t in self.tables}

    def table(self, name: str) -> EmbeddingTable:
        return self._by_name[name]

    def forward(self, batch) -> Dict[str, np.ndarray]:
        return {t.name: t.forward(*batch[t.name]) for t in self.tables}

    def backward(self, d_pooled: Dict[str, np.ndarray]
                 ) -> Dict[str, SparseGradient]:
        return {t.name: t.backward(d_pooled[t.name]) for t in self.tables}

    def backward_and_update(self, d_pooled: Dict[str, np.ndarray],
                            optimizer: SparseOptimizer) -> None:
        for t in self.tables:
            optimizer.step(t, t.backward(d_pooled[t.name]))
