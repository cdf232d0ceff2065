"""Per-table embedding oracle: one ``forward`` / ``backward`` /
``optimizer.step`` call per table.

:class:`PerTableEmbeddings` exposes the slice of the
:class:`repro.embedding.FusedEmbeddingCollection` surface the parity
tests drive, implemented as the plain per-table loop the fused arena
kernels must match bitwise.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.embedding import EmbeddingTable, SparseGradient, SparseOptimizer


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
