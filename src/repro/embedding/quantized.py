"""Reduced-precision embedding table storage (paper Sections 4.1.4, 5.3.2).

Storing embedding tables below FP32 halves (FP16/BF16) or quarters (INT8
row-wise) the model footprint. In the paper this is what gives the sharder
placement headroom for model A2 (+20% throughput via better balance) and is
one of the two tricks that fit the 12T-parameter model F1 in Section 5.3.3.

Training reads rows at full precision (dequantize on lookup — the
"high-precision cache backed by low-precision tables" of [57]) and writes
updated rows back through quantization.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .. import lowp
from .table import EmbeddingTable, EmbeddingTableConfig

__all__ = ["QuantizedEmbeddingTable"]


class QuantizedEmbeddingTable(EmbeddingTable):
    """An :class:`EmbeddingTable` whose backing store is low precision.

    The public interface is identical to the FP32 table — ``weight`` is
    exposed as an FP32 view so that optimizers work unchanged — but every
    write is rounded through the storage precision, exactly reproducing the
    numerics of training on FP16/BF16/INT8 tables.

    Implementation note: ``weight`` holds the FP32 *dequantization* of the
    low-precision store at all times, and :meth:`sync_storage` (called after
    each optimizer step by trainers) re-rounds it. ``storage_bytes`` reports
    the true low-precision footprint for capacity studies.
    """

    def __init__(self, config: EmbeddingTableConfig,
                 rng: Optional[np.random.Generator] = None,
                 weight: Optional[np.ndarray] = None) -> None:
        if config.precision not in ("fp16", "bf16", "int8"):
            raise ValueError(
                f"QuantizedEmbeddingTable needs precision fp16/bf16/int8, "
                f"got {config.precision!r}")
        super().__init__(config, rng=rng, weight=weight)
        self.sync_storage()

    def _roundtrip(self, values: np.ndarray) -> np.ndarray:
        precision = self.config.precision
        if precision == "fp16":
            return lowp.fp16_roundtrip(values)
        if precision == "bf16":
            return lowp.bf16_roundtrip(values)
        codes, scale, offset = lowp.quantize_int8_rowwise(values)
        return lowp.dequantize_int8_rowwise(codes, scale, offset)

    def sync_storage(self) -> None:
        """Round the FP32 view through the storage precision (write-back),
        in place."""
        self.weight[...] = self._roundtrip(self.weight).astype(np.float32)

    def storage_bytes(self) -> int:
        """True low-precision footprint, incl. int8 per-row scale/offset."""
        base = self.config.memory_bytes()
        if self.config.precision == "int8":
            # two float32 (scale, offset) per row
            base += self.config.num_embeddings * 8
        return base

    def quantization_error(self) -> float:
        """Max |fp32_view - roundtrip(fp32_view)| — zero when synced."""
        return float(np.max(np.abs(self.weight - self._roundtrip(self.weight)))
                     ) if self.weight.size else 0.0
