"""Looped reference trainer: one python call per rank per phase.

:class:`LoopedNeoTrainer` advances the ``R`` data-parallel replicas with
``R`` sequential calls per phase (forward, loss, backward, AllReduce,
optimizer step), each rank owning its own dense optimizer. It is the
oracle the rank-stacked :class:`repro.core.NeoTrainer` must match
bitwise: losses, dense parameters, gathered tables, comms byte and call
logs, eval outputs and checkpoint files. It overrides only the
trainer's per-phase methods; the embedding path and scheme dispatch are
shared with the production trainer.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.core import NeoTrainer


class LoopedNeoTrainer(NeoTrainer):
    """:class:`NeoTrainer` with per-rank dense replicas and optimizers."""

    def _stack_ranks(self, dense_optimizer):
        for state in self.ranks:
            state.dense_opt = dense_optimizer(state.dense_parameters())
        return None

    def _bottom_forward(self, local_batches):
        return [self.ranks[r].bottom.forward(local_batches[r].dense)
                for r in range(self.world_size)]

    def _interaction_forward(self, dense_out, pooled):
        interacted = []
        for r in range(self.world_size):
            state = self.ranks[r]
            features = [dense_out[r]]
            for t in self.config.tables:
                value = pooled[t.name][r]
                if t.name in state.projections:
                    value = state.projections[t.name].forward(value)
                features.append(value)
            interacted.append(state.interaction.forward_list(features))
        return interacted

    def _top_forward(self, interacted):
        return [self.ranks[r].top.forward(interacted[r])[:, 0]
                for r in range(self.world_size)]

    def _loss_forward(self, logits, local_batches):
        return [self.ranks[r].loss_fn.forward(logits[r],
                                              local_batches[r].labels)
                for r in range(self.world_size)]

    def _dense_backward(self) -> Dict[str, List[np.ndarray]]:
        d_pooled = {t.name: [] for t in self.config.tables}
        for r in range(self.world_size):
            state = self.ranks[r]
            for p in state.dense_parameters():
                p.zero_grad()
            d_logits = state.loss_fn.backward()[:, None]
            d_inter = state.top.backward(d_logits)
            d_features = state.interaction.backward_list(d_inter)
            state.bottom.backward(d_features[0])
            for i, t in enumerate(self.config.tables):
                grad = d_features[1 + i]
                if t.name in state.projections:
                    grad = state.projections[t.name].backward(grad)
                d_pooled[t.name].append(grad)
        return d_pooled

    def _backward_row_wise(self, shards, d_pooled) -> None:
        w = self.world_size
        gathered = self.pg.all_gather([d / w for d in d_pooled])
        for shard in shards:
            d_global = np.concatenate(gathered[shard.rank],
                                      axis=0).astype(np.float32)
            self._shard_update(shard, d_global)

    def _dense_allreduce(self):
        w = self.world_size
        flat_per_rank = [
            self._bucketer.flatten([p.grad for p in
                                    self.ranks[r].dense_parameters()])
            for r in range(w)]
        for b in range(self._bucketer.num_buckets):
            reduced = self.pg.all_reduce([flat_per_rank[r][b]
                                          for r in range(w)])
            for r in range(w):
                flat_per_rank[r][b] = reduced[r]
        return flat_per_rank

    def _optimizer_step(self, flats):
        w = self.world_size
        for r in range(w):
            grads = self._bucketer.unflatten(flats[r])
            for p, g in zip(self.ranks[r].dense_parameters(), grads):
                p.grad = (g / w).astype(np.float32)
            self.ranks[r].dense_opt.step()
        return [p.grad for p in self.ranks[0].dense_parameters()]

    def load_dense_state(self, dense, opt_state) -> None:
        for state in self.ranks:
            for i, p in enumerate(state.dense_parameters()):
                p.data = dense[i].copy()
                slot = state.dense_opt.state_for(p)
                slot.clear()
                for name, value in opt_state.get(i, {}).items():
                    slot[name] = value.copy()
