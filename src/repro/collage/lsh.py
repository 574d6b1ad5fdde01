"""Locality-Sensitive Hashing for L2 distance (p-stable projections).

The scheme of Datar et al. [21], as used by the paper: each of ``tables``
hash tables concatenates ``projections`` quantised random projections
``floor((v . a + b) / w)`` into one bucket key.  Near histograms collide
with high probability, so the exhaustive search is narrowed to the
candidates sharing a bucket with the query.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.collage.histogram import HIST_FLOATS


@dataclass(frozen=True)
class LSHParams:
    """Hash family parameters."""

    tables: int = 4            # L independent hash tables
    projections: int = 4       # k projections concatenated per key
    bucket_width: float = 600.0  # w: quantisation step
    seed: int = 1701


class LSHIndex:
    """LSH index over a fixed set of histograms."""

    def __init__(self, params: LSHParams = LSHParams(),
                 dim: int = HIST_FLOATS):
        self.params = params
        self.dim = dim
        rng = np.random.RandomState(params.seed)
        self._a = rng.normal(size=(params.tables, params.projections, dim)
                             ).astype(np.float64)
        self._b = rng.uniform(0, params.bucket_width,
                              size=(params.tables, params.projections))
        self.buckets: list[dict[tuple, np.ndarray]] = [
            {} for _ in range(params.tables)]

    # ------------------------------------------------------------------
    def keys_for(self, vectors: np.ndarray) -> list[list[tuple]]:
        """Bucket keys of each vector in each table.

        Returns ``keys[i][t]`` — the key of vector *i* in table *t*.
        """
        vectors = np.atleast_2d(vectors).astype(np.float64)
        all_keys: list[list[tuple]] = [[] for _ in range(len(vectors))]
        for t in range(self.params.tables):
            proj = vectors @ self._a[t].T + self._b[t]
            quant = np.floor(proj / self.params.bucket_width).astype(np.int64)
            for i, row in enumerate(quant):
                all_keys[i].append(tuple(row))
        return all_keys

    def build(self, vectors: np.ndarray) -> None:
        """Index ``vectors`` (row *i* gets id *i*)."""
        keys = self.keys_for(vectors)
        staging: list[dict[tuple, list[int]]] = [
            {} for _ in range(self.params.tables)]
        for i, per_table in enumerate(keys):
            for t, key in enumerate(per_table):
                staging[t].setdefault(key, []).append(i)
        for t in range(self.params.tables):
            self.buckets[t] = {k: np.array(v, dtype=np.int64)
                               for k, v in staging[t].items()}

    def candidates_for(self, vector: np.ndarray) -> np.ndarray:
        """Ids sharing a bucket with ``vector`` in any table (deduped)."""
        keys = self.keys_for(vector[None, :])[0]
        found = [self.buckets[t].get(key, _EMPTY)
                 for t, key in enumerate(keys)]
        return np.unique(np.concatenate(found))

    # Cost accounting (used by the timing models): flops to hash one
    # vector across all tables.
    def hash_flops(self) -> float:
        return 2.0 * self.params.tables * self.params.projections * self.dim


_EMPTY = np.empty(0, dtype=np.int64)
