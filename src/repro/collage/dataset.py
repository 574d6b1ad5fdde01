"""Synthetic image-histogram dataset, standing in for 80M tiny images.

The paper stores pre-computed color histograms of 10 million images in a
40 GB file, one 4 KB-padded histogram per image, grouped in buckets by
their LSH keys.  We generate a scaled-down equivalent with the same
structure and statistics that matter:

* **Clustered content** — histograms are drawn around a set of cluster
  centres, so LSH buckets have realistic, skewed occupancy and nearby
  queries share candidates (the data-reuse effect Figure 9's inputs
  vary).
* **Bucket-ordered layout** — the file stores histograms grouped by
  their primary-table LSH bucket, and a directory maps each image id to
  its record offset, exactly what the GPU kernels need for candidate
  lookups.
* **Aligned and unaligned variants** — records padded to one 4 KB page,
  or packed back-to-back at 3 KB (the §VI-E unaligned experiment).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.collage.histogram import (
    HIST_BYTES,
    HIST_BYTES_PADDED,
    HIST_FLOATS,
)
from repro.collage.lsh import LSHIndex, LSHParams


@dataclass(frozen=True)
class DatasetParams:
    """Shape of the synthetic dataset."""

    num_images: int = 8192
    num_clusters: int = 64
    pixels_per_image: int = 1024      # histogram mass (32x32 images)
    noise: float = 0.25
    aligned: bool = True              # 4 KB records vs packed 3 KB
    seed: int = 42

    @property
    def record_bytes(self) -> int:
        return HIST_BYTES_PADDED if self.aligned else HIST_BYTES


class CollageDataset:
    """Histogram dataset plus LSH index and file layout."""

    def __init__(self, params: DatasetParams = DatasetParams(),
                 lsh_params: LSHParams = LSHParams()):
        self.params = params
        rng = np.random.RandomState(params.seed)
        self.centers = self._make_centers(rng)
        self.histograms = self._make_histograms(rng)
        self.lsh = LSHIndex(lsh_params)
        self.lsh.build(self.histograms)
        self.order = self._bucket_order()
        #: record index of image id in the file
        self.position_of = np.empty(params.num_images, dtype=np.int64)
        self.position_of[self.order] = np.arange(params.num_images)

    # ------------------------------------------------------------------
    def _make_centers(self, rng) -> np.ndarray:
        p = self.params
        centers = rng.dirichlet(np.ones(HIST_FLOATS) * 0.05,
                                size=p.num_clusters)
        return centers * p.pixels_per_image * 3

    def _make_histograms(self, rng) -> np.ndarray:
        p = self.params
        assignment = rng.randint(0, p.num_clusters, size=p.num_images)
        base = self.centers[assignment]
        noise = rng.normal(0, p.noise, size=base.shape) * (base + 1.0)
        hists = np.maximum(base + noise, 0.0)
        return hists.astype(np.float32)

    def _bucket_order(self) -> np.ndarray:
        """Image ids ordered by their primary-table bucket (file order)."""
        table0 = self.lsh.buckets[0]
        order = []
        for key in sorted(table0):
            order.extend(int(i) for i in table0[key])
        return np.array(order, dtype=np.int64)

    # ------------------------------------------------------------------
    def file_bytes(self) -> np.ndarray:
        """The dataset file image: bucket-ordered records."""
        p = self.params
        rec = p.record_bytes
        out = np.zeros(p.num_images * rec, dtype=np.uint8)
        for pos, img in enumerate(self.order):
            raw = self.histograms[img].tobytes()
            out[pos * rec:pos * rec + len(raw)] = np.frombuffer(
                raw, dtype=np.uint8)
        return out

    def record_offset(self, image_id: int) -> int:
        """Byte offset of an image's histogram in the file."""
        return int(self.position_of[image_id]) * self.params.record_bytes

    @property
    def total_bytes(self) -> int:
        return self.params.num_images * self.params.record_bytes

    # ------------------------------------------------------------------
    def candidates_for(self, query: np.ndarray) -> np.ndarray:
        return self.lsh.candidates_for(query)
