"""GPUfsConfig is built from keyword arguments only and is frozen."""

import warnings

import pytest

from repro.paging.gpufs import GPUfsConfig


class TestPositionalRemoval:
    def test_keyword_construction_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            GPUfsConfig(page_size=4096, num_frames=8)

    def test_positional_construction_raises(self):
        with pytest.raises(TypeError, match="positional"):
            GPUfsConfig(4096, 8)

    def test_mixed_positional_and_keyword_raises(self):
        with pytest.raises(TypeError, match="keyword"):
            GPUfsConfig(4096, batching=False)

    def test_config_is_frozen_and_hashable(self):
        cfg = GPUfsConfig(num_frames=8)
        with pytest.raises(Exception):
            cfg.num_frames = 9
        assert hash(cfg) == hash(GPUfsConfig(num_frames=8))

