"""Shared fixtures for the ActivePointers core tests."""

import numpy as np
import pytest

from repro.core import APConfig, AVM
from repro.gpu import Device
from repro.host import HostFileSystem
from repro.host.ramfs import RamFS
from repro.paging import GPUfs, GPUfsConfig

PAGE = 4096
FILE_PAGES = 32


@pytest.fixture
def file_bytes():
    return np.random.RandomState(3).randint(
        0, 256, FILE_PAGES * PAGE, dtype=np.uint8)


@pytest.fixture
def device():
    return Device(memory_bytes=64 * 1024 * 1024)


@pytest.fixture
def gpufs(device, file_bytes):
    fs = RamFS()
    fs.create("data", file_bytes)
    return GPUfs(device, HostFileSystem(fs),
                 GPUfsConfig(page_size=PAGE, num_frames=16))


def make_avm(gpufs=None, **kwargs) -> AVM:
    return AVM(APConfig(**kwargs), gpufs=gpufs)


def launch(device, kernel, *args, grid=1, block_threads=32,
           scratchpad_bytes=0):
    return device.launch(kernel, grid=grid, block_threads=block_threads,
                         args=args, scratchpad_bytes=scratchpad_bytes)
