"""GPUfs-style paging layer: page cache, page table, host transfers.

This is the substrate the paper integrates ActivePointers with (§V).  It
reimplements the *redesigned* GPUfs paging subsystem the paper describes:

* a single highly concurrent page-table **hash table** for all files,
  sized 16x the number of page-cache frames, with fine-grained per-bucket
  locking for insertion and lock-free reads;
* a **page cache** in GPU memory with per-page reference counts — a page
  with a positive count is *active* and can never be evicted, which is
  the invariant that lets apointers cache translations in registers;
* small **4 KB pages** with host-side transfer **batching** to amortise
  the fixed PCIe cost (§V, "Optimizing for small page size");
* a **gmmap()/gmunmap()** page-granularity API (the original GPUfs
  interface, used as the baseline in §VI-C) and the fault-handler entry
  point ActivePointers calls.
"""

from repro.paging.page_table import PageTable, PageTableEntry
from repro.paging.page_cache import PageCache
from repro.paging.staging import TransferBatcher
from repro.paging.gpufs import (
    GPUfs,
    GPUfsConfig,
    PagingStats,
    PROT_READ,
    PROT_WRITE,
)

__all__ = [
    "PageTable",
    "PageTableEntry",
    "PageCache",
    "TransferBatcher",
    "GPUfs",
    "GPUfsConfig",
    "PagingStats",
    "PROT_READ",
    "PROT_WRITE",
]
