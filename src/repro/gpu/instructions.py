"""Timed request types yielded by warp coroutines to the engine.

A kernel never constructs these directly; :class:`repro.gpu.kernel.
WarpContext` builds them.  Each request describes one *macro-op* — a unit
of work whose resource usage and warp-visible latency the engine models.

Two costs are distinguished throughout:

``count``
    how many warp-instructions the macro-op *issues* (occupying SM issue
    bandwidth shared by all resident warps), and

``chain``
    the length of the dependent-instruction chain, which determines the
    latency the *issuing warp itself* observes.  The gap between the two
    is exactly the paper's free-computation bubble: instructions cost
    issue slots but their latency can be hidden by other warps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional


@dataclass
class Request:
    """Base class for timed requests."""

    # Attribution metadata, set by :class:`~repro.gpu.kernel.WarpContext`
    # only while a tracer is recording stall intervals.  Plain class
    # attributes (not dataclass fields) so subclass constructors keep
    # their positional signatures and an untagged request costs nothing.
    #
    # ``tag`` names the activity the request belongs to ("translation",
    # "tlb_miss", "fault_wait", ...) and refines the recorded stall
    # reason; ``translation_charge`` is the ``[count, chain]`` of the
    # charged work tagged "translation" that was folded into this
    # request (``None`` when there was none; the observer decomposes
    # it, and no other tag's share is kept); ``chain_tag`` marks a
    # MemAccess's overlap/post chains as belonging to that activity.
    tag = ""
    translation_charge = None
    chain_tag = ""


@dataclass
class Compute(Request):
    """Execute ``count`` warp-instructions with a dependent chain."""

    count: float
    chain: Optional[float] = None

    def chain_length(self) -> float:
        return self.count if self.chain is None else self.chain


@dataclass
class MemAccess(Request):
    """A global-memory access by the whole warp.

    ``transactions`` 128-byte DRAM transactions are charged against the
    shared bandwidth server.  ``is_store`` accesses do not stall the warp
    (write-back semantics); loads stall it for the DRAM latency.
    ``overlap_chain`` models speculative prefetch: a dependent instruction
    chain executed *in parallel* with the memory access (the warp resumes
    at ``max(mem_latency, overlap_chain)``).
    """

    transactions: int
    is_store: bool = False
    count: float = 0.0            # extra instructions issued with the access
    chain: float = 0.0            # serialized chain before the access
    overlap_chain: float = 0.0    # chain overlapped with the access
    post_chain: float = 0.0       # chain after the data arrives
    nonblocking: bool = False     # issue and continue (MLP); see LoadFence


@dataclass
class LoadFence(Request):
    """Wait until every outstanding non-blocking load has arrived."""


@dataclass
class ScratchAccess(Request):
    """Per-threadblock scratchpad access (fixed small latency)."""

    count: float = 1.0


@dataclass
class AtomicOp(Request):
    """Global-memory atomic; serializes on its target address."""

    address: int


@dataclass
class Barrier(Request):
    """``__syncthreads()`` — wait for every warp in the threadblock."""


@dataclass
class AcquireLock(Request):
    """Block until the given :class:`TimedLock` is free, then hold it."""

    lock: "TimedLock"


@dataclass
class ReleaseLock(Request):
    lock: "TimedLock"


@dataclass
class PcieTransfer(Request):
    """A DMA transfer over the PCIe link (either direction).

    ``latency_free`` transfers ride an already-issued DMA batch: they
    consume link bandwidth but pay no per-transaction fixed cost.
    """

    nbytes: int
    to_device: bool = True
    latency_free: bool = False


@dataclass
class HostCompute(Request):
    """Time spent on the host CPU (e.g. servicing an RPC), in seconds."""

    seconds: float


@dataclass
class Sleep(Request):
    """Stall the warp for a fixed number of cycles.

    ``io_wait`` marks the sleep as waiting on off-chip I/O (page-ready
    spins, riding a DMA batch) so the §VII preemption heuristic can see
    the warp as stalled.

    ``until`` makes the sleep a spin: after each ``cycles`` the engine
    calls it, sleeps again while it returns false and resumes the warp
    on the first true.  Each poll is one event, priced as one sleep.
    """

    cycles: float
    io_wait: bool = False
    until: Optional[Callable[[], bool]] = None


class TimedLock:
    """A mutex whose contention is simulated by the engine.

    The engine parks warps that try to acquire a held lock and wakes one
    of them (FIFO) when the holder releases.  Locks are the mechanism
    behind the paper's deadlock discussion: naive per-thread fault
    handling would have threads of one warp block each other here, which
    the warp-level translation aggregation avoids by construction.
    """

    __slots__ = ("name", "holder", "waiters", "acquisitions", "contended",
                 "latency", "acquire", "release")

    def __init__(self, name: str = "lock", latency: float | None = None):
        self.name = name
        self.holder = None
        self.waiters: list = []
        self.acquisitions = 0
        self.contended = 0
        # Acquire cost in cycles; None means the device atomic latency
        # (global-memory lock).  Scratchpad locks set a smaller value.
        self.latency = latency
        # The lock's two requests, built once: the engine never mutates
        # either, so an untraced warp yields these objects on every
        # acquire and release (a traced acquire is built fresh, to
        # carry its warp's activity tag).
        self.acquire = AcquireLock(self)
        self.release = ReleaseLock(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "held" if self.holder is not None else "free"
        return f"<TimedLock {self.name} {state} waiters={len(self.waiters)}>"
