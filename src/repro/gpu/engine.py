"""Event-driven warp scheduler.

The engine advances one warp coroutine per event.  Each yielded request
reserves the resources it needs:

* **Issue server** (one per SM): ``count / effective_ipc`` cycles of the
  SM's instruction issue bandwidth, shared with every warp resident on
  that SM.
* **DRAM server** (one per GPU): ``transactions * 128`` bytes against the
  achievable memory bandwidth, plus a fixed access latency visible only
  to the issuing warp.
* **PCIe server** (one per GPU): fixed per-transaction cost plus bytes at
  link bandwidth — which is why the paging layer batches 4 KB pages.
* **Host server**: serialises host-side work, modelling the CPU-centric
  bottleneck the paper argues against (Figure 1 vs. Figure 2).

Latency hiding is emergent: a warp stalled on memory does not occupy the
issue server, so other resident warps run in the meantime.  With one warp
the latency chain dominates (the paper's Table I regime); with many the
servers saturate and only issue- or bandwidth-bound costs remain (the
Table II / Figure 6 regime).

Events live in one global heap of ``(time, seq, runner)`` entries.
Sequence numbers are globally monotonic, so ties at one timestamp pop
in scheduling order and runs are deterministic; the golden fixture
``tests/gpu/golden_engine.json`` pins the resulting cycles, stats and
memory effects across engine changes.

The dispatch handlers are looked up by request type in a handler table
(:attr:`Engine._handlers`) instead of an ``isinstance`` chain.  A warp
may yield a tuple of requests, a *run*, dispatched one per event
before the coroutine is resumed, and a ``Sleep`` with ``until``, a
spin the engine re-polls itself (``docs/engine.md``, "Request runs").

The engine has one instrumentation hook, ``Engine(..., profile=...)``:
an observer following the :class:`repro.telemetry.hooks.EngineProfile`
protocol, which sees every macro-op, issue reservation, stall, lock
grant, DRAM access and PCIe transfer, with the warp and the whole
interval.  A memory request or compute block is one call carrying every
time the engine computed for it.  What the observer keeps or derives —
launch totals, cycle windows, trace rows, the translation
decomposition — is its own business; the engine only tests it
against ``None``, once per handler site, so observed runs stay
cycle-bit-identical to unobserved ones.  :meth:`Engine.launch` takes
the grid's block factories and is the single entry point: one engine
simulates one device, one launch at a time.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

from repro.gpu.instructions import (
    AcquireLock,
    AtomicOp,
    Barrier,
    Compute,
    HostCompute,
    LoadFence,
    MemAccess,
    PcieTransfer,
    ReleaseLock,
    ScratchAccess,
    Sleep,
)
from repro.gpu.kernel import BlockContext
from repro.gpu.specs import GPUSpec

@dataclass
class EngineStats:
    """Aggregate counters for one kernel launch."""

    cycles: float = 0.0
    instructions: float = 0.0
    dram_bytes: int = 0
    dram_transactions: int = 0
    loads: int = 0
    stores: int = 0
    atomics: int = 0
    scratch_accesses: float = 0.0
    barriers: int = 0
    lock_acquisitions: int = 0
    lock_contentions: int = 0
    pcie_bytes: int = 0
    pcie_transactions: int = 0
    host_seconds: float = 0.0
    preemptions: int = 0
    # Resource busy time (cycles), for bottleneck analysis.
    issue_busy: float = 0.0
    dram_busy: float = 0.0
    pcie_busy: float = 0.0
    sleep_cycles: float = 0.0

    def dram_bandwidth(self, spec: GPUSpec) -> float:
        """Achieved DRAM bandwidth in bytes/second."""
        if self.cycles <= 0:
            return 0.0
        return self.dram_bytes / spec.cycles_to_seconds(self.cycles)


class _WarpRunner:
    """Engine-side handle for one executing warp coroutine."""

    __slots__ = ("gen", "block", "started", "outstanding", "warp_id",
                 "io_stalled", "pending_req", "run")

    def __init__(self, gen, block: BlockContext, warp_index: int = 0):
        self.gen = gen
        self.block = block
        self.started = False
        self.outstanding = 0.0   # completion time of in-flight async loads
        self.warp_id = block.warp_id(warp_index)
        self.io_stalled = False  # currently waiting on a host transfer
        # Dispatched before the coroutine is resumed: a sliced request
        # or a spin awaiting its next poll, then the rest of a request
        # run, reversed so each event pops its next request.
        self.pending_req = None
        self.run: list = []


class Engine:
    """Executes a grid of threadblocks on the simulated GPU."""

    def __init__(self, spec: GPUSpec, blocks_per_sm: int, profile=None):
        self.spec = spec
        self.blocks_per_sm = max(1, blocks_per_sm)
        # Plain attributes: read per event in the hot loop and by
        # external consumers (telemetry profiler).  ``_advance`` is
        # bound once so a profile that does not window costs one
        # pointer test per event.
        self.profile = profile
        self._advance = profile.advance if profile is not None else None
        self._eff_ipc = spec.effective_issue_rate()
        if profile is not None:
            profile.bind(spec.dependent_issue_cycles, self._eff_ipc)
        self.stats = EngineStats()
        self._issue_avail = [0.0] * spec.num_sms
        self._dram_avail = 0.0
        self._pcie_avail = 0.0
        self._host_avail = 0.0
        self._atomic_avail: dict[int, float] = {}
        self._heap: list = []
        self._seq = itertools.count()
        self._pending: list = []         # block factories not yet started
        self._resident = [0] * spec.num_sms
        self._extra_blocks = [0] * spec.num_sms   # preemption slots used
        self._dram_bpc = spec.dram_bytes_per_cycle()
        self._pcie_bpc = spec.pcie_bytes_per_cycle()
        self._end_time = 0.0
        self._handlers = {
            Compute: self._h_compute,
            MemAccess: self._h_mem,
            ScratchAccess: self._h_scratch,
            AtomicOp: self._h_atomic,
            LoadFence: self._h_fence,
            Barrier: self._h_barrier,
            AcquireLock: self._h_acquire,
            ReleaseLock: self._h_release,
            PcieTransfer: self._h_pcie,
            HostCompute: self._h_host,
            Sleep: self._h_sleep,
            tuple: self._h_run,
        }

    # -- entry point ---------------------------------------------------
    def launch(self, factories: list) -> float:
        """Run a grid to completion; ``factories`` holds one zero-argument
        callable per threadblock, returning ``(BlockContext, [warp
        generators])``.

        Returns total elapsed cycles; the observer closes its remaining
        windows.
        """
        # Breadth-first initial wave: one block per SM, then a second
        # round, as the hardware block scheduler does.
        self._pending = list(factories)
        for _ in range(self.blocks_per_sm):
            for sm in range(self.spec.num_sms):
                self._start_next_block(sm, 0.0)
        heap = self._heap
        step = self._step
        while heap:
            time, _, runner = heapq.heappop(heap)
            step(runner, time)
        self.stats.cycles = self._end_time
        if self.profile is not None:
            self.profile.finish(self._end_time)
        return self._end_time

    # ------------------------------------------------------------------
    def _start_next_block(self, sm: int, time: float) -> bool:
        pending = self._pending
        if not pending:
            return False
        factory = pending.pop(0)
        block, gens = factory()
        block.sm_index = sm
        block.live_warps = len(gens)
        block.done_warps = 0
        self._resident[sm] += 1
        for w, gen in enumerate(gens):
            self._schedule(_WarpRunner(gen, block, w), time)
        return True

    def _schedule(self, runner: _WarpRunner, time: float) -> None:
        heapq.heappush(self._heap, (time, next(self._seq), runner))
        if time > self._end_time:
            self._end_time = time

    def _finish_warp(self, runner: _WarpRunner, time: float) -> None:
        block = runner.block
        block.done_warps += 1
        self._end_time = max(self._end_time, time)
        self._release_barrier_if_complete(block, time)
        if block.done_warps == block.live_warps:
            sm = block.sm_index
            self._resident[sm] -= 1
            self._start_next_block(sm, time)

    # ------------------------------------------------------------------
    #: Issue-slice size (warp-instructions).  Large instruction blocks
    #: are fed to the issue pipeline in slices so warps interleave
    #: fairly, as the hardware's round-robin scheduler does — a single
    #: FIFO reservation per macro-op would let one warp's long compute
    #: serialise every other warp's small ops behind it.  The slice is
    #: deliberately coarse: fault-path instruction charges (~150-250)
    #: must stay atomic or their requeueing inflates lock hold times.
    ISSUE_SLICE = 512.0

    def _step(self, runner: _WarpRunner, now: float) -> None:
        if self._advance is not None:
            # Event times are monotonic and every interval recorded
            # below starts at or after ``now``, so windows ending
            # before it are complete and can stream out.
            self._advance(now)
        if runner.io_stalled:
            runner.io_stalled = False
            runner.block.io_stalled -= 1
        req = runner.pending_req
        if req is not None:
            runner.pending_req = None
            # A pending Sleep is a spin (``until``): poll it, and resume
            # the coroutine only on the poll that ends the wait.
            if type(req) is not Sleep or not req.until():
                self._dispatch(req, runner, now)
                return
        run = runner.run
        if run:
            req = run.pop()
        else:
            try:
                if runner.started:
                    req = runner.gen.send(now)
                else:
                    runner.started = True
                    req = next(runner.gen)
            except StopIteration:
                self._finish_warp(runner, now)
                return
        self._dispatch(req, runner, now)

    def _slice_issue(self, req, runner: _WarpRunner, now: float,
                     sm: int) -> None:
        """Issue one slice of an instruction block above
        :attr:`ISSUE_SLICE` and re-queue the rest."""
        spec = self.spec
        start = max(now, self._issue_avail[sm])
        issue_time = self.ISSUE_SLICE / self._eff_ipc
        self._issue_avail[sm] = start + issue_time
        self.stats.issue_busy += issue_time
        self.stats.instructions += self.ISSUE_SLICE
        req.count -= self.ISSUE_SLICE
        chain = (req.chain_length() if isinstance(req, Compute)
                 else req.chain)
        used = min(chain, self.ISSUE_SLICE)
        req.chain = chain - used
        latency = used * spec.dependent_issue_cycles
        wake = start + max(issue_time, latency)
        prof = self.profile
        if prof is not None:
            prof.issue(runner, sm, now, start, issue_time,
                       self.ISSUE_SLICE)
            # Traced, not counted: the profile's stall mix has no
            # dependency wait between slices.
            prof.stall(runner, req, "exec_dependency",
                       start + issue_time, wake, 0.0)
        runner.pending_req = req
        self._schedule(runner, wake)

    # -- dispatch ------------------------------------------------------
    def _dispatch(self, req, runner: _WarpRunner, now: float) -> None:
        handler = self._handlers.get(type(req))
        if handler is None:
            # Subclassed requests fall back to an isinstance scan once,
            # then dispatch via the table like everything else.
            for base, fn in list(self._handlers.items()):
                if isinstance(req, base):
                    self._handlers[type(req)] = handler = fn
                    break
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown request {req!r}")
        handler(req, runner, now)

    # The handlers below reserve with ``x = b if b > a else a`` in
    # place of ``x = max(a, b)``: the same choice, ``a`` on a tie, so
    # the result is the same float bit for bit.  (No engine time is
    # ever -0.0 or NaN, so even the other operand would do.)
    def _h_compute(self, req: Compute, runner: _WarpRunner,
                   now: float) -> None:
        spec = self.spec
        stats = self.stats
        sm = runner.block.sm_index
        count = req.count
        if count > self.ISSUE_SLICE:
            self._slice_issue(req, runner, now, sm)
            return
        avail = self._issue_avail[sm]
        start = avail if avail > now else now
        issue_time = count / self._eff_ipc
        issued = start + issue_time
        self._issue_avail[sm] = issued
        stats.issue_busy += issue_time
        latency = (spec.macro_op_overhead_cycles
                   + req.chain_length() * spec.dependent_issue_cycles)
        stats.instructions += count
        done = start + (latency if latency > issue_time else issue_time)
        prof = self.profile
        if prof is not None:
            prof.compute(runner, req, sm, now, start, issue_time, issued,
                         latency, done)
        self._schedule(runner, done)

    def _h_scratch(self, req: ScratchAccess, runner: _WarpRunner,
                   now: float) -> None:
        stats = self.stats
        sm = runner.block.sm_index
        count = req.count
        avail = self._issue_avail[sm]
        start = avail if avail > now else now
        issue_time = count / self._eff_ipc
        self._issue_avail[sm] = start + issue_time
        stats.instructions += count
        stats.scratch_accesses += count
        latency = self.spec.scratchpad_latency_cycles
        done = start + (latency if latency > issue_time else issue_time)
        prof = self.profile
        if prof is not None:
            prof.op(runner, req, start, done)
            prof.issue(runner, sm, now, start, issue_time, req.count)
            prof.stall(runner, req, "scratch", start + issue_time, done,
                       done - start - issue_time)
        self._schedule(runner, done)

    def _h_atomic(self, req: AtomicOp, runner: _WarpRunner,
                  now: float) -> None:
        spec = self.spec
        avail = self._atomic_avail.get(req.address, 0.0)
        start = max(now, avail)
        # Pipelined: the address accepts another atomic after the
        # issue interval; the issuing warp sees the full latency.
        self._atomic_avail[req.address] = (
            start + spec.atomic_interval_cycles)
        self.stats.atomics += 1
        done = start + spec.atomic_latency_cycles
        prof = self.profile
        if prof is not None:
            prof.op(runner, req, start, done)
            prof.stall(runner, req, "atomic", now, done, done - now)
        self._schedule(runner, done)

    def _h_fence(self, req: LoadFence, runner: _WarpRunner,
                 now: float) -> None:
        if self.profile is not None:
            self.profile.stall(runner, req, "memory", now,
                               runner.outstanding,
                               runner.outstanding - now)
        self._schedule(runner, max(now, runner.outstanding))

    def _h_barrier(self, req: Barrier, runner: _WarpRunner,
                   now: float) -> None:
        self._dispatch_barrier(runner, now)

    def _h_acquire(self, req: AcquireLock, runner: _WarpRunner,
                   now: float) -> None:
        spec = self.spec
        lock = req.lock
        lock.acquisitions += 1
        cost = (spec.atomic_latency_cycles if lock.latency is None
                else lock.latency)
        if lock.holder is None:
            lock.holder = runner
            self.stats.lock_acquisitions += 1
            if self.profile is not None:
                self.profile.grant(runner, req.tag, now, now, cost)
            self._schedule(runner, now + cost)
        else:
            lock.contended += 1
            self.stats.lock_contentions += 1
            lock.waiters.append((runner, now, req.tag))

    def _h_release(self, req: ReleaseLock, runner: _WarpRunner,
                   now: float) -> None:
        spec = self.spec
        lock = req.lock
        lock.holder = None
        if lock.waiters:
            waiter, enqueued, wtag = lock.waiters.pop(0)
            lock.holder = waiter
            self.stats.lock_acquisitions += 1
            cost = (spec.atomic_latency_cycles if lock.latency is None
                    else lock.latency)
            if self.profile is not None:
                self.profile.grant(waiter, wtag, enqueued, now, cost)
            self._schedule(waiter, now + cost)
        self._schedule(runner, now)

    def _h_pcie(self, req: PcieTransfer, runner: _WarpRunner,
                now: float) -> None:
        # The link is busy only while bytes move (DMA engines
        # pipeline); the fixed latency is visible to the requesting
        # warp but does not serialise the link.  Host-side per-batch
        # setup costs go through HostCompute instead — that is the
        # CPU-centric bottleneck of the paper's Figure 1.
        spec = self.spec
        start = max(now, self._pcie_avail)
        xfer = req.nbytes / self._pcie_bpc
        self._pcie_avail = start + xfer
        self.stats.pcie_busy += xfer
        self.stats.pcie_bytes += req.nbytes
        self.stats.pcie_transactions += 1
        fixed = 0.0 if req.latency_free else spec.pcie_latency_cycles()
        done = start + xfer + fixed
        prof = self.profile
        if prof is not None:
            prof.pcie(start, req.nbytes, xfer)
            prof.op(runner, req, start, done)
            prof.stall(runner, req, "io", now, done, done - now)
        self._maybe_preempt(runner, now, done)
        self._schedule(runner, done)

    def _h_host(self, req: HostCompute, runner: _WarpRunner,
                now: float) -> None:
        start = max(now, self._host_avail)
        done = start + req.seconds * self.spec.clock_hz
        self._host_avail = done
        self.stats.host_seconds += req.seconds
        prof = self.profile
        if prof is not None:
            prof.op(runner, req, start, done)
            prof.stall(runner, req, "io", now, done, done - now)
        self._maybe_preempt(runner, now, done)
        self._schedule(runner, done)

    def _h_run(self, run: tuple, runner: _WarpRunner, now: float) -> None:
        """A run of requests yielded at once: dispatch the head now and
        keep the rest as the runner's cursor, which :meth:`_step` pops
        one request per event, so times, ``seq`` order and observer
        calls are those of yielding them one by one.  A sliced head
        stays at the front: ``pending_req`` is dispatched before the
        cursor.  A run holds no spin (``Sleep(until=...)``): a spin is
        yielded on its own."""
        cursor = list(run)
        cursor.reverse()
        runner.run = cursor
        self._dispatch(cursor.pop(), runner, now)

    def _h_sleep(self, req: Sleep, runner: _WarpRunner,
                 now: float) -> None:
        if req.until is not None:
            runner.pending_req = req
        self.stats.sleep_cycles += req.cycles
        prof = self.profile
        if prof is not None:
            if req.cycles:
                prof.op(runner, req, now, now + req.cycles)
            prof.stall(runner, req, "spin" if req.io_wait else "sleep",
                       now, now + req.cycles, req.cycles)
        if req.io_wait:
            self._maybe_preempt(runner, now, now + req.cycles)
        self._schedule(runner, now + req.cycles)

    def _h_mem(self, req: MemAccess, runner: _WarpRunner,
               now: float) -> None:
        sm = runner.block.sm_index
        count = req.count
        if count > self.ISSUE_SLICE:
            self._slice_issue(req, runner, now, sm)
            return
        spec = self.spec
        stats = self.stats
        dep = spec.dependent_issue_cycles
        avail = self._issue_avail[sm]
        start = avail if avail > now else now
        issue_time = (count + 1) / self._eff_ipc
        issued = start + issue_time
        self._issue_avail[sm] = issued
        stats.issue_busy += issue_time
        stats.instructions += count + 1
        transactions = req.transactions
        nbytes = transactions * spec.dram_transaction_bytes
        stats.dram_bytes += nbytes
        stats.dram_transactions += transactions
        # Serial chain before the access can be issued.
        pre_done = start + spec.macro_op_overhead_cycles + req.chain * dep
        dram_avail = self._dram_avail
        dram_start = dram_avail if dram_avail > pre_done else pre_done
        busy = nbytes / self._dram_bpc
        self._dram_avail = dram_start + busy
        stats.dram_busy += busy
        if req.is_store:
            stats.stores += 1
            resume = issued if issued > pre_done else pre_done
            data_ready = ready = overlap_done = None
        else:
            stats.loads += 1
            data_ready = dram_start + spec.dram_latency_cycles
            if not req.nonblocking:
                overlap_done = pre_done + req.overlap_chain * dep
                ready = (overlap_done if overlap_done > data_ready
                         else data_ready)
                ready += req.post_chain * dep
                resume = issued if issued > ready else ready
            else:
                # Memory-level parallelism: the warp keeps issuing; a
                # LoadFence later waits for the slowest outstanding load.
                if data_ready > runner.outstanding:
                    runner.outstanding = data_ready
                resume = issued if issued > pre_done else pre_done
                ready = overlap_done = None
        prof = self.profile
        if prof is not None:
            prof.mem(runner, req, sm, now, start, issue_time, issued,
                     pre_done, dram_avail, dram_start, busy, nbytes,
                     data_ready, ready, overlap_done, resume)
        self._schedule(runner, resume)

    # ------------------------------------------------------------------
    def _maybe_preempt(self, runner: _WarpRunner, now: float,
                       resume: float) -> None:
        """§VII I/O preemption: if every live warp of this block is now
        stalled on a host transfer and work is queued, swap in a pending
        block on this SM (the stalled block keeps its state and resumes
        when its transfers land)."""
        spec = self.spec
        block = runner.block
        if not runner.io_stalled:
            runner.io_stalled = True
            block.io_stalled += 1
        if not spec.io_preemption:
            return
        if not self._pending:
            return
        running = block.live_warps - block.done_warps
        sm = block.sm_index
        # Most of the block is off-chip: save its context and bring in
        # queued work.  Oversubscription is bounded per SM (the saved
        # contexts live in spill memory, as GPUpIO proposes).
        threshold = max(1, (3 * running) // 4)
        if block.io_stalled >= threshold and self._extra_blocks[sm] < 4:
            self._extra_blocks[sm] += 1
            self.stats.preemptions += 1
            start_at = now + spec.preemption_cost_cycles
            self._start_next_block(sm, start_at)

    # ------------------------------------------------------------------
    def _dispatch_barrier(self, runner: _WarpRunner, now: float) -> None:
        block = runner.block
        block.barrier_waiting.append((runner, now))
        self.stats.barriers += 1
        self._release_barrier_if_complete(block, now)

    def _release_barrier_if_complete(self, block: BlockContext,
                                     now: float) -> None:
        waiting = block.barrier_waiting
        running = block.live_warps - block.done_warps
        if waiting and len(waiting) == running:
            release = max(t for _, t in waiting)
            block.barrier_waiting = []
            prof = self.profile
            for waiter, arrived in waiting:
                if prof is not None:
                    prof.stall(waiter, None, "barrier", arrived, release,
                               release - arrived)
                self._schedule(waiter, release)
