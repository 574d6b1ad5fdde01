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
grant, translation decomposition, DRAM access and PCIe transfer, with
the warp and the whole interval.  What it keeps — launch totals, cycle
windows, trace records — is its own business; the engine only tests it
against ``None``, once per handler site, so observed runs stay
cycle-bit-identical to unobserved ones.  :meth:`Engine.launch` takes
the grid's block factories and is the single entry point.

One engine simulates one device.  A multi-GPU cluster runs one engine
per device (:mod:`repro.gpu.multigpu`), so the loop is also exposed
incrementally: :meth:`Engine.begin` seeds the launch wave,
:meth:`Engine.advance` drains events up to an epoch horizon, and
host-compute requests can be *parked* (:meth:`Engine.gate_host`) so the
cluster coordinator can serialise the shared host server
deterministically.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, fields

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

_INF = math.inf


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

    @classmethod
    def merged(cls, parts: list["EngineStats"]) -> "EngineStats":
        """Merge per-shard stats: counters sum, cycles is the makespan."""
        out = cls()
        for part in parts:
            for f in fields(cls):
                setattr(out, f.name,
                        getattr(out, f.name) + getattr(part, f.name))
        out.cycles = max((p.cycles for p in parts), default=0.0)
        return out


class _WarpRunner:
    """Engine-side handle for one executing warp coroutine."""

    __slots__ = ("gen", "block", "started", "outstanding", "warp_id",
                 "io_stalled", "pending_req")

    def __init__(self, gen, block: BlockContext, warp_index: int = 0):
        self.gen = gen
        self.block = block
        self.started = False
        self.outstanding = 0.0   # completion time of in-flight async loads
        self.warp_id = block.warp_id(warp_index)
        self.io_stalled = False  # currently waiting on a host transfer
        # Dispatched before the coroutine is resumed: a sliced request,
        # the rest of a request run, or a spin awaiting its next poll.
        self.pending_req = None


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
        self._eff_ipc = spec.effective_issue_rate()
        self._extra_blocks = [0] * spec.num_sms   # preemption slots used
        self._dram_bpc = spec.dram_bytes_per_cycle()
        self._pcie_bpc = spec.pcie_bytes_per_cycle()
        self._end_time = 0.0
        self._host_gated = False
        self._parked = None      # (req, runner, arrival) awaiting grant
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

    # -- entry points --------------------------------------------------
    def launch(self, factories: list) -> float:
        """Run a grid to completion; ``factories`` holds one zero-argument
        callable per threadblock, returning ``(BlockContext, [warp
        generators])``.

        Returns total elapsed cycles.
        """
        self.begin(factories)
        self.advance()
        return self.finish()

    # -- incremental interface (used by launch() and repro.gpu.multigpu)
    def begin(self, factories: list) -> None:
        """Seed the launch with the grid's block factories.

        Breadth-first initial wave: one block per SM, then a second
        round, as the hardware block scheduler does.
        """
        self._pending = list(factories)
        for _ in range(self.blocks_per_sm):
            for sm in range(self.spec.num_sms):
                if not self._pending:
                    return
                self._start_next_block(sm, 0.0)

    def advance(self, horizon: float = _INF) -> float:
        """Drain events with time ≤ ``horizon`` (all of them by default).

        Stops early when a host-compute request parks (see
        :meth:`gate_host`).  Returns the next pending event time, or
        ``inf`` when the launch has fully drained.
        """
        heap = self._heap
        step = self._step
        while heap and heap[0][0] <= horizon:
            time, _, runner = heapq.heappop(heap)
            step(runner, time)
            if self._parked is not None:
                break
        return self.peek()

    def peek(self) -> float:
        """Next pending event time (``inf`` when drained)."""
        return self._heap[0][0] if self._heap else _INF

    def finish(self) -> float:
        """Record and return total elapsed cycles; the observer closes
        its remaining windows."""
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

    # -- cluster host serialisation ------------------------------------
    def gate_host(self) -> None:
        """Park host-compute requests instead of serving them locally.

        In a cluster the host server is owned by the coordinator:
        a gated engine stops draining the moment a warp yields
        :class:`HostCompute` (strict stop), exposes the request via
        :meth:`parked_host`, and resumes on :meth:`grant_host`.
        """
        self._host_gated = True

    @property
    def parked(self) -> bool:
        return self._parked is not None

    def parked_host(self) -> tuple[float, float]:
        """(arrival cycle, host seconds) of the parked request."""
        req, _, now = self._parked
        return now, req.seconds

    def grant_host(self, start: float, done: float) -> None:
        """Serve the parked host request with parent-assigned timing."""
        req, runner, now = self._parked
        self._parked = None
        self._host_avail = done
        self._complete_host(req, runner, now, start, done)

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
                     sm: int) -> bool:
        """Issue one slice of an oversized instruction block; returns
        True if the request was sliced (and re-queued)."""
        if req.count <= self.ISSUE_SLICE:
            return False
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
        return True

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

    def _h_compute(self, req: Compute, runner: _WarpRunner,
                   now: float) -> None:
        spec = self.spec
        sm = runner.block.sm_index
        if self._slice_issue(req, runner, now, sm):
            return
        start = max(now, self._issue_avail[sm])
        issue_time = req.count / self._eff_ipc
        self._issue_avail[sm] = start + issue_time
        self.stats.issue_busy += issue_time
        latency = (spec.macro_op_overhead_cycles
                   + req.chain_length() * spec.dependent_issue_cycles)
        self.stats.instructions += req.count
        done = start + max(issue_time, latency)
        prof = self.profile
        if prof is not None:
            prof.op(runner, req, start, done)
            prof.issue(runner, sm, now, start, issue_time, req.count)
            prof.stall(runner, req, "exec_dependency", start + issue_time,
                       done, latency - issue_time)
            # Requests carry tags only while a trace is recorded, so
            # the decomposition feeds the attribution overlay alone.
            tr = (req.tags.get("translation")
                  if req.tags is not None else None)
            if tr is not None:
                pre = (min(tr[1], req.chain_length())
                       * spec.dependent_issue_cycles)
                pre_x = done - (start + max(issue_time, latency - pre))
                prof.translation(runner, start, done,
                                 tr[0] / self._eff_ipc, pre_x,
                                 pre - pre_x)
        self._schedule(runner, done)

    def _h_scratch(self, req: ScratchAccess, runner: _WarpRunner,
                   now: float) -> None:
        spec = self.spec
        sm = runner.block.sm_index
        start = max(now, self._issue_avail[sm])
        issue_time = req.count / self._eff_ipc
        self._issue_avail[sm] = start + issue_time
        self.stats.instructions += req.count
        self.stats.scratch_accesses += req.count
        done = start + max(issue_time, spec.scratchpad_latency_cycles)
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
        if self._host_gated:
            # Sharded execution: the parent owns the host server.
            # Park and strict-stop; grant_host() replays completion
            # with the parent's serialised timing.
            self._parked = (req, runner, now)
            return
        start = max(now, self._host_avail)
        done = start + req.seconds * self.spec.clock_hz
        self._host_avail = done
        self._complete_host(req, runner, now, start, done)

    def _complete_host(self, req: HostCompute, runner: _WarpRunner,
                       now: float, start: float, done: float) -> None:
        self.stats.host_seconds += req.seconds
        prof = self.profile
        if prof is not None:
            prof.op(runner, req, start, done)
            prof.stall(runner, req, "io", now, done, done - now)
        self._maybe_preempt(runner, now, done)
        self._schedule(runner, done)

    def _h_run(self, run: tuple, runner: _WarpRunner, now: float) -> None:
        """A run of requests yielded at once: dispatch the head now and
        keep the rest pending, one request per event, so times, ``seq``
        order and observer calls are those of yielding them one by one.
        A sliced head stays at the front.  A run holds no spin
        (``Sleep(until=...)``): a spin is yielded on its own."""
        self._dispatch(run[0], runner, now)
        if runner.pending_req is None:
            run = run[1:]
        if run:
            runner.pending_req = run

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
        if self._slice_issue(req, runner, now, sm):
            return
        self._dispatch_mem(req, runner, now, sm)

    def _dispatch_mem(self, req: MemAccess, runner: _WarpRunner,
                      now: float, sm: int) -> None:
        spec = self.spec
        dep = spec.dependent_issue_cycles
        start = max(now, self._issue_avail[sm])
        issue_time = (req.count + 1) / self._eff_ipc
        issued = start + issue_time
        self._issue_avail[sm] = issued
        self.stats.issue_busy += issue_time
        self.stats.instructions += req.count + 1
        nbytes = req.transactions * spec.dram_transaction_bytes
        self.stats.dram_bytes += nbytes
        self.stats.dram_transactions += req.transactions
        # Serial chain before the access can be issued.
        pre_done = start + spec.macro_op_overhead_cycles + req.chain * dep
        dram_avail = self._dram_avail
        dram_start = max(pre_done, dram_avail)
        busy = nbytes / self._dram_bpc
        self._dram_avail = dram_start + busy
        self.stats.dram_busy += busy
        blocking = not (req.is_store or req.nonblocking)
        if req.is_store:
            self.stats.stores += 1
            resume = max(pre_done, issued)
        else:
            self.stats.loads += 1
            data_ready = dram_start + spec.dram_latency_cycles
            if blocking:
                overlap_done = pre_done + req.overlap_chain * dep
                ready = max(data_ready, overlap_done)
                ready += req.post_chain * dep
                resume = max(ready, issued)
            else:
                # Memory-level parallelism: the warp keeps issuing; a
                # LoadFence later waits for the slowest outstanding load.
                runner.outstanding = max(runner.outstanding, data_ready)
                resume = max(pre_done, issued)
        prof = self.profile
        if prof is not None:
            prof.issue(runner, sm, now, start, issue_time, req.count + 1)
            prof.dram(dram_start, nbytes, req.transactions, busy,
                      dram_start - pre_done)
            if not req.is_store:
                prof.op(runner, req, start, data_ready)
            if blocking:
                prof.stall(runner, req, "memory", issued, resume,
                           ready - issued)
            else:   # traced, not counted (as between issue slices)
                prof.stall(runner, req, "exec_dependency", issued,
                           resume, 0.0)
            # Requests carry tags only while a trace is recorded, so
            # the decomposition feeds the attribution overlay alone.
            tr = (req.tags.get("translation")
                  if req.tags is not None else None)
            if tr is not None or req.chain_tag == "translation":
                tr_cnt, tr_chain = tr if tr is not None else (0.0, 0.0)
                pre = min(tr_chain, req.chain) * dep
                if blocking:
                    # Exposed pre-chain: extra delay the translation
                    # chain added to the DRAM access start
                    # (counterfactual start with the chain removed,
                    # still bounded by queueing).
                    pre_x = dram_start - max(pre_done - pre, dram_avail)
                    if req.chain_tag == "translation":
                        ov = req.overlap_chain * dep
                        ov_x = min(ov, max(0.0, overlap_done - data_ready))
                        post_x = req.post_chain * dep
                    else:
                        ov = ov_x = post_x = 0.0
                    lat = pre_x + ov_x + post_x
                    hid = (pre - pre_x) + (ov - ov_x)
                else:
                    # Counterfactual: where the warp would resume with
                    # the translation pre-chain removed.
                    pre_x = resume - max(pre_done - pre, issued)
                    lat, hid = pre_x, pre - pre_x
                prof.translation(runner, start, resume,
                                 tr_cnt / self._eff_ipc, lat, hid)
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
