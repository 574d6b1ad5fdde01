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
(:attr:`Engine._handlers`) instead of an ``isinstance`` chain, and the
tracer / profile / sampler instrumentation arrives bundled in one
:class:`~repro.gpu.launch.EngineHooks` object, guarded by ``is not
None`` tests so instrumented runs stay cycle-bit-identical to
uninstrumented ones.  :meth:`Engine.launch` takes a
:class:`~repro.gpu.launch.LaunchPlan` and is the single entry point.

For sharded epoch execution (:mod:`repro.gpu.sharded`) the loop is also
exposed incrementally: :meth:`Engine.begin` seeds the launch wave,
:meth:`Engine.advance` drains events up to an epoch horizon, and
host-compute requests can be *parked* (:meth:`Engine.gate_host`) so a
parent process can serialise the shared host server deterministically.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field, fields

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
from repro.gpu.launch import EngineHooks, LaunchPlan
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


@dataclass
class EngineProfile:
    """Deep per-launch counters, collected only when profiling is on.

    The engine takes an optional :class:`EngineProfile` and updates it
    behind ``is not None`` guards, so an unprofiled launch pays one
    pointer test per dispatched request and nothing else.

    * ``sm_busy`` — issue-server busy cycles per SM; idle is the launch
      span minus busy (the per-SM utilisation of the paper's Figure 6
      occupancy sweeps).
    * ``stalls`` — cycles warps spent not issuing, keyed by reason
      (``memory``, ``barrier``, ``lock``, ``atomic``, ``io``, ``spin``,
      ``issue_queue``, ``exec_dependency``, ``scratch``).
    * ``dram_queue_cycles`` — time memory accesses waited for the DRAM
      bandwidth server beyond their own issue/dependency chain, i.e.
      pure bandwidth contention.
    """

    sm_busy: list[float] = field(default_factory=list)
    stalls: dict[str, float] = field(default_factory=dict)
    dram_queue_cycles: float = 0.0
    dram_queued_accesses: int = 0

    @classmethod
    def for_sms(cls, total_sms: int) -> "EngineProfile":
        return cls(sm_busy=[0.0] * total_sms)

    def stall(self, reason: str, cycles: float) -> None:
        if cycles > 0:
            self.stalls[reason] = self.stalls.get(reason, 0.0) + cycles

    @classmethod
    def merged(cls, parts: list["EngineProfile"]) -> "EngineProfile":
        """Merge per-shard profiles: ``sm_busy`` concatenates in shard
        order (shard *i* owns device *i*'s SMs), stall buckets and DRAM
        queue counters sum."""
        out = cls()
        for part in parts:
            out.sm_busy.extend(part.sm_busy)
            for reason, cycles in part.stalls.items():
                out.stalls[reason] = out.stalls.get(reason, 0.0) + cycles
            out.dram_queue_cycles += part.dram_queue_cycles
            out.dram_queued_accesses += part.dram_queued_accesses
        return out


class _WarpRunner:
    """Engine-side handle for one executing warp coroutine."""

    __slots__ = ("gen", "block", "started", "outstanding", "warp_index",
                 "io_stalled", "pending_req")

    def __init__(self, gen, block: BlockContext, warp_index: int = 0):
        self.gen = gen
        self.block = block
        self.started = False
        self.outstanding = 0.0   # completion time of in-flight async loads
        self.warp_index = warp_index
        self.io_stalled = False  # currently waiting on a host transfer
        self.pending_req = None  # sliced request awaiting re-dispatch


class Engine:
    """Executes a grid of threadblocks on the simulated GPU."""

    def __init__(self, spec: GPUSpec, blocks_per_sm: int,
                 hooks: EngineHooks | None = None,
                 num_devices: int = 1):
        self.spec = spec
        self.blocks_per_sm = max(1, blocks_per_sm)
        self._set_hooks(hooks if hooks is not None else EngineHooks())
        self.num_devices = num_devices
        self.stats = EngineStats()
        total_sms = spec.num_sms * num_devices
        self._issue_avail = [0.0] * total_sms
        self._dram_avail = [0.0] * num_devices
        self._pcie_avail = [0.0] * num_devices
        self._host_avail = 0.0           # one host serves all devices
        self._atomic_avail: dict[tuple, float] = {}
        self._heap: list = []
        self._seq = itertools.count()
        self._pending_groups: list = [[] for _ in range(num_devices)]
        self._resident = [0] * total_sms
        self._eff_ipc = spec.effective_issue_rate()
        self._extra_blocks = [0] * total_sms   # preemption slots used
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
        }

    # -- hooks ---------------------------------------------------------
    def _set_hooks(self, hooks: EngineHooks) -> None:
        self.hooks = hooks
        # Mirrors kept as plain attributes: they are read per event in
        # the hot loop and by external consumers (telemetry profiler).
        self.tracer = hooks.tracer
        self.profile = hooks.profile
        self.sampler = hooks.sampler

    # -- entry points --------------------------------------------------
    def launch(self, plan: LaunchPlan) -> float:
        """Run one :class:`~repro.gpu.launch.LaunchPlan` to completion.

        Returns total elapsed cycles.  ``plan.blocks_per_sm`` and
        ``plan.hooks`` override the constructor defaults when set.
        """
        if plan.blocks_per_sm is not None:
            self.blocks_per_sm = max(1, plan.blocks_per_sm)
        if plan.hooks is not None:
            self._set_hooks(plan.hooks)
        self.begin(plan.groups)
        self.advance()
        return self.finish()

    # -- incremental interface (used by launch() and repro.gpu.sharded)
    def begin(self, groups: list) -> None:
        """Seed the launch: one list of block factories per device.

        Device *d*'s blocks execute on its own SMs and DRAM; the host
        CPU is shared.  Breadth-first initial wave per device: one
        block per SM, then a second round, as the hardware block
        scheduler does.
        """
        if len(groups) > self.num_devices:
            raise ValueError("more groups than devices")
        self._pending_groups = [list(g) for g in groups]
        while len(self._pending_groups) < self.num_devices:
            self._pending_groups.append([])
        for dev in range(self.num_devices):
            base = dev * self.spec.num_sms
            for _ in range(self.blocks_per_sm):
                for sm in range(base, base + self.spec.num_sms):
                    if not self._pending_groups[dev]:
                        break
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
        """Record and return total elapsed cycles."""
        self.stats.cycles = self._end_time
        return self._end_time

    # ------------------------------------------------------------------
    def _start_next_block(self, sm: int, time: float) -> bool:
        dev = sm // self.spec.num_sms
        pending = self._pending_groups[dev]
        if not pending:
            return False
        factory = pending.pop(0)
        block, gens = factory()
        block.device_index = dev
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

    # -- sharded host serialisation ------------------------------------
    def gate_host(self) -> None:
        """Park host-compute requests instead of serving them locally.

        In sharded execution the host server is owned by the parent:
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
        if self.sampler is not None:
            # Event times are monotonic and every interval recorded
            # below starts at or after ``now``, so windows ending
            # before it are complete and can stream out.
            self.sampler.advance(now)
        if runner.io_stalled:
            runner.io_stalled = False
            runner.block.io_stalled -= 1
        if runner.pending_req is not None:
            req = runner.pending_req
            runner.pending_req = None
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

    def _warp_id(self, runner: _WarpRunner) -> int:
        block = runner.block
        return (block.block_id * max(block.live_warps, 1)
                + runner.warp_index)

    def _trace(self, runner: _WarpRunner, req, start: float,
               end: float) -> None:
        if self.tracer is not None:
            block = runner.block
            self.tracer.record(self._warp_id(runner), block.block_id,
                               type(req).__name__.lower(), start, end,
                               sm=block.sm_index)

    # -- attribution events (callers guard on ``self.tracer``) ---------
    def _stall(self, runner: _WarpRunner, req, default: str,
               start: float, end: float) -> None:
        """Record one non-issuing interval, tagged with its reason: the
        request's activity tag when set ("translation", "tlb_miss",
        "fault_wait", ...), else the mechanical ``default``."""
        if end <= start:
            return
        block = runner.block
        reason = default if req is None else (req.tag or default)
        self.tracer.record(self._warp_id(runner), block.block_id,
                           "stall", start, end, reason,
                           sm=block.sm_index)

    def _issue_ev(self, runner: _WarpRunner, start: float,
                  end: float) -> None:
        """Record one issue-server occupancy interval of this warp."""
        if end <= start:
            return
        block = runner.block
        self.tracer.record(self._warp_id(runner), block.block_id,
                           "issue", start, end, sm=block.sm_index)

    def _translation_ev(self, runner: _WarpRunner, start: float,
                        end: float, iss: float, lat: float,
                        hid: float) -> None:
        """Record the translation-cycle decomposition of one request:
        ``iss`` issue slots consumed, ``lat`` warp-visible latency the
        translation chains added (exposed at warp level), ``hid`` chain
        cycles absorbed by the memory bubble or bandwidth queue (hidden
        even at warp level).  The analyzer reclassifies ``iss``/``lat``
        at launch level using concurrent-warp overlap."""
        if iss <= 0 and lat <= 0 and hid <= 0:
            return
        block = runner.block
        self.tracer.record(
            self._warp_id(runner), block.block_id, "translation",
            start, max(end, start),
            f"iss={iss:.6g};lat={lat:.6g};hid={hid:.6g}",
            sm=block.sm_index)

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
        if self.profile is not None:
            self.profile.sm_busy[sm] += issue_time
            self.profile.stall("issue_queue", start - now)
        if self.sampler is not None:
            self.sampler.issue(sm, start, issue_time, self.ISSUE_SLICE)
            self.sampler.stall("issue_queue", start, start - now)
        req.count -= self.ISSUE_SLICE
        chain = (req.chain_length() if isinstance(req, Compute)
                 else req.chain)
        used = min(chain, self.ISSUE_SLICE)
        req.chain = chain - used
        latency = used * spec.dependent_issue_cycles
        if self.tracer is not None:
            wake = start + max(issue_time, latency)
            self._stall(runner, None, "issue_queue", now, start)
            self._issue_ev(runner, start, start + issue_time)
            self._stall(runner, req, "exec_dependency",
                        start + issue_time, wake)
        runner.pending_req = req
        self._schedule(runner, start + max(issue_time, latency))
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
        if self.profile is not None:
            self.profile.sm_busy[sm] += issue_time
            self.profile.stall("issue_queue", start - now)
            self.profile.stall("exec_dependency",
                               latency - issue_time)
        if self.sampler is not None:
            self.sampler.issue(sm, start, issue_time, req.count)
            self.sampler.stall("issue_queue", start, start - now)
            self.sampler.stall("exec_dependency", done,
                               latency - issue_time)
        self._trace(runner, req, start, done)
        if self.tracer is not None:
            self._stall(runner, None, "issue_queue", now, start)
            self._issue_ev(runner, start, start + issue_time)
            self._stall(runner, req, "exec_dependency",
                        start + issue_time, done)
            tr = (req.tags.get("translation")
                  if req.tags is not None else None)
            if tr is not None:
                dep = spec.dependent_issue_cycles
                pre = min(tr[1], req.chain_length()) * dep
                done0 = start + max(issue_time, latency - pre)
                pre_x = done - done0
                self._translation_ev(runner, start, done,
                                     tr[0] / self._eff_ipc,
                                     pre_x, pre - pre_x)
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
        if self.profile is not None:
            self.profile.sm_busy[sm] += issue_time
            self.profile.stall("issue_queue", start - now)
            self.profile.stall("scratch", done - start - issue_time)
        if self.sampler is not None:
            self.sampler.issue(sm, start, issue_time, req.count)
            self.sampler.stall("issue_queue", start, start - now)
            self.sampler.stall("scratch", done,
                               done - start - issue_time)
        self._trace(runner, req, start, done)
        if self.tracer is not None:
            self._stall(runner, None, "issue_queue", now, start)
            self._issue_ev(runner, start, start + issue_time)
            self._stall(runner, req, "scratch",
                        start + issue_time, done)
        self._schedule(runner, done)

    def _h_atomic(self, req: AtomicOp, runner: _WarpRunner,
                  now: float) -> None:
        spec = self.spec
        key = (runner.block.device_index, req.address)
        avail = self._atomic_avail.get(key, 0.0)
        start = max(now, avail)
        # Pipelined: the address accepts another atomic after the
        # issue interval; the issuing warp sees the full latency.
        self._atomic_avail[key] = (
            start + spec.atomic_interval_cycles)
        self.stats.atomics += 1
        done = start + spec.atomic_latency_cycles
        if self.profile is not None:
            self.profile.stall("atomic", done - now)
        if self.sampler is not None:
            self.sampler.stall("atomic", done, done - now)
        self._trace(runner, req, start, done)
        if self.tracer is not None:
            self._stall(runner, req, "atomic", now, done)
        self._schedule(runner, done)

    def _h_fence(self, req: LoadFence, runner: _WarpRunner,
                 now: float) -> None:
        if self.profile is not None:
            self.profile.stall("memory", runner.outstanding - now)
        if self.sampler is not None:
            self.sampler.stall("memory", max(runner.outstanding,
                                             now),
                               runner.outstanding - now)
        if self.tracer is not None:
            self._stall(runner, req, "memory", now,
                        runner.outstanding)
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
            if self.tracer is not None:
                self._stall(runner, req, "lock", now, now + cost)
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
                self.profile.stall("lock", now - enqueued)
            if self.sampler is not None:
                self.sampler.stall("lock", now, now - enqueued)
            if self.tracer is not None:
                block = waiter.block
                self.tracer.record(self._warp_id(waiter),
                                   block.block_id, "stall",
                                   enqueued, now + cost,
                                   wtag or "lock",
                                   sm=block.sm_index)
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
        dev = runner.block.device_index
        start = max(now, self._pcie_avail[dev])
        xfer = req.nbytes / self._pcie_bpc
        self._pcie_avail[dev] = start + xfer
        self.stats.pcie_busy += xfer
        self.stats.pcie_bytes += req.nbytes
        self.stats.pcie_transactions += 1
        fixed = 0.0 if req.latency_free else spec.pcie_latency_cycles()
        done = start + xfer + fixed
        if self.profile is not None:
            self.profile.stall("io", done - now)
        if self.sampler is not None:
            self.sampler.pcie(start, req.nbytes, xfer)
            self.sampler.stall("io", done, done - now)
        self._trace(runner, req, start, done)
        if self.tracer is not None:
            self._stall(runner, req, "io", now, done)
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
        if self.profile is not None:
            self.profile.stall("io", done - now)
        if self.sampler is not None:
            self.sampler.stall("io", done, done - now)
        self._trace(runner, req, start, done)
        if self.tracer is not None:
            self._stall(runner, req, "io", now, done)
        self._maybe_preempt(runner, now, done)
        self._schedule(runner, done)

    def _h_sleep(self, req: Sleep, runner: _WarpRunner,
                 now: float) -> None:
        self.stats.sleep_cycles += req.cycles
        if req.cycles:
            self._trace(runner, req, now, now + req.cycles)
            if self.tracer is not None:
                self._stall(runner, req,
                            "spin" if req.io_wait else "sleep",
                            now, now + req.cycles)
        if self.profile is not None:
            self.profile.stall("spin" if req.io_wait else "sleep",
                               req.cycles)
        if self.sampler is not None:
            self.sampler.stall("spin" if req.io_wait else "sleep",
                               now + req.cycles, req.cycles)
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
        start = max(now, self._issue_avail[sm])
        issue_time = (req.count + 1) / self._eff_ipc
        self._issue_avail[sm] = start + issue_time
        self.stats.issue_busy += issue_time
        self.stats.instructions += req.count + 1
        nbytes = req.transactions * spec.dram_transaction_bytes
        self.stats.dram_bytes += nbytes
        self.stats.dram_transactions += req.transactions
        # Serial chain before the access can be issued.
        pre_done = (start + spec.macro_op_overhead_cycles
                    + req.chain * spec.dependent_issue_cycles)
        dev = runner.block.device_index
        dram_avail = self._dram_avail[dev]
        dram_start = max(pre_done, dram_avail)
        self._dram_avail[dev] = dram_start + nbytes / self._dram_bpc
        self.stats.dram_busy += nbytes / self._dram_bpc
        if self.profile is not None:
            self.profile.sm_busy[sm] += issue_time
            self.profile.stall("issue_queue", start - now)
            self.profile.dram_queue_cycles += dram_start - pre_done
            self.profile.dram_queued_accesses += 1
        if self.sampler is not None:
            self.sampler.issue(sm, start, issue_time, req.count + 1)
            self.sampler.stall("issue_queue", start, start - now)
            self.sampler.dram(dram_start, nbytes, req.transactions,
                              nbytes / self._dram_bpc,
                              dram_start - pre_done)
        dep = spec.dependent_issue_cycles
        tr_attr = False
        tr_cnt = tr_chain = pre = 0.0
        if self.tracer is not None:
            self._stall(runner, None, "issue_queue", now, start)
            self._issue_ev(runner, start, start + issue_time)
            tr = (req.tags.get("translation")
                  if req.tags is not None else None)
            tr_attr = tr is not None or req.chain_tag == "translation"
            if tr is not None:
                tr_cnt, tr_chain = tr
                tr_chain = min(tr_chain, req.chain)
            pre = tr_chain * dep
        if req.is_store:
            self.stats.stores += 1
            resume = max(pre_done, start + issue_time)
            if self.tracer is not None:
                self._stall(runner, req, "exec_dependency",
                            start + issue_time, resume)
                if tr_attr:
                    # Counterfactual: where the warp would resume with
                    # the translation pre-chain removed.
                    resume0 = max(pre_done - pre, start + issue_time)
                    pre_x = resume - resume0
                    self._translation_ev(runner, start, resume,
                                         tr_cnt / self._eff_ipc,
                                         pre_x, pre - pre_x)
            self._schedule(runner, resume)
            return
        self.stats.loads += 1
        data_ready = dram_start + spec.dram_latency_cycles
        self._trace(runner, req, start, data_ready)
        if req.nonblocking:
            # Memory-level parallelism: the warp keeps issuing; a
            # LoadFence later waits for the slowest outstanding load.
            runner.outstanding = max(runner.outstanding, data_ready)
            resume = max(pre_done, start + issue_time)
            if self.tracer is not None:
                self._stall(runner, req, "exec_dependency",
                            start + issue_time, resume)
                if tr_attr:
                    resume0 = max(pre_done - pre, start + issue_time)
                    pre_x = resume - resume0
                    self._translation_ev(runner, start, resume,
                                         tr_cnt / self._eff_ipc,
                                         pre_x, pre - pre_x)
            self._schedule(runner, resume)
            return
        overlap_done = (pre_done
                        + req.overlap_chain * spec.dependent_issue_cycles)
        ready = max(data_ready, overlap_done)
        ready += req.post_chain * spec.dependent_issue_cycles
        final = max(ready, start + issue_time)
        if self.profile is not None:
            self.profile.stall("memory", ready - (start + issue_time))
        if self.sampler is not None:
            self.sampler.stall("memory", final,
                               ready - (start + issue_time))
        if self.tracer is not None:
            self._stall(runner, req, "memory", start + issue_time, final)
            if tr_attr:
                # Exposed pre-chain: extra delay the translation chain
                # added to the DRAM access start (counterfactual start
                # with the chain removed, still bounded by queueing).
                pre_x = dram_start - max(pre_done - pre, dram_avail)
                if req.chain_tag == "translation":
                    ov = req.overlap_chain * dep
                    ov_x = min(ov, max(0.0, overlap_done - data_ready))
                    post_x = req.post_chain * dep
                else:
                    ov = ov_x = post_x = 0.0
                self._translation_ev(runner, start, final,
                                     tr_cnt / self._eff_ipc,
                                     pre_x + ov_x + post_x,
                                     (pre - pre_x) + (ov - ov_x))
        self._schedule(runner, final)

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
        if not self._pending_groups[block.device_index]:
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
            for waiter, arrived in waiting:
                if self.profile is not None:
                    self.profile.stall("barrier", release - arrived)
                if self.sampler is not None:
                    self.sampler.stall("barrier", release,
                                       release - arrived)
                if self.tracer is not None:
                    self._stall(waiter, None, "barrier", arrived, release)
                self._schedule(waiter, release)
