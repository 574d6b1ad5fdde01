"""The simulated GPU device: memory plus kernel launch.

:class:`Device` owns global memory and launches kernels on the engine.
A :class:`KernelLaunch` describes grid geometry and per-thread resource
usage (registers, scratchpad), from which the occupancy calculator
derives how many threadblocks are resident per SM — the knob Figure 6 of
the paper sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.gpu.engine import Engine, EngineStats
from repro.gpu.kernel import BlockContext, KernelFn, WarpContext
from repro.gpu.memory import GlobalMemory, Scratchpad
from repro.gpu.occupancy import OccupancyLimits, occupancy_limits
from repro.gpu.specs import GPUSpec, K80_SPEC
from repro.telemetry import hooks as telemetry_hooks


@dataclass
class KernelLaunch:
    """Launch configuration, mirroring ``kernel<<<grid, block>>>``."""

    kernel: KernelFn
    grid: int
    block_threads: int
    args: tuple = ()
    regs_per_thread: int = 64
    scratchpad_bytes: int = 0
    block_init: Optional[Callable[[BlockContext], None]] = None

    def __post_init__(self):
        if self.grid <= 0:
            raise ValueError("grid must contain at least one block")
        if self.block_threads <= 0:
            raise ValueError("block must contain at least one thread")

    def occupancy(self, spec: GPUSpec) -> OccupancyLimits:
        """Resident-block limits of this launch on ``spec``; raises
        ``ValueError`` when not even one block fits on an SM."""
        occ = occupancy_limits(spec, self.block_threads,
                               self.regs_per_thread, self.scratchpad_bytes)
        if not occ.is_schedulable:
            raise ValueError(
                f"kernel cannot be scheduled: {occ.limiting_factor}")
        return occ


@dataclass
class LaunchResult:
    """Outcome of one kernel launch."""

    cycles: float
    seconds: float
    stats: EngineStats
    occupancy: OccupancyLimits
    #: The :class:`~repro.telemetry.profile.LaunchProfile` the ambient
    #: profiler (``repro.telemetry.capture``) recorded for this device
    #: or cluster launch, else ``None``.  Its trace is the profiler's
    #: matching ``traces`` entry.
    profile: Optional[Any] = None

    def dram_bandwidth(self, spec: GPUSpec) -> float:
        return self.stats.dram_bandwidth(spec)


class Device:
    """One simulated discrete GPU."""

    def __init__(self, spec: GPUSpec = K80_SPEC,
                 memory_bytes: int = 64 * 1024 * 1024):
        self.spec = spec
        self.memory = GlobalMemory(memory_bytes,
                                   spec.dram_transaction_bytes)
        self.total_cycles = 0.0
        self.launches = 0
        #: Installed by ``GPUfs(config=GPUfsConfig(sanitize=True))``;
        #: when set, launches run under the runtime sanitizer.
        self.sanitizer = None

    # ------------------------------------------------------------------
    def alloc(self, nbytes: int, align: int = 256) -> int:
        return self.memory.alloc(nbytes, align)

    # ------------------------------------------------------------------
    def launch(self, kernel: KernelFn, grid: int, block_threads: int,
               args: tuple = (), regs_per_thread: int = 64,
               scratchpad_bytes: int = 0,
               block_init: Optional[Callable[[BlockContext], None]] = None
               ) -> LaunchResult:
        """Run ``kernel`` over ``grid`` threadblocks and return timing."""
        cfg = KernelLaunch(kernel, grid, block_threads, args,
                           regs_per_thread, scratchpad_bytes, block_init)
        return self.launch_cfg(cfg)

    def block_factories(self, cfg: KernelLaunch, observer=None) -> list:
        """Start one launch of ``cfg`` on this device: one zero-argument
        factory per threadblock, each returning ``(BlockContext, [warp
        generators])``.  Warps record layer spans into the
        ``observer``'s tracer, and run under :attr:`sanitizer` when one
        is installed (its per-launch state resets here).  Device and
        cluster-shard launches both build their grids here."""
        spec = self.spec
        warps_per_block = -(-cfg.block_threads // spec.warp_size)
        tracer = observer.tracer if observer is not None else None
        san = self.sanitizer

        def make_block(block_id: int):
            def factory():
                block = BlockContext(
                    block_id=block_id,
                    threads=cfg.block_threads,
                    warps=warps_per_block,
                    scratchpad=Scratchpad(max(cfg.scratchpad_bytes, 1)),
                )
                if cfg.block_init is not None:
                    cfg.block_init(block)
                gens = []
                for w in range(warps_per_block):
                    if san is None:
                        ctx = WarpContext(spec, self.memory, block, w,
                                          tracer=tracer)
                        gens.append(cfg.kernel(ctx, *cfg.args))
                    else:
                        ctx = san.make_context(spec, self.memory,
                                               block, w, tracer=tracer)
                        gens.append(san.watch(
                            cfg.kernel(ctx, *cfg.args), ctx))
                return block, gens
            return factory

        if san is not None:
            san.begin_launch()
        return [make_block(b) for b in range(cfg.grid)]

    def launch_cfg(self, cfg: KernelLaunch) -> LaunchResult:
        """Run one launch, observed by the ambient profiler
        (:func:`repro.telemetry.capture`) when one is active."""
        spec = self.spec
        occ = cfg.occupancy(spec)
        # One pointer test per launch when nothing is capturing; under
        # a profiler, ObserverPlan.of decides what the launch records.
        profiler = telemetry_hooks.current()
        observer = None
        if profiler is not None:
            observer = telemetry_hooks.ObserverPlan.of(profiler).observer(
                spec.num_sms, profiler)
        engine = Engine(spec, occ.blocks_per_sm, profile=observer)
        cycles = engine.launch(self.block_factories(cfg, observer))
        self.total_cycles += cycles
        self.launches += 1
        launch_profile = None
        if profiler is not None:
            launch_profile = profiler.record_launch(
                device=self, cfg=cfg, occ=occ, engine=engine)
        return LaunchResult(
            cycles=cycles,
            seconds=spec.cycles_to_seconds(cycles),
            stats=engine.stats,
            occupancy=occ,
            profile=launch_profile,
        )
