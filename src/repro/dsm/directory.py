"""The DSM directory: per-page MSI coherence state.

A host-resident service (one per shared region) tracking, for every
page, which devices hold it and in what mode:

* ``IDLE`` — no device caches the page; the backing store is current.
* ``SHARED`` — one or more devices hold read-only copies; the backing
  store is current.
* ``EXCLUSIVE`` — exactly one device holds a writable copy which may be
  dirty; the backing store may be stale.

The directory is pure bookkeeping — flushes and invalidations are
carried out (and charged for) by :class:`repro.dsm.cluster.DSMBackend`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class PageState(enum.Enum):
    IDLE = "idle"
    SHARED = "shared"
    EXCLUSIVE = "exclusive"


@dataclass
class _PageInfo:
    state: PageState = PageState.IDLE
    holders: set = field(default_factory=set)

    def owner(self) -> int:
        assert self.state is PageState.EXCLUSIVE
        (dev,) = self.holders
        return dev


class Directory:
    """MSI state machine for one shared region."""

    def __init__(self, num_devices: int):
        if num_devices <= 0:
            raise ValueError("need at least one device")
        self.num_devices = num_devices
        self._pages: dict[int, _PageInfo] = {}
        # Metrics.
        self.read_misses = 0
        self.write_misses = 0
        self.downgrades = 0
        self.invalidations = 0

    def _info(self, fpn: int) -> _PageInfo:
        return self._pages.setdefault(fpn, _PageInfo())

    def state_of(self, fpn: int) -> PageState:
        return self._info(fpn).state

    def holders_of(self, fpn: int) -> frozenset:
        return frozenset(self._info(fpn).holders)

    # ------------------------------------------------------------------
    def acquire_read(self, fpn: int, device: int) -> dict:
        """Device wants a read-only copy.

        Returns the actions the caller must perform *before* reading the
        backing store: ``{"flush": owner}`` if an exclusive holder must
        write its dirty copy back first.
        """
        self._check(device)
        info = self._info(fpn)
        actions: dict = {}
        self.read_misses += 1
        if info.state is PageState.EXCLUSIVE:
            owner = info.owner()
            if owner != device:
                actions["flush"] = owner
                self.downgrades += 1
                info.state = PageState.SHARED
                info.holders.add(device)
            # Owner re-reading keeps exclusivity.
        else:
            info.state = PageState.SHARED
            info.holders.add(device)
        return actions

    def acquire_write(self, fpn: int, device: int) -> dict:
        """Device wants a writable copy.

        Returns ``{"flush": owner, "invalidate": [devices...]}``: the
        dirty owner (if another device) must be flushed, and every other
        holder's cached copy must be invalidated before the caller may
        write.
        """
        self._check(device)
        info = self._info(fpn)
        actions: dict = {"invalidate": []}
        self.write_misses += 1
        if info.state is PageState.EXCLUSIVE and info.owner() != device:
            actions["flush"] = info.owner()
            actions["invalidate"].append(info.owner())
        elif info.state is PageState.SHARED:
            actions["invalidate"] = [d for d in info.holders
                                     if d != device]
        self.invalidations += len(actions["invalidate"])
        info.state = PageState.EXCLUSIVE
        info.holders = {device}
        return actions

    def release(self, fpn: int, device: int, flushed: bool) -> None:
        """Device dropped its cached copy (evicted or invalidated).

        A release from a device that is no longer a holder (its copy
        was already claimed away by a concurrent ``acquire_write``) is
        a no-op — otherwise it would wrongly downgrade the new owner.
        """
        info = self._info(fpn)
        if device not in info.holders:
            return
        info.holders.discard(device)
        if not info.holders:
            info.state = PageState.IDLE
        elif info.state is PageState.EXCLUSIVE:
            # The exclusive holder left; remaining holders are readers.
            info.state = PageState.SHARED

    # ------------------------------------------------------------------
    def _check(self, device: int) -> None:
        if not 0 <= device < self.num_devices:
            raise ValueError(f"unknown device {device}")
