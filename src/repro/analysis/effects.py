"""Bottom-up interprocedural effect inference for kernel coroutines.

Every generator kernel gets an :class:`EffectSummary` - what it *may*
do to the machine state the paper's concurrency argument rests on:

* **locks** - spinlock keys may-acquired anywhere inside (transitively),
  keys still held at exit (``may``/``must`` split), and keys it
  releases on behalf of its caller;
* **barriers** - how many ``syncthreads`` a warp passes through the
  call, as a ``[min, max]`` interval (``TOP`` = data-dependent);
* **blocking syscalls** - which :mod:`repro.syscalls` entry points can
  be reached (the GPU-syscalls taxonomy's blocking axis);
* **pins** - net page-pin delta bounds (``gmmap``/``gmunmap``);
* **ownership** - which of its *parameters* it destroys
  (``ptr.destroy(ctx)`` / ``gvmunmap`` / ticket ``wait``), and whether
  on every path or only some;
* **shared-structure accesses** - reads/writes of the cross-warp
  host structures (page-table entries, page-cache frames, staging
  slots, syscall tickets, raw global memory), each recorded as an
  :class:`AccessSite` carrying the must-held locks and barrier epoch
  at the access.

Summaries are propagated bottom-up over the
:class:`~repro.analysis.callgraph.CallGraph`: SCCs (recursion) iterate
to a fixpoint, dynamic dispatch joins every candidate, and a timed
call that resolves to nothing is recorded in ``opaque_calls`` so
downstream rules know the summary is a lower bound there.  Lock keys
cross call boundaries by substituting the callee's parameter names
with the caller's argument expressions, so ``self._lock(k)`` inside a
helper shows up in the caller under the caller's spelling of ``k``.

The walk itself is path-sensitive with conservative joins: at a
branch join *must*-sets intersect and *may*-sets union; loop exits
join the zero-iteration path with every ``break`` and the
one-iteration body exit (a ``while True:`` has no zero-iteration
path, so a lock acquired before ``break`` is still must-held after
the loop).

Everything here is stdlib-only (``ast`` + ``dataclasses``): the CI
lint job must never pay the numpy import tax.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field, replace

from repro.analysis.callgraph import CallGraph, FnKey, FnNode
from repro.analysis.kernels import (
    BLOCKING_SYSCALLS,
    KernelFn,
    ModuleIndex,
    call_name,
    first_arg_is_ctx,
    is_generator_fn,
    is_timed_generator_call,
    receiver_is_ctx,
)

#: Sentinel for "unbounded / data-dependent" barrier and pin counts.
TOP = 1 << 30

#: Per-summary bound on propagated access sites; beyond it the
#: summary sets ``sites_truncated`` (rules treat truncation as "may
#: access anything" rather than silently under-reporting).
SITE_CAP = 600

# ----------------------------------------------------------------------
# Shared-structure classification
# ----------------------------------------------------------------------
#: Attribute names that identify a page-table entry mutation/read
#: (``entry.dirty = False``).  Distinctive enough to match on the
#: attribute alone.
ENTRY_ATTRS = frozenset({
    "dirty", "ready", "ready_at", "refcount", "frame", "speculative",
    "removed",
})

#: Syscall-ticket completion state (``ticket.waited = True``).
TICKET_ATTRS = frozenset({"waited", "done_at"})

#: Method names that touch the page table / TLB; ``get``/``entries``
#: are too generic to match alone, so they additionally require a
#: receiver that *looks* like a table (``...table.get``, ``tlb...``).
_PT_WRITE_CALLS = frozenset({
    "insert", "host_insert", "host_remove", "remove_if_unreferenced",
    "add_refs", "unref", "lookup_and_ref", "install", "drain",
})
_PT_READ_CALLS = frozenset({"lookup", "get", "entries"})
_PT_GENERIC = frozenset({"get", "entries"})

_CACHE_WRITE_CALLS = frozenset({
    "bind", "mark_speculative", "allocate_speculative",
    "release_frame", "discard_frame",
})
_CACHE_READ_CALLS = frozenset({"frame_addr"})

_STAGING_TIMED_CALLS = frozenset({"fetch", "writeback", "flush_page"})
_STAGING_ANY_CALLS = frozenset({"fetch_async"})

# ``copy`` is in both; classify_call tests the writes first.
_GMEM_WRITE = frozenset({"store", "store_wide", "store_scalar",
                         "atomic_add", "copy"})
_GMEM_READ = frozenset({"load", "load_wide", "load_scalar", "copy"})

#: Structures the ``shared-race`` rule pairs up.  ``global_memory`` is
#: deliberately excluded there (data races on raw memory are the
#: runtime sanitizer's torn-write detector's job - addresses are not
#: statically comparable) but still summarised for the
#: static/dynamic cross-check.
RACE_STRUCTS = ("page_table", "page_cache", "staging", "syscall_ticket")


@dataclass(frozen=True)
class AccessSite:
    """One classified shared-structure access."""

    struct: str                 # "page_table" | "page_cache" | ...
    kind: str                   # "read" | "write"
    path: str
    line: int
    col: int
    function: str
    locks: frozenset            # must-held lock keys at the access
    epoch: int                  # barriers passed before the access

    def to_dict(self) -> dict:
        return {
            "struct": self.struct, "kind": self.kind,
            "path": self.path, "line": self.line, "col": self.col,
            "function": self.function,
            "locks": sorted(self.locks), "epoch": self.epoch,
        }


@dataclass
class EffectSummary:
    """The inferred effect lattice element of one generator kernel."""

    path: str = ""
    qualname: str = ""
    params: tuple = ()
    yields: bool = False
    may_acquire: frozenset = frozenset()
    exit_may_held: frozenset = frozenset()
    exit_must_held: frozenset = frozenset()
    releases_foreign: frozenset = frozenset()
    barriers_min: int = 0
    barriers_max: int = 0
    blocking_syscalls: frozenset = frozenset()
    pin_delta_min: int = 0
    pin_delta_max: int = 0
    #: positional param index -> "always" | "sometimes" destroyed
    destroys_params: dict = field(default_factory=dict)
    writes: frozenset = frozenset()
    reads: frozenset = frozenset()
    opaque_calls: frozenset = frozenset()
    sites: tuple = ()
    sites_truncated: bool = False

    def to_dict(self) -> dict:
        def _bound(v):
            return "unbounded" if v >= TOP else v
        return {
            "path": self.path, "qualname": self.qualname,
            "params": list(self.params),
            "yields": self.yields,
            "locks": {
                "may_acquire": sorted(self.may_acquire),
                "exit_may_held": sorted(self.exit_may_held),
                "exit_must_held": sorted(self.exit_must_held),
                "releases_foreign": sorted(self.releases_foreign),
            },
            "barriers": {"min": _bound(self.barriers_min),
                         "max": _bound(self.barriers_max)},
            "blocking_syscalls": sorted(self.blocking_syscalls),
            "pins": {"min": -TOP if self.pin_delta_min <= -TOP
                     else self.pin_delta_min,
                     "max": _bound(self.pin_delta_max)},
            "destroys_params": {
                self.params[i] if i < len(self.params) else str(i): mode
                for i, mode in sorted(self.destroys_params.items())},
            "writes": sorted(self.writes),
            "reads": sorted(self.reads),
            "opaque_calls": sorted(self.opaque_calls),
            "sites": [s.to_dict() for s in self.sites],
            "sites_truncated": self.sites_truncated,
        }


# ----------------------------------------------------------------------
# Path state
# ----------------------------------------------------------------------
@dataclass
class _State:
    may: list = field(default_factory=list)   # acquisition order kept
    must: set = field(default_factory=set)
    bmin: int = 0
    bmax: int = 0
    pmin: int = 0
    pmax: int = 0

    def clone(self) -> "_State":
        return _State(list(self.may), set(self.must),
                      self.bmin, self.bmax, self.pmin, self.pmax)


def _merge_order(a: list, b: list) -> list:
    merged = list(a)
    for key in b:
        if key not in merged:
            merged.append(key)
    return merged


def _join_states(states: list) -> "_State":
    """Conservative join: may = union, must = intersection."""
    states = [s for s in states if s is not None]
    if not states:
        return _State()
    out = states[0].clone()
    for s in states[1:]:
        out.may = _merge_order(out.may, s.may)
        out.must &= s.must
        out.bmin = min(out.bmin, s.bmin)
        out.bmax = max(out.bmax, s.bmax)
        out.pmin = min(out.pmin, s.pmin)
        out.pmax = max(out.pmax, s.pmax)
    return out


def _cap(value: int) -> int:
    return TOP if value >= TOP else (-TOP if value <= -TOP else value)


def _canonical_key(expr: ast.expr) -> str:
    try:
        return ast.unparse(expr)
    except Exception:  # pragma: no cover - unparse is total on exprs
        return "<unknown>"


def _substitute(key: str, mapping: dict) -> str:
    """Rewrite callee parameter names to caller argument expressions."""
    for param, repl in mapping.items():
        key = re.sub(rf"\b{re.escape(param)}\b",
                     lambda _m, r=repl: r, key)
    return key


def param_arg_map(callee: FnNode, call: ast.Call) -> dict:
    """``callee`` param name -> caller argument source text."""
    params = callee.param_names()
    mapping: dict = {}
    if params and params[0] == "self" \
            and isinstance(call.func, ast.Attribute):
        mapping["self"] = _canonical_key(call.func.value)
        params = params[1:]
    for param, arg in zip(params, call.args):
        mapping.setdefault(param, _canonical_key(arg))
    for kw in call.keywords:
        if kw.arg in params:
            mapping.setdefault(kw.arg, _canonical_key(kw.value))
    return mapping


def aligned_param_index(callee: FnNode, call: ast.Call,
                        arg_pos: int) -> int:
    """The full-params index the ``arg_pos``-th call argument binds."""
    params = callee.param_names()
    offset = 1 if params and params[0] == "self" \
        and isinstance(call.func, ast.Attribute) else 0
    return arg_pos + offset


# ----------------------------------------------------------------------
# Site classification
# ----------------------------------------------------------------------
def classify_attribute(node: ast.Attribute):
    """Classify one attribute node as a shared-structure access."""
    store = isinstance(node.ctx, (ast.Store, ast.Del))
    if node.attr in ENTRY_ATTRS:
        return ("page_table", "write" if store else "read")
    if node.attr in TICKET_ATTRS:
        return ("syscall_ticket", "write" if store else "read")
    return None


def classify_call(call: ast.Call, kernel: KernelFn):
    """Classify one call as a shared-structure access, or ``None``."""
    name = call_name(call)
    if not name:
        return None
    if receiver_is_ctx(call, kernel.ctx_names):
        if name in _GMEM_WRITE:
            return ("global_memory", "write")
        if name in _GMEM_READ:
            return ("global_memory", "read")
        return None
    receiver = ""
    if isinstance(call.func, ast.Attribute):
        receiver = _canonical_key(call.func.value)
    tableish = "table" in receiver or "tlb" in receiver
    if name in _PT_WRITE_CALLS:
        if name == "insert" and not (tableish or
                                     first_arg_is_ctx(call,
                                                      kernel.ctx_names)):
            return None     # list.insert and friends
        return ("page_table", "write")
    if name in _PT_READ_CALLS:
        if name in _PT_GENERIC and not tableish:
            return None     # dict.get / dict.entries lookalikes
        return ("page_table", "read")
    if name in _CACHE_WRITE_CALLS:
        return ("page_cache", "write")
    if name in _CACHE_READ_CALLS:
        return ("page_cache", "read")
    if name in _STAGING_TIMED_CALLS \
            and first_arg_is_ctx(call, kernel.ctx_names):
        return ("staging", "write")
    if name in _STAGING_ANY_CALLS:
        return ("staging", "write")
    return None


# ----------------------------------------------------------------------
# The per-function walker
# ----------------------------------------------------------------------
class _FnWalker:
    """One path-sensitive pass over one function body."""

    def __init__(self, fn: FnNode, program: "EffectProgram"):
        self.fn = fn
        self.program = program
        self.kernel = fn.kernel
        self.branch_depth = 0
        self.loop_breaks: list = []      # stack of break-state lists
        self.exits: list = []            # normal-exit states
        self.raise_may: list = []        # may-held at raise sites
        # Draft summary accumulators.
        self.may_acquire: set = set()
        self.releases_foreign: set = set()
        self.blocking: set = set()
        self.writes: set = set()
        self.reads: set = set()
        self.opaque: set = set()
        self.destroys: dict = {}
        self.sites: list = []
        self.truncated = False

    # ------------------------------------------------------------------
    def run(self) -> EffectSummary:
        state, terminated = self._walk(self.kernel.node.body, _State())
        if not terminated:
            self.exits.append(state)
        exit_state = _join_states(self.exits) if self.exits else _State()
        exit_may = set(exit_state.may)
        for s in self.raise_may:
            exit_may |= set(s.may)
        name = self.fn.name
        if name in BLOCKING_SYSCALLS:
            self.blocking.add(name)
        sites = tuple(self.sites[:SITE_CAP])
        return EffectSummary(
            path=self.fn.key.path, qualname=self.fn.key.qualname,
            params=tuple(self.fn.param_names()),
            yields=is_generator_fn(self.kernel.node),
            may_acquire=frozenset(self.may_acquire),
            exit_may_held=frozenset(exit_may),
            exit_must_held=frozenset(exit_state.must)
            if self.exits else frozenset(),
            releases_foreign=frozenset(self.releases_foreign),
            barriers_min=_cap(exit_state.bmin),
            barriers_max=_cap(exit_state.bmax),
            blocking_syscalls=frozenset(self.blocking),
            pin_delta_min=_cap(exit_state.pmin),
            pin_delta_max=_cap(exit_state.pmax),
            destroys_params=dict(self.destroys),
            writes=frozenset(self.writes),
            reads=frozenset(self.reads),
            opaque_calls=frozenset(self.opaque),
            sites=sites,
            sites_truncated=self.truncated
            or len(self.sites) > SITE_CAP)

    # ------------------------------------------------------------------
    def _walk(self, body: list, state: _State):
        """Returns ``(state_after, terminated)``."""
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            if isinstance(stmt, ast.If):
                self._scan(stmt.test, state)
                self.branch_depth += 1
                arms = [self._walk(stmt.body, state.clone()),
                        self._walk(stmt.orelse, state.clone())]
                self.branch_depth -= 1
                live = [s for s, term in arms if not term]
                if not live:
                    return state, True
                new = _join_states(live)
                state.may, state.must = new.may, new.must
                state.bmin, state.bmax = new.bmin, new.bmax
                state.pmin, state.pmax = new.pmin, new.pmax
                continue
            if isinstance(stmt, (ast.While, ast.For)):
                test = stmt.test if isinstance(stmt, ast.While) \
                    else stmt.iter
                self._scan(test, state)
                always_enters = (
                    isinstance(stmt, ast.While)
                    and isinstance(stmt.test, ast.Constant)
                    and bool(stmt.test.value))
                self.branch_depth += 0 if always_enters else 1
                self.loop_breaks.append([])
                entry = state.clone()
                body_state, body_term = self._walk(stmt.body,
                                                   state.clone())
                breaks = self.loop_breaks.pop()
                if not always_enters:
                    self.branch_depth -= 1
                candidates = list(breaks)
                if always_enters:
                    # ``while True``: the only exits are breaks (a
                    # falling-through body just loops again).
                    if not candidates:
                        orelse_state, _ = self._walk(stmt.orelse,
                                                     entry.clone())
                        return state, True
                else:
                    candidates.append(entry)
                    if not body_term:
                        candidates.append(body_state)
                new = _join_states(candidates)
                # A loop body containing barriers/pins repeats a
                # data-dependent number of times: widen to TOP.
                if not always_enters and not body_term:
                    if body_state.bmax > entry.bmax:
                        new.bmax = TOP
                    if body_state.pmax > entry.pmax:
                        new.pmax = TOP
                    if body_state.pmin < entry.pmin:
                        new.pmin = -TOP
                state.may, state.must = new.may, new.must
                state.bmin, state.bmax = new.bmin, new.bmax
                state.pmin, state.pmax = new.pmin, new.pmax
                state, term = self._walk(stmt.orelse, state)
                if term:
                    return state, True
                continue
            if isinstance(stmt, ast.Try):
                entry = state.clone()
                self.branch_depth += 1
                body_state, body_term = self._walk(stmt.body,
                                                   state.clone())
                handler_states = []
                for handler in stmt.handlers:
                    h_state, h_term = self._walk(handler.body,
                                                 entry.clone())
                    if not h_term:
                        handler_states.append(h_state)
                if not body_term:
                    body_state, body_term = self._walk(stmt.orelse,
                                                       body_state)
                self.branch_depth -= 1
                live = ([] if body_term else [body_state]) \
                    + handler_states
                if not live:
                    if stmt.finalbody:
                        self._walk(stmt.finalbody, entry.clone())
                    return state, True
                new = _join_states(live)
                state.may, state.must = new.may, new.must
                state.bmin, state.bmax = new.bmin, new.bmax
                state.pmin, state.pmax = new.pmin, new.pmax
                state, term = self._walk(stmt.finalbody, state)
                if term:
                    return state, True
                continue
            if isinstance(stmt, ast.With):
                for item in stmt.items:
                    self._scan(item.context_expr, state)
                state, term = self._walk(stmt.body, state)
                if term:
                    return state, True
                continue
            # Leaf statement.
            self._scan(stmt, state)
            if isinstance(stmt, ast.Return):
                self.exits.append(state.clone())
                return state, True
            if isinstance(stmt, ast.Raise):
                self.raise_may.append(state.clone())
                return state, True
            if isinstance(stmt, (ast.Break, ast.Continue)):
                if isinstance(stmt, ast.Break) and self.loop_breaks:
                    self.loop_breaks[-1].append(state.clone())
                return state, True
        return state, False

    # ------------------------------------------------------------------
    def _scan(self, node, state: _State) -> None:
        """Process every effect event inside one statement/expression,
        in source order."""
        if node is None:
            return
        events = []
        for sub in ast.walk(node):
            if isinstance(sub, ast.Attribute):
                cls = classify_attribute(sub)
                if cls is not None:
                    events.append((sub.lineno, sub.col_offset, "site",
                                   (sub, cls)))
            if not isinstance(sub, ast.Call):
                continue
            events.append((sub.lineno, sub.col_offset, "call", sub))
        for _, _, kind, payload in sorted(events, key=lambda e: (e[0],
                                                                 e[1])):
            if kind == "site":
                sub, (struct, access) = payload
                self._record_site(struct, access, sub, state)
            else:
                self._handle_call(payload, state)

    def _handle_call(self, call: ast.Call, state: _State) -> None:
        kernel = self.kernel
        name = call_name(call)
        cls = classify_call(call, kernel)
        if cls is not None:
            self._record_site(cls[0], cls[1], call, state)
        if receiver_is_ctx(call, kernel.ctx_names):
            if name == "syncthreads":
                state.bmin = _cap(state.bmin + 1)
                state.bmax = _cap(state.bmax + 1)
            elif name == "lock" and call.args:
                key = _canonical_key(call.args[0])
                self.may_acquire.add(key)
                if key not in state.may:
                    state.may.append(key)
                state.must.add(key)
            elif name == "unlock" and call.args:
                key = _canonical_key(call.args[0])
                if key in state.may:
                    state.may.reverse()
                    state.may.remove(key)
                    state.may.reverse()
                else:
                    self.releases_foreign.add(key)
                state.must.discard(key)
            return
        if name == "gmmap" and first_arg_is_ctx(call, kernel.ctx_names):
            state.pmin = _cap(state.pmin + 1)
            state.pmax = _cap(state.pmax + 1)
        elif name == "gmunmap" \
                and first_arg_is_ctx(call, kernel.ctx_names):
            state.pmin = _cap(state.pmin - 1)
            state.pmax = _cap(state.pmax - 1)
        if name in BLOCKING_SYSCALLS \
                and first_arg_is_ctx(call, kernel.ctx_names):
            self.blocking.add(name)
        self._note_destroy(call, name)
        candidates = self.program.graph.resolve(call, kernel,
                                                self.fn.index)
        if candidates:
            self._apply_candidates(call, candidates, state)
        elif is_timed_generator_call(call, kernel, self.fn.index):
            self.opaque.add(name)

    # ------------------------------------------------------------------
    def _note_destroy(self, call: ast.Call, name: str) -> None:
        """Record destruction of one of this function's parameters."""
        params = self.fn.param_names()
        target = None
        if name == "destroy" and isinstance(call.func, ast.Attribute) \
                and isinstance(call.func.value, ast.Name):
            target = call.func.value.id
        elif name in ("gvmunmap", "wait") \
                and first_arg_is_ctx(call, self.kernel.ctx_names) \
                and len(call.args) >= 2 \
                and isinstance(call.args[1], ast.Name):
            target = call.args[1].id
        if target is None or target not in params:
            return
        self._record_destroy(params.index(target))

    def _record_destroy(self, param_index: int) -> None:
        # "always" requires top-level AND no early exit above us: after
        # ``if n == 0: return`` the fall-through runs at depth 0, but
        # the return path still skips this destroy.
        unconditional = self.branch_depth == 0 and not self.exits \
            and not self.raise_may
        mode = "always" if unconditional else "sometimes"
        if self.destroys.get(param_index) != "always":
            self.destroys[param_index] = mode

    # ------------------------------------------------------------------
    def _record_site(self, struct: str, kind: str, node: ast.AST,
                     state: _State) -> None:
        (self.writes if kind == "write" else self.reads).add(struct)
        if len(self.sites) >= SITE_CAP:
            self.truncated = True
            return
        self.sites.append(AccessSite(
            struct=struct, kind=kind, path=self.fn.key.path,
            line=node.lineno, col=node.col_offset,
            function=self.fn.key.qualname,
            locks=frozenset(state.must), epoch=state.bmin))

    # ------------------------------------------------------------------
    def _apply_candidates(self, call: ast.Call, candidates: list,
                          state: _State) -> None:
        """Join the effect of every resolution candidate into state."""
        results = []
        destroy_sets = []
        for callee in candidates:
            summary = self.program.summaries.get(
                callee.key, EffectSummary())
            branch = state.clone()
            self._apply_one(call, callee, summary, branch)
            results.append(branch)
            destroy_sets.append(self._callee_destroys(call, callee,
                                                     summary))
        new = _join_states(results)
        state.may, state.must = new.may, new.must
        state.bmin, state.bmax = new.bmin, new.bmax
        state.pmin, state.pmax = new.pmin, new.pmax
        # A parameter only counts as destroyed when *every* candidate
        # destroys it (dynamic dispatch must not launder a leak).
        if destroy_sets:
            common = destroy_sets[0]
            for other in destroy_sets[1:]:
                merged = {}
                for idx, mode in common.items():
                    if idx in other:
                        merged[idx] = "always" \
                            if mode == other[idx] == "always" \
                            else "sometimes"
                common = merged
            for idx, mode in common.items():
                if mode == "sometimes":
                    # Weakest mode sticks even at depth 0.
                    if self.destroys.get(idx) != "always":
                        self.destroys[idx] = "sometimes"
                else:
                    self._record_destroy(idx)

    def _callee_destroys(self, call: ast.Call, callee: FnNode,
                         summary: EffectSummary) -> dict:
        """Which of *our* params the callee destroys through this call."""
        out: dict = {}
        params = self.fn.param_names()
        for pos, arg in enumerate(call.args):
            if not isinstance(arg, ast.Name) or arg.id not in params:
                continue
            callee_idx = aligned_param_index(callee, call, pos)
            mode = summary.destroys_params.get(callee_idx)
            if mode:
                out[params.index(arg.id)] = mode
        return out

    def _apply_one(self, call: ast.Call, callee: FnNode,
                   summary: EffectSummary, state: _State) -> None:
        mapping = param_arg_map(callee, call)
        sub = lambda k: _substitute(k, mapping)  # noqa: E731
        self.may_acquire |= {sub(k) for k in summary.may_acquire}
        self.blocking |= summary.blocking_syscalls
        self.writes |= summary.writes
        self.reads |= summary.reads
        self.opaque |= summary.opaque_calls
        for key in summary.releases_foreign:
            key = sub(key)
            if key in state.may:
                state.may.reverse()
                state.may.remove(key)
                state.may.reverse()
            else:
                self.releases_foreign.add(key)
            state.must.discard(key)
        for key in summary.exit_may_held:
            key = sub(key)
            if key not in state.may:
                state.may.append(key)
        for key in summary.exit_must_held:
            state.must.add(sub(key))
        # Imported sites see the caller's lock context and epoch.
        caller_locks = frozenset(state.must)
        for site in summary.sites:
            if len(self.sites) >= SITE_CAP:
                self.truncated = True
                break
            self.sites.append(replace(
                site, locks=site.locks | caller_locks,
                epoch=_cap(site.epoch + state.bmin)))
        if summary.sites_truncated:
            self.truncated = True
        state.bmin = _cap(state.bmin + summary.barriers_min)
        state.bmax = _cap(state.bmax + summary.barriers_max)
        state.pmin = _cap(state.pmin + summary.pin_delta_min)
        state.pmax = _cap(state.pmax + summary.pin_delta_max)


# ----------------------------------------------------------------------
# Program-level driver
# ----------------------------------------------------------------------
class EffectProgram:
    """Summaries for every generator kernel of a set of modules."""

    #: Fixpoint bound per SCC.  The set dimensions are finite and
    #: converge on their own; the barrier/pin counters are NOT (a
    #: recursive call adds the callee's count every round), so hitting
    #: the bound triggers a widening pass that sends still-growing
    #: counters to TOP.
    MAX_ROUNDS = 12

    def __init__(self, indexes: list):
        self.indexes: list[ModuleIndex] = list(indexes)
        self.graph = CallGraph.build(self.indexes)
        self.summaries: dict[FnKey, EffectSummary] = {}

    # ------------------------------------------------------------------
    @classmethod
    def from_sources(cls, sources: list) -> "EffectProgram":
        """Build from ``[(path, source), ...]`` pairs and infer."""
        from repro.analysis.kernels import index_module
        indexes = []
        for path, source in sources:
            try:
                tree = ast.parse(source, filename=path)
            except SyntaxError:
                continue
            indexes.append(index_module(path, tree))
        program = cls(indexes)
        program.infer()
        return program

    # ------------------------------------------------------------------
    def infer(self) -> None:
        for component in self.graph.sccs():
            for _ in range(4):
                if self._rounds(component):
                    break
                self._widen(component)

    def _rounds(self, component) -> bool:
        """Iterate the SCC to a fixpoint; False if the bound was hit."""
        for _ in range(self.MAX_ROUNDS):
            changed = False
            for key in component:
                walker = _FnWalker(self.graph.nodes[key], self)
                new = walker.run()
                if self.summaries.get(key) != new:
                    self.summaries[key] = new
                    changed = True
            if not changed:
                return True
        return False

    def _widen(self, component) -> None:
        """Send counters that are still growing to TOP (recursion with
        barriers or pins inside the cycle has no static bound)."""
        for key in component:
            old = self.summaries.get(key)
            if old is None:
                continue
            new = _FnWalker(self.graph.nodes[key], self).run()
            self.summaries[key] = replace(
                new,
                barriers_min=TOP
                if new.barriers_min > old.barriers_min
                else new.barriers_min,
                barriers_max=TOP
                if new.barriers_max > old.barriers_max
                else new.barriers_max,
                pin_delta_min=-TOP
                if new.pin_delta_min < old.pin_delta_min
                else new.pin_delta_min,
                pin_delta_max=TOP
                if new.pin_delta_max > old.pin_delta_max
                else new.pin_delta_max)

    # ------------------------------------------------------------------
    def summary(self, path: str, qualname: str):
        return self.summaries.get(FnKey(path, qualname))

    def summary_by_qualname(self, qualname: str):
        """First summary whose qualified name matches (test helper)."""
        for key in sorted(self.summaries, key=str):
            if key.qualname == qualname:
                return self.summaries[key]
        return None

    def roots(self) -> list:
        return self.graph.roots()

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "version": 1,
            "generator": "repro-lint --effects",
            "functions": {
                str(key): self.summaries[key].to_dict()
                for key in sorted(self.summaries, key=str)
            },
        }
