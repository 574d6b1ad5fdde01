"""Rule ``lock-order``: inconsistent ``ctx.lock`` acquisition order.

The spinlock table (paper Section 4.3: per-xpage locks guarding frame
install) is keyed by integer ids; two warps that acquire the same pair
of locks in opposite orders can deadlock the simulated machine just
like real firmware.  Because lock keys are expressions, the rule
canonicalizes each ``ctx.lock(expr)`` argument with ``ast.unparse`` and
builds a *global* acquisition-order graph across all linted files: an
edge ``A -> B`` whenever ``B`` is acquired while ``A`` is still held.
Any cycle in that graph is a potential inversion and every
participating acquisition site is reported.

Also reported per function:

* re-acquiring a key already held (self-deadlock on a non-reentrant
  spinlock);
* ``ctx.unlock`` of a key that is provably not held on any path
  (unbalanced pairing the static scan can prove wrong);
* a *blocking syscall* (``pread``/``pwrite``/``msync``/``ftruncate``/
  ``wait`` from :mod:`repro.syscalls`) reached while any lock may be
  held - directly, or hidden inside a helper coroutine whose effect
  summary says it can block.

The walk is path-sensitive with a **must/may split** at every join:
after a branch the intersection of the arms is *must-held* (used for
self-deadlock via helpers and for the shared-race rule's common-lock
proof) and the union is *may-held* (used for order edges and for
blocking-under-lock, which only needs possibility).  Loop exits join
the zero-iteration path with every ``break`` state, so a lock
acquired before a ``break`` is still held after the loop - the
join-state bug the purely lexical scan had.

With an :class:`~repro.analysis.effects.EffectProgram` attached, the
scan is interprocedural: ``yield from helper(ctx, k)`` applies the
helper's summary - order edges from every held key to every key the
helper may acquire (parameter names substituted with the caller's
argument expressions), blocking syscalls it reaches, and the locks it
leaves held or releases on the caller's behalf.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.effects import (
    EffectSummary,
    _canonical_key,
    _join_states,
    _State,
    param_arg_map,
    _substitute,
)
from repro.analysis.kernels import (
    BLOCKING_SYSCALLS,
    KernelFn,
    ModuleIndex,
    call_name,
    first_arg_is_ctx,
    receiver_is_ctx,
)
from repro.analysis.model import Finding

RULE = "lock-order"


@dataclass
class _Acquire:
    """One ``ctx.lock`` site in the global order graph."""

    key: str
    path: str
    line: int
    col: int
    function: str


@dataclass
class LockOrderGraph:
    """Acquisition-order edges accumulated across every linted file.

    The linter feeds each kernel through :meth:`scan` and calls
    :meth:`inversions` once at the end; per-function findings
    (re-acquire, unmatched unlock, blocking-under-lock) are returned
    from :meth:`scan` directly.
    """

    #: held-key -> acquired-key -> list of witnessing acquire sites
    edges: dict[str, dict[str, list[_Acquire]]] = field(
        default_factory=dict)

    # ------------------------------------------------------------------
    def scan(self, kernel: KernelFn, index: ModuleIndex,
             effects=None) -> list[Finding]:
        findings: list[Finding] = []
        walker = _LockWalker(self, kernel, index, effects, findings)
        walker.walk(kernel.node.body, _State())
        return findings

    def edge(self, held: str, acquired: str, site: _Acquire) -> None:
        if held != acquired:
            self.edges.setdefault(held, {}) \
                .setdefault(acquired, []).append(site)

    # ------------------------------------------------------------------
    def inversions(self) -> list[Finding]:
        """Cycle detection over the accumulated order graph."""
        findings: list[Finding] = []
        seen_pairs: set[tuple[str, str]] = set()
        for a, succs in sorted(self.edges.items()):
            for b in sorted(succs):
                if (a, b) in seen_pairs:
                    continue
                if not self._reaches(b, a):
                    continue
                seen_pairs.add((a, b))
                seen_pairs.add((b, a))
                for site in succs[b] + self.edges.get(b, {}).get(a, []):
                    findings.append(Finding(
                        rule=RULE, path=site.path, line=site.line,
                        col=site.col, function=site.function,
                        message=(
                            f"lock-order inversion: '{a}' and '{b}' "
                            f"are acquired in both orders across the "
                            f"codebase - pick one global order "
                            f"(e.g. sort keys before locking)")))
        return findings

    def _reaches(self, src: str, dst: str) -> bool:
        stack, seen = [src], {src}
        while stack:
            cur = stack.pop()
            if cur == dst:
                return True
            for nxt in self.edges.get(cur, {}):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return False


class _LockWalker:
    """Path-sensitive held-lock walk over one kernel function."""

    def __init__(self, graph: LockOrderGraph, kernel: KernelFn,
                 index: ModuleIndex, effects, findings: list):
        self.graph = graph
        self.kernel = kernel
        self.index = index
        self.effects = effects
        self.findings = findings
        self.loop_breaks: list = []
        #: every key ``ctx.lock``-ed anywhere in this function so far;
        #: distinguishes a provably unbalanced unlock from a *foreign
        #: release* (a helper unlocking on its caller's behalf).
        self.acquired: set[str] = set()

    # ------------------------------------------------------------------
    def walk(self, body: list, state: _State):
        """Returns ``(state_after, terminated)``."""
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            if isinstance(stmt, ast.If):
                self._scan_expr(stmt.test, state)
                arms = [self.walk(stmt.body, state.clone()),
                        self.walk(stmt.orelse, state.clone())]
                live = [s for s, term in arms if not term]
                if not live:
                    return state, True
                self._adopt(state, _join_states(live))
                continue
            if isinstance(stmt, (ast.While, ast.For)):
                test = stmt.test if isinstance(stmt, ast.While) \
                    else stmt.iter
                self._scan_expr(test, state)
                always_enters = (
                    isinstance(stmt, ast.While)
                    and isinstance(stmt.test, ast.Constant)
                    and bool(stmt.test.value))
                self.loop_breaks.append([])
                entry = state.clone()
                body_state, body_term = self.walk(stmt.body,
                                                  state.clone())
                breaks = self.loop_breaks.pop()
                candidates = list(breaks)
                if always_enters:
                    if not candidates:
                        # Every exit from ``while True`` returns or
                        # raises: nothing ever falls through.
                        self.walk(stmt.orelse, entry.clone())
                        return state, True
                else:
                    candidates.append(entry)
                    if not body_term:
                        candidates.append(body_state)
                self._adopt(state, _join_states(candidates))
                state, term = self.walk(stmt.orelse, state)
                if term:
                    return state, True
                continue
            if isinstance(stmt, ast.Try):
                entry = state.clone()
                body_state, body_term = self.walk(stmt.body,
                                                  state.clone())
                handler_states = []
                for handler in stmt.handlers:
                    h_state, h_term = self.walk(handler.body,
                                                entry.clone())
                    if not h_term:
                        handler_states.append(h_state)
                if not body_term:
                    body_state, body_term = self.walk(stmt.orelse,
                                                      body_state)
                live = ([] if body_term else [body_state]) \
                    + handler_states
                if not live:
                    if stmt.finalbody:
                        self.walk(stmt.finalbody, entry.clone())
                    return state, True
                self._adopt(state, _join_states(live))
                state, term = self.walk(stmt.finalbody, state)
                if term:
                    return state, True
                continue
            if isinstance(stmt, ast.With):
                for item in stmt.items:
                    self._scan_expr(item.context_expr, state)
                state, term = self.walk(stmt.body, state)
                if term:
                    return state, True
                continue
            self._scan_expr(stmt, state)
            if isinstance(stmt, (ast.Return, ast.Raise)):
                return state, True
            if isinstance(stmt, (ast.Break, ast.Continue)):
                if isinstance(stmt, ast.Break) and self.loop_breaks:
                    self.loop_breaks[-1].append(state.clone())
                return state, True
        return state, False

    @staticmethod
    def _adopt(state: _State, new: _State) -> None:
        state.may, state.must = new.may, new.must

    # ------------------------------------------------------------------
    def _scan_expr(self, node, state: _State) -> None:
        if node is None:
            return
        calls = [n for n in ast.walk(node) if isinstance(n, ast.Call)]
        calls.sort(key=lambda n: (n.lineno, n.col_offset))
        for call in calls:
            self._handle_call(call, state)

    def _handle_call(self, call: ast.Call, state: _State) -> None:
        kernel = self.kernel
        name = call_name(call)
        if receiver_is_ctx(call, kernel.ctx_names):
            if name == "lock" and call.args:
                self._acquire(call, _canonical_key(call.args[0]), state)
            elif name == "unlock" and call.args:
                self._release(call, _canonical_key(call.args[0]), state)
            return
        if name in BLOCKING_SYSCALLS \
                and first_arg_is_ctx(call, kernel.ctx_names):
            if state.may:
                self._blocked(call, name, state)
            return
        if self.effects is None:
            return
        candidates = self.effects.graph.resolve(call, kernel,
                                                self.index)
        if not candidates:
            return
        results = []
        for callee in candidates:
            summary = self.effects.summaries.get(
                callee.key, EffectSummary())
            branch = state.clone()
            self._apply_summary(call, callee, summary, branch)
            results.append(branch)
        self._adopt(state, _join_states(results))

    # ------------------------------------------------------------------
    def _acquire(self, node, key: str, state: _State) -> None:
        if key in state.may:
            self.findings.append(self._finding(
                node,
                f"lock key '{key}' acquired while already held - "
                f"self-deadlock on a non-reentrant spinlock"))
        site = _Acquire(key=key, path=self.index.path,
                        line=node.lineno, col=node.col_offset,
                        function=self.kernel.qualname)
        for prior in state.may:
            self.graph.edge(prior, key, site)
        if key not in state.may:
            state.may.append(key)
        state.must.add(key)
        self.acquired.add(key)

    def _release(self, node, key: str, state: _State) -> None:
        if key in state.may:
            state.may.reverse()
            state.may.remove(key)
            state.may.reverse()
            state.must.discard(key)
            return
        if key not in self.acquired and self._has_callers():
            # Foreign release: this helper never took the lock itself
            # and some kernel calls it, so it is plausibly unlocking on
            # the caller's behalf.  The callers are judged against its
            # ``releases_foreign`` summary instead.
            return
        self.findings.append(self._finding(
            node,
            f"unlock of '{key}' which is not held on this path - "
            f"unbalanced lock/unlock pairing"))

    def _has_callers(self) -> bool:
        if self.effects is None:
            return False
        from repro.analysis.callgraph import FnKey
        key = FnKey(self.index.path, self.kernel.qualname)
        return bool(self.effects.graph.callers.get(key))

    def _blocked(self, node, name: str, state: _State,
                 via: str = "") -> None:
        held = next((k for k in reversed(state.may)
                     if k in state.must), state.may[-1])
        hedge = "is" if held in state.must else "may be"
        self.findings.append(self._finding(
            node,
            f"blocking syscall '{name}'{via} invoked while lock "
            f"'{held}' {hedge} held - syscalls take page-table "
            f"bucket locks internally and block on host I/O; "
            f"release held locks first"))

    # ------------------------------------------------------------------
    def _apply_summary(self, call: ast.Call, callee, summary,
                       state: _State) -> None:
        mapping = param_arg_map(callee, call)
        if summary.blocking_syscalls and state.may:
            for name in sorted(summary.blocking_syscalls):
                self._blocked(call, name, state,
                              via=f" reached via helper "
                                  f"'{callee.name}'")
        site = _Acquire(key="", path=self.index.path,
                        line=call.lineno, col=call.col_offset,
                        function=self.kernel.qualname)
        for raw in sorted(summary.may_acquire):
            key = _substitute(raw, mapping)
            if key in state.must:
                self.findings.append(self._finding(
                    call,
                    f"lock key '{key}' is held here and re-acquired "
                    f"inside helper '{callee.name}' - self-deadlock "
                    f"on a non-reentrant spinlock"))
            for prior in state.may:
                self.graph.edge(
                    prior, key,
                    _Acquire(key=key, path=site.path, line=site.line,
                             col=site.col, function=site.function))
        for raw in summary.releases_foreign:
            key = _substitute(raw, mapping)
            if key in state.may:
                state.may.reverse()
                state.may.remove(key)
                state.may.reverse()
            state.must.discard(key)
        for raw in summary.exit_may_held:
            key = _substitute(raw, mapping)
            if key not in state.may:
                state.may.append(key)
        for raw in summary.exit_must_held:
            state.must.add(_substitute(raw, mapping))

    def _finding(self, node, message: str) -> Finding:
        return Finding(rule=RULE, path=self.index.path,
                       line=node.lineno, col=node.col_offset,
                       function=self.kernel.qualname, message=message)
