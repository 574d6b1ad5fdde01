"""Rule ``divergent-yield``: yields under lane-divergent control flow.

In SIMT execution every lane of a warp must reach the same timed
operations in the same order; the coroutine representation encodes one
warp as one generator, so a ``yield`` guarded by a condition derived
from *per-lane* values models a warp whose lanes disagree about whether
to execute a timed instruction - the lockstep-deadlock bug of the
paper's SIV discussion.

The analysis is a small forward taint pass per kernel:

* **taint sources** - the lane-indexed context vectors (``ctx.lane``,
  ``ctx.global_tid``, ``ctx.block_tid``, ``ctx.active``) and any name
  assigned from a tainted expression;
* **uniformizers** - warp votes and reductions (``ctx.any``,
  ``ctx.all``, ``ctx.ballot``, ``wp.*_sync``, ``.any()``, ``.sum()``,
  ``np.all``, ...), and subscripting with a *constant* index (a fixed
  lane's value is broadcast-uniform); these launder taint;
* **violation** - a ``yield``/``yield from`` lexically inside an
  ``if``/``while`` whose test is still tainted, or inside an ``if``
  whose test subscripts a tainted vector with a loop variable (the
  serialized per-lane-yield anti-pattern).

The correct idiom never fires: ``if ctx.any(pred):`` is warp-uniform,
and masked accesses (``ctx.load(addr, mask=pred)``) keep the whole
warp at the same yield site.

This module also owns rule ``barrier-divergence``, the block-level
sibling: ``ctx.syncthreads()`` must be reached by *every warp of the
block*, so a barrier guarded by a **warp-varying** condition - one
derived from ``ctx.warp_id`` / ``ctx.warp_in_block``, or from a warp
vote over per-lane data (``ctx.any(...)`` is uniform *within* a warp
but each warp votes on its own lanes) - hangs the block on real
hardware.  ``ctx.block_id`` is deliberately not warp-varying: it is
uniform across the whole block.  With an
:class:`~repro.analysis.effects.EffectProgram` attached the check is
interprocedural: ``yield from helper(ctx)`` counts as a barrier
whenever the helper's effect summary says it can pass through one,
which is exactly the case a lexical scan provably misses.
"""

from __future__ import annotations

import ast

from repro.analysis.kernels import (
    LANE_VECTOR_ATTRS,
    UNIFORM_ATTRS,
    UNIFORM_REDUCERS,
    WARP_VARYING_ATTRS,
    KernelFn,
    ModuleIndex,
    call_name,
    receiver_is_ctx,
)
from repro.analysis.model import Finding

RULE = "divergent-yield"
BARRIER_RULE = "barrier-divergence"


def check(kernel: KernelFn, index: ModuleIndex,
          effects=None) -> list[Finding]:
    checker = _Checker(kernel, index, effects)
    checker.run()
    return checker.findings


class _Checker:
    def __init__(self, kernel: KernelFn, index: ModuleIndex,
                 effects=None):
        self.kernel = kernel
        self.index = index
        self.effects = effects
        self.findings: list[Finding] = []
        self.tainted: set[str] = set()
        #: names carrying warp-varying (but lane-uniform) values
        self.warp_tainted: set[str] = set()
        #: conditions currently guarding execution:
        #: (test node, lane-tainted, warp-varying)
        self.guards: list[tuple[ast.expr, bool, bool]] = []

    # ------------------------------------------------------------------
    def run(self) -> None:
        self._visit_body(self.kernel.node.body)

    def _visit_body(self, body: list) -> None:
        for stmt in body:
            self._visit_stmt(stmt)

    def _visit_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return  # nested kernels are linted separately
        if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            self._track_assignment(stmt)
            self._scan_yields(stmt)
            return
        if isinstance(stmt, ast.If):
            self.guards.append((stmt.test, self._is_tainted(stmt.test),
                                self._is_warp_varying(stmt.test)))
            self._visit_body(stmt.body)
            self._visit_body(stmt.orelse)
            self.guards.pop()
            return
        if isinstance(stmt, ast.While):
            self.guards.append((stmt.test, self._is_tainted(stmt.test),
                                self._is_warp_varying(stmt.test)))
            self._visit_body(stmt.body)
            self.guards.pop()
            self._visit_body(stmt.orelse)
            return
        if isinstance(stmt, ast.For):
            # The loop target of an iteration over a tainted vector is
            # itself per-lane data.
            if self._is_tainted(stmt.iter):
                self._taint_target(stmt.target)
                self.guards.append((stmt.iter, True,
                                    self._is_warp_varying(stmt.iter)))
                self._visit_body(stmt.body)
                self.guards.pop()
            elif self._is_warp_varying(stmt.iter):
                self.guards.append((stmt.iter, False, True))
                self._visit_body(stmt.body)
                self.guards.pop()
            else:
                self._visit_body(stmt.body)
            self._visit_body(stmt.orelse)
            return
        if isinstance(stmt, (ast.With,)):
            self._visit_body(stmt.body)
            return
        if isinstance(stmt, ast.Try):
            self._visit_body(stmt.body)
            for handler in stmt.handlers:
                self._visit_body(handler.body)
            self._visit_body(stmt.orelse)
            self._visit_body(stmt.finalbody)
            return
        self._scan_yields(stmt)

    # ------------------------------------------------------------------
    def _scan_yields(self, stmt: ast.stmt) -> None:
        lane_guarded = any(lane for _, lane, _ in self.guards)
        warp_guarded = any(warp for _, _, warp in self.guards)
        if not lane_guarded and not warp_guarded:
            return
        for node in ast.walk(stmt):
            if lane_guarded \
                    and isinstance(node, (ast.Yield, ast.YieldFrom)):
                test = next(g[0] for g in self.guards if g[1])
                self.findings.append(Finding(
                    rule=RULE, path=self.index.path,
                    line=node.lineno, col=node.col_offset,
                    function=self.kernel.qualname,
                    message=(
                        "yield guarded by lane-divergent condition "
                        f"'{ast.unparse(test)}' - "
                        "lanes would leave lockstep; reduce with "
                        "ctx.any/ctx.all/ctx.ballot or use a masked "
                        "access"),
                ))
            if warp_guarded and isinstance(node, ast.Call):
                self._check_barrier(node)

    def _check_barrier(self, call: ast.Call) -> None:
        """``barrier-divergence``: a barrier under a warp-varying guard."""
        name = call_name(call)
        how = ""
        if receiver_is_ctx(call, self.kernel.ctx_names):
            if name != "syncthreads":
                return
        elif self.effects is not None:
            candidates = self.effects.graph.resolve(
                call, self.kernel, self.index)
            hidden = [c for c in candidates
                      if (s := self.effects.summaries.get(c.key))
                      is not None and s.barriers_max > 0]
            if not hidden:
                return
            how = (f" hidden inside helper '{hidden[0].name}' "
                   f"(barriers {self._bounds(hidden[0])})")
        else:
            return
        test = next(g[0] for g in self.guards if g[2])
        self.findings.append(Finding(
            rule=BARRIER_RULE, path=self.index.path,
            line=call.lineno, col=call.col_offset,
            function=self.kernel.qualname,
            message=(
                f"barrier{how} is guarded by warp-varying condition "
                f"'{ast.unparse(test)}' - warps "
                f"of the block disagree about reaching syncthreads "
                f"and the block hangs; hoist the barrier out of the "
                f"branch"),
        ))

    def _bounds(self, node) -> str:
        summary = self.effects.summaries[node.key]
        hi = "unbounded" if summary.barriers_max >= (1 << 30) \
            else summary.barriers_max
        return f"[{summary.barriers_min}, {hi}]"

    # ------------------------------------------------------------------
    def _track_assignment(self, stmt) -> None:
        value = getattr(stmt, "value", None)
        if value is None:
            return
        tainted = self._is_tainted(value)
        warp = self._is_warp_varying(value)
        targets = (stmt.targets if isinstance(stmt, ast.Assign)
                   else [stmt.target])
        for target in targets:
            if isinstance(stmt, ast.AugAssign):
                if isinstance(target, ast.Name):
                    if tainted:
                        self.tainted.add(target.id)
                    if warp:
                        self.warp_tainted.add(target.id)
                continue
            if tainted:
                self._taint_target(target)
            else:
                self._untaint_target(target)
            if warp:
                self._mark_target(target, self.warp_tainted.add)
            else:
                self._mark_target(target, self.warp_tainted.discard)

    def _taint_target(self, target: ast.expr) -> None:
        self._mark_target(target, self.tainted.add)

    def _untaint_target(self, target: ast.expr) -> None:
        self._mark_target(target, self.tainted.discard)

    def _mark_target(self, target: ast.expr, op) -> None:
        if isinstance(target, ast.Name):
            op(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._mark_target(elt, op)

    # ------------------------------------------------------------------
    def _is_tainted(self, node: ast.expr) -> bool:
        """Does ``node`` carry per-lane (warp-divergent) data?"""
        if isinstance(node, ast.Name):
            return node.id in self.tainted
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) \
                    and node.value.id in self.kernel.ctx_names:
                return node.attr in LANE_VECTOR_ATTRS
            if node.attr in UNIFORM_ATTRS:
                return False
            return self._is_tainted(node.value)
        if isinstance(node, ast.Call):
            name = call_name(node)
            if name in UNIFORM_REDUCERS:
                return False
            # Method reductions on a tainted value: pred.any(), .sum()
            if isinstance(node.func, ast.Attribute) \
                    and node.func.attr in UNIFORM_REDUCERS:
                return False
            return any(self._is_tainted(a) for a in node.args) \
                or any(self._is_tainted(kw.value)
                       for kw in node.keywords)
        if isinstance(node, ast.Subscript):
            if not self._is_tainted(node.value):
                return False
            # A constant index selects one lane's value, which is the
            # same for the whole warp (broadcast); a variable index is
            # lane-dependent selection and stays divergent.
            return not isinstance(node.slice, ast.Constant)
        if isinstance(node, (ast.BinOp,)):
            return self._is_tainted(node.left) \
                or self._is_tainted(node.right)
        if isinstance(node, ast.UnaryOp):
            return self._is_tainted(node.operand)
        if isinstance(node, ast.BoolOp):
            return any(self._is_tainted(v) for v in node.values)
        if isinstance(node, ast.Compare):
            return self._is_tainted(node.left) \
                or any(self._is_tainted(c) for c in node.comparators)
        if isinstance(node, ast.IfExp):
            return (self._is_tainted(node.test)
                    or self._is_tainted(node.body)
                    or self._is_tainted(node.orelse))
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return any(self._is_tainted(e) for e in node.elts)
        if isinstance(node, ast.YieldFrom):
            return False   # results of timed ops: treated as uniform
        return False

    # ------------------------------------------------------------------
    def _is_warp_varying(self, node: ast.expr) -> bool:
        """Lane-uniform but different between warps of one block?

        Sources: ``ctx.warp_id`` / ``ctx.warp_in_block`` and warp
        votes/reductions over per-lane data (``ctx.any(pred)`` is the
        *same* for all lanes of a warp yet each warp votes over its
        own lanes).  ``ctx.block_id`` is block-uniform, hence absent.
        """
        if isinstance(node, ast.Name):
            return node.id in self.warp_tainted
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) \
                    and node.value.id in self.kernel.ctx_names:
                return node.attr in WARP_VARYING_ATTRS
            if node.attr in UNIFORM_ATTRS:
                return False
            return self._is_warp_varying(node.value)
        if isinstance(node, ast.Call):
            name = call_name(node)
            reducer = name in UNIFORM_REDUCERS or (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in UNIFORM_REDUCERS)
            operands = list(node.args) \
                + [kw.value for kw in node.keywords]
            if reducer:
                # Reducing lane-varying data yields a warp-varying
                # scalar; reducing warp-varying data stays so.
                receiver = node.func.value \
                    if isinstance(node.func, ast.Attribute) else None
                if receiver is not None:
                    operands.append(receiver)
                return any(self._is_tainted(a)
                           or self._is_warp_varying(a)
                           for a in operands)
            return any(self._is_warp_varying(a) for a in operands)
        if isinstance(node, ast.Subscript):
            return self._is_warp_varying(node.value) \
                or self._is_warp_varying(node.slice) \
                or (self._is_tainted(node.value)
                    and isinstance(node.slice, ast.Constant))
        if isinstance(node, ast.BinOp):
            return self._is_warp_varying(node.left) \
                or self._is_warp_varying(node.right)
        if isinstance(node, ast.UnaryOp):
            return self._is_warp_varying(node.operand)
        if isinstance(node, ast.BoolOp):
            return any(self._is_warp_varying(v) for v in node.values)
        if isinstance(node, ast.Compare):
            return self._is_warp_varying(node.left) \
                or any(self._is_warp_varying(c)
                       for c in node.comparators)
        if isinstance(node, ast.IfExp):
            return (self._is_warp_varying(node.test)
                    or self._is_warp_varying(node.body)
                    or self._is_warp_varying(node.orelse))
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return any(self._is_warp_varying(e) for e in node.elts)
        return False
