"""Rule ``aptr-lifecycle``: every APtr must reach destroy(), once.

An :class:`~repro.core.apointer.APtr` holds page references while any
lane is linked; a kernel that exits without ``yield from
ptr.destroy(ctx)`` leaks those reference counts forever - the page can
never be evicted and, with a TLB, the entry can never be reclaimed.
Conversely a dereference *after* destroy re-faults pages the kernel
will never release.

Per kernel function the rule tracks names bound by creator calls
(``avm.gvmmap(...)``, ``gvmmap_device``, ``ptr.clone(ctx)``) and
reports:

* **missing destroy** - the pointer is created but no
  ``destroy``/``gvmunmap`` call for it exists in the function;
* **conditional destroy** - the pointer is created unconditionally but
  only destroyed under a branch (some exit paths leak);
* **use after destroy** - a timed use at the same nesting level after
  the (last) destroy.

A pointer that *escapes* - returned, yielded, stored into a container
or attribute, aliased, or passed to another function - transfers
ownership, and the rule stays silent rather than guess.  With an
:class:`~repro.analysis.effects.EffectProgram` attached, passing the
pointer to a *resolvable helper coroutine* is no longer an escape:
the helper's ``destroys_params`` summary says whether it destroys the
argument on every path (counts as a destroy here) or only on some
(counts as a *conditional* destroy - the early-return-helper leak the
lexical scan could never see).  A resolvable helper that never
destroys the argument still transfers ownership conservatively.

The same machinery tracks *syscall tickets*: ``pread_async`` /
``pwrite_async`` (:mod:`repro.syscalls`) return a ticket whose
transfer only completes once the kernel drives ``yield from
sc.wait(ctx, ticket)``.  A ticket that is never waited on races the
warp's exit against the DMA; one waited on only inside a branch leaks
the race on the other arm.  Escape analysis applies identically.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.kernels import (
    APTR_CREATORS,
    TICKET_CREATORS,
    KernelFn,
    ModuleIndex,
    call_name,
    first_arg_is_ctx,
    parent,
    walk_function,
)
from repro.analysis.model import Finding

RULE = "aptr-lifecycle"

#: APtr methods that dereference or otherwise require a live pointer.
_USE_METHODS = frozenset({
    "read", "write", "read_wide", "write_wide", "add", "seek",
})


@dataclass
class _Pointer:
    name: str
    created: ast.Call
    create_depth: int            # 0 = top level of the function body
    create_pos: int              # linear statement index
    destroys: list[tuple[int, int]] = field(default_factory=list)
    #: (pos, node) of timed uses, for use-after-destroy
    uses: list[tuple[int, ast.AST]] = field(default_factory=list)
    escaped: bool = False


def check(kernel: KernelFn, index: ModuleIndex,
          effects=None) -> list[Finding]:
    pointers: dict[str, _Pointer] = {}
    order: dict[int, int] = {}      # id(stmt) -> linear position
    depth: dict[int, int] = {}      # id(stmt) -> branch nesting depth

    _number_statements(kernel.node.body, order, depth, 0)

    # walk_function yields nodes in stack order, not source order, so
    # collect every call first and register creators before matching
    # destroys/uses against them.
    calls: list[tuple[ast.Call, str, int, int]] = []
    for node in walk_function(kernel.node):
        if not isinstance(node, ast.Call):
            continue
        stmt = _enclosing_stmt(node)
        if stmt is None or id(stmt) not in order:
            continue
        calls.append((node, call_name(node),
                      order[id(stmt)], depth[id(stmt)]))
    calls.sort(key=lambda item: item[2])

    tickets: dict[str, _Pointer] = {}
    for node, name, pos, dep in calls:
        if name in APTR_CREATORS or (
                name == "clone" and first_arg_is_ctx(
                    node, kernel.ctx_names)):
            target = _assigned_name(node)
            if target is not None:
                pointers[target] = _Pointer(
                    name=target, created=node, create_depth=dep,
                    create_pos=pos)
        elif name in TICKET_CREATORS \
                and first_arg_is_ctx(node, kernel.ctx_names):
            target = _assigned_name(node)
            if target is not None:
                tickets[target] = _Pointer(
                    name=target, created=node, create_depth=dep,
                    create_pos=pos)

    for node, name, pos, dep in calls:
        if name == "destroy" and _receiver_name(node) in pointers:
            pointers[_receiver_name(node)].destroys.append((pos, dep))
        elif name == "gvmunmap":
            # avm.gvmunmap(ctx, ptr) destroys its second argument.
            if len(node.args) >= 2 and isinstance(node.args[1], ast.Name):
                ptr = pointers.get(node.args[1].id)
                if ptr is not None:
                    ptr.destroys.append((pos, dep))
        elif name == "wait" and first_arg_is_ctx(node, kernel.ctx_names):
            # sc.wait(ctx, ticket) completes its second argument.
            if len(node.args) >= 2 and isinstance(node.args[1], ast.Name):
                tkt = tickets.get(node.args[1].id)
                if tkt is not None:
                    tkt.destroys.append((pos, dep))
        elif name in _USE_METHODS and _receiver_name(node) in pointers \
                and first_arg_is_ctx(node, kernel.ctx_names):
            pointers[_receiver_name(node)].uses.append((pos, node))

    consumed = _apply_summaries(kernel, index, effects, calls,
                                pointers, tickets)
    _find_escapes(kernel, pointers, consumed)
    _find_escapes(kernel, tickets, consumed)

    findings: list[Finding] = []
    for ptr in pointers.values():
        if ptr.escaped:
            continue
        if not ptr.destroys:
            findings.append(_finding(
                kernel, index, ptr.created,
                f"apointer '{ptr.name}' is created but never "
                f"destroyed - leaked page references; add 'yield from "
                f"{ptr.name}.destroy(ctx)' before every exit"))
            continue
        min_destroy_depth = min(d for _, d in ptr.destroys)
        if ptr.create_depth == 0 and min_destroy_depth > 0:
            findings.append(_finding(
                kernel, index, ptr.created,
                f"apointer '{ptr.name}' is created unconditionally "
                f"but only destroyed inside a branch - some exit "
                f"paths leak its page references"))
        last_destroy = max(p for p, d in ptr.destroys
                           if d <= ptr.create_depth)  \
            if any(d <= ptr.create_depth for _, d in ptr.destroys) \
            else max(p for p, _ in ptr.destroys)
        for pos, node in ptr.uses:
            if pos > last_destroy:
                findings.append(_finding(
                    kernel, index, node,
                    f"apointer '{ptr.name}' is dereferenced after "
                    f"destroy() - re-faults pages that are never "
                    f"released"))

    for tkt in tickets.values():
        if tkt.escaped:
            continue
        creator = call_name(tkt.created)
        if not tkt.destroys:
            findings.append(_finding(
                kernel, index, tkt.created,
                f"syscall ticket '{tkt.name}' from {creator}() is "
                f"never waited on - the warp can exit while the "
                f"transfer is in flight; add 'yield from "
                f"sc.wait(ctx, {tkt.name})'"))
            continue
        if tkt.create_depth == 0 \
                and min(d for _, d in tkt.destroys) > 0:
            findings.append(_finding(
                kernel, index, tkt.created,
                f"syscall ticket '{tkt.name}' from {creator}() is "
                f"waited on only inside a branch - some exit paths "
                f"race the warp's exit against the transfer"))
    return findings


# ----------------------------------------------------------------------
def _number_statements(body: list, order: dict, depth: dict,
                       dep: int) -> None:
    for stmt in body:
        order[id(stmt)] = len(order)
        depth[id(stmt)] = dep
        branch = dep + 1 if isinstance(
            stmt, (ast.If, ast.While, ast.Try)) else dep
        # Loop bodies stay at the parent depth: a create/destroy pair
        # inside the same loop body balances every iteration.
        if isinstance(stmt, ast.For):
            branch = dep
        for name in ("body", "orelse", "finalbody"):
            sub = getattr(stmt, name, None)
            if sub:
                _number_statements(
                    [s for s in sub
                     if not isinstance(s, ast.FunctionDef)],
                    order, depth, branch)
        for handler in getattr(stmt, "handlers", []) or []:
            _number_statements(handler.body, order, depth, branch)


def _enclosing_stmt(node: ast.AST):
    cur = node
    while cur is not None and not isinstance(cur, ast.stmt):
        cur = parent(cur)
    return cur


def _assigned_name(call: ast.Call) -> str | None:
    up = parent(call)
    # Tickets are bound through the driving delegation:
    # ``t = yield from sc.pread_async(ctx, ...)``.
    if isinstance(up, (ast.YieldFrom, ast.Await)):
        up = parent(up)
    if isinstance(up, ast.Assign) and len(up.targets) == 1 \
            and isinstance(up.targets[0], ast.Name):
        return up.targets[0].id
    if isinstance(up, (ast.AnnAssign, ast.NamedExpr)) \
            and isinstance(up.target, ast.Name):
        return up.target.id
    return None


def _receiver_name(call: ast.Call) -> str | None:
    fn = call.func
    if isinstance(fn, ast.Attribute) and isinstance(fn.value, ast.Name):
        return fn.value.id
    return None


def _apply_summaries(kernel: KernelFn, index: ModuleIndex, effects,
                     calls: list, pointers: dict,
                     tickets: dict) -> dict:
    """Consume callee ``destroys_params`` summaries.

    Returns ``{id(call): {arg names the summary accounted for}}`` so
    escape analysis skips those argument positions.  A destroy the
    callee performs on *every* path counts at the call's own depth;
    one performed only on *some* paths counts one level deeper, which
    is exactly what makes the conditional-destroy finding fire for an
    unconditionally created pointer.  Dynamic dispatch only counts
    when every candidate destroys the parameter.
    """
    consumed: dict[int, set[str]] = {}
    if effects is None:
        return consumed
    from repro.analysis.effects import aligned_param_index
    for node, name, pos, dep in calls:
        if name in ("destroy", "gvmunmap", "wait"):
            continue
        candidates = effects.graph.resolve(node, kernel, index)
        if not candidates:
            continue
        for arg_pos, arg in enumerate(node.args):
            if not isinstance(arg, ast.Name):
                continue
            tracked = pointers.get(arg.id) or tickets.get(arg.id)
            if tracked is None:
                continue
            modes = []
            for callee in candidates:
                summary = effects.summaries.get(callee.key)
                mode = None
                if summary is not None:
                    idx = aligned_param_index(callee, node, arg_pos)
                    mode = summary.destroys_params.get(idx)
                modes.append(mode)
            if any(m is None for m in modes):
                continue    # some candidate never destroys: escape
            all_always = all(m == "always" for m in modes)
            tracked.destroys.append(
                (pos, dep if all_always else dep + 1))
            consumed.setdefault(id(node), set()).add(arg.id)
    return consumed


def _find_escapes(kernel: KernelFn, pointers: dict,
                  consumed: dict | None = None) -> None:
    if not pointers:
        return
    consumed = consumed or {}
    for node in walk_function(kernel.node):
        if not (isinstance(node, ast.Name) and node.id in pointers
                and isinstance(node.ctx, ast.Load)):
            continue
        up = parent(node)
        ptr = pointers[node.id]
        if isinstance(up, ast.Attribute):
            continue        # ptr.read(...) / ptr.backend: not an escape
        if isinstance(up, (ast.Return, ast.Yield)):
            ptr.escaped = True
        elif isinstance(up, ast.Call):
            # An argument position other than gvmunmap's / wait's
            # hands the value to code this rule cannot see - unless an
            # effect summary already told us what the callee does.
            if call_name(up) not in ("gvmunmap", "wait") \
                    and node in up.args \
                    and node.id not in consumed.get(id(up), ()):
                ptr.escaped = True
        elif isinstance(up, (ast.Assign, ast.AnnAssign, ast.NamedExpr,
                             ast.Tuple, ast.List, ast.Dict, ast.Set,
                             ast.Subscript, ast.Starred)):
            ptr.escaped = True


def _finding(kernel: KernelFn, index: ModuleIndex, node: ast.AST,
             message: str) -> Finding:
    return Finding(rule=RULE, path=index.path, line=node.lineno,
                   col=node.col_offset, message=message,
                   function=kernel.qualname)
