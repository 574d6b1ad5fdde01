"""AST model of SIMT kernel code for the ``repro.analysis`` linter.

A *kernel function* is any function that receives a
:class:`~repro.gpu.kernel.WarpContext` - detected by a parameter
annotated ``WarpContext`` or named ``ctx``.  That covers launch kernels
(``def kernel(ctx, ...)``), layer methods (``def handle_fault(self,
ctx, ...)``), and nested helper generators.

The linter needs to know which calls return *timed generators* (the
things that are silent no-ops unless driven with ``yield from``).
Three sources:

* :data:`CTX_GENERATOR_METHODS` - methods **on** the context object
  itself (``ctx.load(...)``);
* :data:`TIMED_CTX_ARG_METHODS` - methods of the translation/paging
  stack that take the context as **first argument**
  (``ptr.read(ctx, ...)``, ``gpufs.gmmap(ctx, ...)``);
* module-local generator functions whose first (non-self) parameter is
  a context - collected per file, so helper coroutines defined next to
  a kernel are checked with no annotation burden.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, Optional

#: WarpContext methods that return timed generators.  Calling one of
#: these without ``yield from`` issues no request to the engine: the
#: access "happens" (numpy side effects run lazily or not at all) but
#: costs zero simulated cycles.
CTX_GENERATOR_METHODS = frozenset({
    "load", "store", "load_wide", "store_wide", "load_scalar",
    "store_scalar", "atomic_add", "scratch", "syncthreads", "lock",
    "unlock", "pcie", "host_compute", "sleep", "clock", "fence",
    "compute", "flush", "copy",
})

#: WarpContext methods that are plain calls (cost recorded lazily via
#: ``charge``); listed so rules can tell them apart explicitly.
CTX_PLAIN_METHODS = frozenset({
    "charge", "ballot", "all", "any", "shfl", "shfl_xor", "shfl_down",
    "ffs", "popc", "trace_span",
})

#: Warp-level syscall layer methods (:mod:`repro.syscalls`): take the
#: context as first argument and return timed generators — a bare
#: ``sc.pread(ctx, ...)`` without ``yield from`` performs no I/O.
SYSCALL_METHODS = frozenset({
    "pread", "pwrite", "msync", "madvise", "ftruncate",
    "pread_async", "pwrite_async", "wait", "invoke",
})

#: Non-blocking syscalls returning a :class:`SyscallTicket` that must
#: reach ``wait(ctx, ticket)`` before the kernel exits.
TICKET_CREATORS = frozenset({"pread_async", "pwrite_async"})

#: Syscall-layer entry points that block the warp and take bucket
#: locks internally (GPU-syscalls taxonomy: strong/relaxed blocking).
#: Shared by the lock-order rule and the effect inference.
BLOCKING_SYSCALLS = frozenset({
    "pread", "pwrite", "msync", "ftruncate", "wait",
})

#: Context attributes that are warp-uniform but *vary between warps of
#: one block* (``ctx.warp_id``...): branching on them is fine for
#: plain yields, but a barrier reached under such a condition breaks
#: block-level lockstep (the sanitizer's runtime ``lockstep`` check).
#: ``block_id`` is absent on purpose - it is uniform within a block,
#: so barriers under a block-id branch are safe.
WARP_VARYING_ATTRS = frozenset({"warp_id", "warp_in_block"})

#: Methods of APtr / AVM / GPUfs / TLB / page-table objects that
#: take the context as first argument and return timed generators.
#: Matching requires *both* the name and a context first argument, so
#: unrelated APIs (``set.add``, ``np.add``) never collide.
TIMED_CTX_ARG_METHODS = frozenset({
    # APtr
    "read", "write", "read_wide", "write_wide", "add", "seek",
    "destroy",
    # AVM
    "gvmunmap", "drain_tlb",
    # GPUfs / backends
    "gmmap", "gmunmap", "handle_fault", "release_page", "fault",
    "release", "flush",
    # page table / TLB
    "lookup", "insert", "add_refs", "lookup_and_ref", "install",
    "unref", "drain",
    # staging / transfers
    "fetch", "writeback", "flush_page",
}) | SYSCALL_METHODS

#: Lane-indexed WarpContext attributes: per-lane vectors whose values
#: differ across the lanes of a warp (taint sources for the
#: divergent-yield rule).
LANE_VECTOR_ATTRS = frozenset({
    "lane", "global_tid", "block_tid", "active",
})

#: Calls that reduce a per-lane vector to a warp-uniform scalar, which
#: is the legal way to branch on lane data (`__ballot`/`__all` idiom).
UNIFORM_REDUCERS = frozenset({
    "ballot", "all", "any", "all_sync", "any_sync", "popc", "ffs",
    "shfl", "shfl_xor", "shfl_down", "sum", "min", "max", "mean",
    "prod", "count_nonzero", "argmin", "argmax", "len", "unique",
    "nonzero",
})

#: Attribute reads on a tainted value that are warp-uniform metadata.
UNIFORM_ATTRS = frozenset({"size", "shape", "ndim", "dtype", "itemsize"})

#: Calls that create an APtr (lifecycle rule).  ``clone`` additionally
#: requires a context first argument.
APTR_CREATORS = frozenset({"gvmmap", "gvmmap_device"})


def _annotation_name(node: Optional[ast.expr]) -> str:
    if node is None:
        return ""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.split(".")[-1].strip("\"' ")
    return ""


def ctx_param_names(fn: ast.FunctionDef) -> set[str]:
    """Parameter names of ``fn`` that carry a WarpContext."""
    names: set[str] = set()
    args = list(fn.args.posonlyargs) + list(fn.args.args) \
        + list(fn.args.kwonlyargs)
    for arg in args:
        if arg.arg == "ctx" \
                or _annotation_name(arg.annotation) == "WarpContext":
            names.add(arg.arg)
    return names


def is_generator_fn(fn: ast.FunctionDef) -> bool:
    """True if ``fn``'s own body contains yield / yield from."""
    for node in ast.walk(fn):
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            if _owner_function(node, fn) is fn:
                return True
    return False


def _owner_function(node: ast.AST, root: ast.FunctionDef):
    """The innermost function of ``root`` containing ``node``.

    Uses the parent links installed by :func:`attach_parents`.
    """
    cur = getattr(node, "_aplint_parent", None)
    while cur is not None:
        if isinstance(cur, (ast.FunctionDef, ast.AsyncFunctionDef,
                            ast.Lambda)):
            return cur
        cur = getattr(cur, "_aplint_parent", None)
    return root


def attach_parents(tree: ast.AST) -> None:
    """Install ``_aplint_parent`` links on every node of ``tree``."""
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            child._aplint_parent = node


def parent(node: ast.AST) -> Optional[ast.AST]:
    return getattr(node, "_aplint_parent", None)


@dataclass
class KernelFn:
    """One kernel-like function plus its linting context."""

    node: ast.FunctionDef
    qualname: str
    ctx_names: set[str]


@dataclass
class ModuleIndex:
    """Everything the rules need to know about one source file."""

    path: str
    tree: ast.Module
    kernels: list[KernelFn] = field(default_factory=list)
    #: Names of module-local generator functions (free functions and
    #: methods alike) that take a context parameter - calls to these
    #: are timed sub-generators even though they are not in the
    #: hard-coded API lists.
    local_generators: set[str] = field(default_factory=set)
    #: Module-local functions taking a context that are *not*
    #: generators - calling them bare is fine.
    local_plain: set[str] = field(default_factory=set)


def index_module(path: str, tree: ast.Module) -> ModuleIndex:
    attach_parents(tree)
    index = ModuleIndex(path=path, tree=tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        ctx_names = ctx_param_names(node)
        # A function nested inside a kernel sees the enclosing context
        # through its closure (``def read_candidate(cid): ... yield
        # from ptr.read(ctx, ...)``) - inherit those names unless a
        # parameter shadows them.
        own_params = {a.arg for a in (node.args.posonlyargs
                                      + node.args.args
                                      + node.args.kwonlyargs)}
        cur = parent(node)
        while cur is not None:
            if isinstance(cur, ast.FunctionDef):
                ctx_names |= ctx_param_names(cur) - own_params
            cur = parent(cur)
        generator = is_generator_fn(node)
        if ctx_names:
            index.kernels.append(KernelFn(
                node=node, qualname=_qualname(node),
                ctx_names=ctx_names))
            if generator:
                index.local_generators.add(node.name)
            else:
                index.local_plain.add(node.name)
    return index


def _qualname(fn: ast.FunctionDef) -> str:
    parts = [fn.name]
    cur = parent(fn)
    while cur is not None:
        if isinstance(cur, (ast.FunctionDef, ast.ClassDef)):
            parts.append(cur.name)
        cur = parent(cur)
    return ".".join(reversed(parts))


# ----------------------------------------------------------------------
# Call classification
# ----------------------------------------------------------------------
def call_name(call: ast.Call) -> str:
    """The method/function name a call resolves to, or ''."""
    fn = call.func
    if isinstance(fn, ast.Attribute):
        return fn.attr
    if isinstance(fn, ast.Name):
        return fn.id
    return ""


def receiver_is_ctx(call: ast.Call, ctx_names: set[str]) -> bool:
    fn = call.func
    return (isinstance(fn, ast.Attribute)
            and isinstance(fn.value, ast.Name)
            and fn.value.id in ctx_names)


def first_arg_is_ctx(call: ast.Call, ctx_names: set[str]) -> bool:
    return (bool(call.args)
            and isinstance(call.args[0], ast.Name)
            and call.args[0].id in ctx_names)


def is_timed_generator_call(call: ast.Call, kernel: KernelFn,
                            index: ModuleIndex) -> bool:
    """True if ``call`` produces a timed generator that must be driven."""
    name = call_name(call)
    if not name:
        return False
    if receiver_is_ctx(call, kernel.ctx_names):
        return name in CTX_GENERATOR_METHODS
    if first_arg_is_ctx(call, kernel.ctx_names):
        if name in TIMED_CTX_ARG_METHODS:
            return True
    # Module-local helper coroutines: ``helper(ctx, ...)``,
    # ``self._helper(ctx, ...)``, or a closure helper called by bare
    # name that captures the context without taking it as a parameter.
    # A *method* call without a context argument is not matched - the
    # bare name may collide with unrelated host-side APIs
    # (``directory.release(fpn, ...)``).
    if name in index.local_generators and name not in index.local_plain:
        if isinstance(call.func, ast.Name):
            return True
        if first_arg_is_ctx(call, kernel.ctx_names):
            return True
    return False


def statements(body: list) -> Iterator[ast.stmt]:
    """All statements of a body, recursively, in source order."""
    for stmt in body:
        yield stmt
        for name in ("body", "orelse", "finalbody"):
            sub_body = getattr(stmt, name, None)
            if sub_body:
                yield from statements(sub_body)
        for handler in getattr(stmt, "handlers", []) or []:
            yield from statements(handler.body)


def walk_function(fn: ast.FunctionDef) -> Iterator[ast.AST]:
    """Walk ``fn``'s own nodes, not descending into nested functions."""
    stack: list[ast.AST] = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))
