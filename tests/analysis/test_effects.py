"""Interprocedural effect inference: summaries, joins, propagation.

Synthetic modules exercise each lattice dimension in isolation; the
repo-summary tests pin the *exact* inferred facts for the two
functions the paper leans on hardest - ``SyscallLayer.pwrite`` (the
write path: blocking, lock-taking, touches every shared structure)
and the Listing-1 fault loop ``APtr._page_fault``.
"""

import json
import subprocess
import sys
import textwrap

from repro.analysis.effects import TOP, EffectProgram


def program(*sources: str) -> EffectProgram:
    return EffectProgram.from_sources([
        (f"<m{i}>", textwrap.dedent(src))
        for i, src in enumerate(sources)])


def summary(prog: EffectProgram, qualname: str):
    s = prog.summary_by_qualname(qualname)
    assert s is not None, f"no summary for {qualname}"
    return s


class TestLockSummaries:
    def test_param_substitution_across_boundary(self):
        # The helper locks its *parameter*; the caller must see the
        # key spelled in its own argument expression.
        prog = program("""
            def locked_insert(ctx, key, entry):
                yield from ctx.lock(key)
                entry.ready = True
                yield from ctx.unlock(key)

            def kernel(ctx, table, e):
                yield from locked_insert(ctx, table.bucket(e.fpn), e)
        """)
        assert summary(prog, "locked_insert").may_acquire == {"key"}
        assert summary(prog, "kernel").may_acquire \
            == {"table.bucket(e.fpn)"}

    def test_self_substitution_for_bound_methods(self):
        prog = program("""
            class Table:
                def grab(self, ctx):
                    yield from ctx.lock(self.lock_key)

            def kernel(ctx, table):
                yield from table.grab(ctx)
        """)
        assert summary(prog, "Table.grab").may_acquire \
            == {"self.lock_key"}
        assert summary(prog, "kernel").may_acquire \
            == {"table.lock_key"}

    def test_exit_held_and_foreign_release(self):
        prog = program("""
            def acquire(ctx, k):
                yield from ctx.lock(k)

            def release(ctx, k):
                yield from ctx.unlock(k)

            def kernel(ctx, k):
                yield from acquire(ctx, k)
                yield from release(ctx, k)
        """)
        assert summary(prog, "acquire").exit_must_held == {"k"}
        assert summary(prog, "release").releases_foreign == {"k"}
        # The pair balances: the caller exits holding nothing.
        k = summary(prog, "kernel")
        assert k.exit_may_held == frozenset()
        assert k.exit_must_held == frozenset()

    def test_branch_join_must_vs_may(self):
        prog = program("""
            def kernel(ctx, a, cond):
                if cond:
                    yield from ctx.lock(a)
                yield from ctx.sleep(1)
        """)
        s = summary(prog, "kernel")
        assert s.exit_may_held == {"a"}       # union of arms
        assert s.exit_must_held == frozenset()  # intersection of arms

    def test_while_true_break_keeps_must_held(self):
        # The loop-join case the lexical scan lost: the only way out
        # of ``while True`` is the break, so the lock acquired before
        # it is MUST-held after the loop.
        prog = program("""
            def kernel(ctx, k):
                while True:
                    yield from ctx.lock(k)
                    break
                yield from ctx.sleep(1)
        """)
        s = summary(prog, "kernel")
        assert s.exit_must_held == {"k"}


class TestBarriersAndPins:
    def test_barrier_interval_through_branch(self):
        prog = program("""
            def kernel(ctx, cond):
                yield from ctx.syncthreads()
                if cond:
                    yield from ctx.syncthreads()
        """)
        s = summary(prog, "kernel")
        assert (s.barriers_min, s.barriers_max) == (1, 2)

    def test_barrier_in_loop_widens_to_top(self):
        prog = program("""
            def kernel(ctx, n):
                for _ in range(n):
                    yield from ctx.syncthreads()
        """)
        s = summary(prog, "kernel")
        assert s.barriers_min == 0
        assert s.barriers_max == TOP
        assert s.to_dict()["barriers"]["max"] == "unbounded"

    def test_pin_delta_propagates_through_helper(self):
        prog = program("""
            def pin_two(ctx, gpufs, fid):
                yield from gpufs.gmmap(ctx, fid, 0)
                yield from gpufs.gmmap(ctx, fid, 4096)

            def kernel(ctx, gpufs, fid):
                yield from pin_two(ctx, gpufs, fid)
                yield from gpufs.gmunmap(ctx, fid, 0)
        """)
        s = summary(prog, "kernel")
        assert (s.pin_delta_min, s.pin_delta_max) == (1, 1)


class TestDestroysParams:
    def test_always_vs_sometimes(self):
        prog = program("""
            def close_always(ctx, p):
                yield from p.destroy(ctx)

            def close_sometimes(ctx, p, cond):
                if cond:
                    yield from p.destroy(ctx)
                yield from ctx.sleep(1)
        """)
        assert summary(prog, "close_always").destroys_params == {
            1: "always"}
        assert summary(prog, "close_sometimes").destroys_params == {
            1: "sometimes"}

    def test_early_return_helper_is_sometimes(self):
        # The seeded-leak shape: an early return skips the destroy.
        prog = program("""
            def finish(ctx, p, n):
                if n == 0:
                    return
                yield from p.destroy(ctx)
        """)
        assert summary(prog, "finish").destroys_params == {
            1: "sometimes"}

    def test_transitive_destroy(self):
        prog = program("""
            def inner(ctx, q):
                yield from q.destroy(ctx)

            def outer(ctx, p):
                yield from inner(ctx, p)
        """)
        assert summary(prog, "outer").destroys_params == {1: "always"}


class TestCallGraph:
    def test_recursive_scc_reaches_fixpoint(self):
        prog = program("""
            def ping(ctx, k, depth):
                yield from ctx.lock(k)
                yield from ctx.unlock(k)
                if depth:
                    yield from pong(ctx, k, depth - 1)

            def pong(ctx, k, depth):
                yield from ctx.syncthreads()
                yield from ping(ctx, k, depth)
        """)
        assert summary(prog, "ping").may_acquire == {"k"}
        assert summary(prog, "pong").may_acquire == {"k"}
        assert summary(prog, "pong").barriers_max == TOP

    def test_dynamic_dispatch_joins_candidates(self):
        # Two classes define ``flush_slot``; a call through an unknown
        # receiver must take the union of both effects.
        prog = program("""
            class A:
                def flush_slot(self, ctx):
                    yield from ctx.lock('a')
                    yield from ctx.unlock('a')

            class B:
                def flush_slot(self, ctx):
                    yield from ctx.syncthreads()

            def kernel(ctx, obj):
                yield from obj.flush_slot(ctx)
        """)
        s = summary(prog, "kernel")
        assert s.may_acquire == {"'a'"}
        assert (s.barriers_min, s.barriers_max) == (0, 1)

    def test_unresolved_timed_call_is_opaque(self):
        prog = program("""
            def kernel(ctx, ptr):
                yield from ptr.read(ctx, 4)
        """)
        assert summary(prog, "kernel").opaque_calls == {"read"}

    def test_cross_module_resolution(self):
        prog = program(
            """
            def pinner(ctx, gpufs, fid):
                yield from gpufs.gmmap(ctx, fid, 0)
            """,
            """
            def kernel(ctx, gpufs, fid):
                yield from pinner(ctx, gpufs, fid)
            """)
        assert summary(prog, "kernel").pin_delta_max == 1

    def test_name_collision_with_plain_fn_refuses(self):
        # ``step`` is a generator in one module and a plain ctx
        # function in another: cross-module by-name resolution must
        # refuse rather than guess.
        prog = program(
            """
            def step(ctx, k):
                yield from ctx.lock(k)
            """,
            """
            def step(ctx, k):
                return k + 1
            """,
            """
            def kernel(ctx, obj, k):
                yield from obj.step(ctx, k)
            """)
        assert summary(prog, "kernel").may_acquire == frozenset()


class TestRepoSummaries:
    """Exact spot-checks over the real tree (parsed, never imported)."""

    @classmethod
    def setup_class(cls):
        from repro.analysis.linter import lint_paths
        cls.prog = lint_paths(["src/repro"]).effects

    def test_syscall_pwrite_summary(self):
        s = summary(self.prog, "SyscallLayer.pwrite")
        assert s.yields
        assert s.blocking_syscalls == {"pwrite"}
        assert s.may_acquire == {"lock"}     # the bucket spinlock key
        assert s.exit_may_held == frozenset()
        assert s.barriers_max == 0
        assert (s.pin_delta_min, s.pin_delta_max) == (0, 0)
        assert {"page_table", "page_cache", "staging",
                "global_memory"} <= s.writes
        assert "page_table" in s.reads
        assert not s.sites_truncated

    def test_listing1_fault_loop_summary(self):
        # APtr._page_fault is the paper's Listing 1: the per-lane
        # fault loop that resolves xpages through the TLB + backend.
        s = summary(self.prog, "APtr._page_fault")
        assert s.yields
        assert s.blocking_syscalls == frozenset()
        assert s.may_acquire == {"lock"}
        assert s.exit_may_held == frozenset()
        assert s.barriers_max == 0
        assert "page_table" in s.writes
        assert "page_table" in s.reads
        assert s.destroys_params == {}

    def test_every_generator_kernel_has_a_summary(self):
        for key, node in self.prog.graph.nodes.items():
            assert key in self.prog.summaries, f"missing: {key}"


class TestEffectsExport:
    def test_cli_effects_json(self, tmp_path):
        out = tmp_path / "effects.json"
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis",
             "src/repro/syscalls", "--effects", str(out)],
            capture_output=True, text=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin",
                 "PYTHONDONTWRITEBYTECODE": "1"})
        doc = json.loads(out.read_text())
        assert doc["version"] == 1
        functions = doc["functions"]
        pwrite = next(v for k, v in functions.items()
                      if v["qualname"] == "SyscallLayer.pwrite")
        assert pwrite["blocking_syscalls"] == ["pwrite"]
        assert pwrite["yields"] is True
        # Every generator kernel of the linted tree is present.
        assert any(v["qualname"] == "SyscallLayer.wait"
                   for v in functions.values())
