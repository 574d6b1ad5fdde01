"""Seeded-bug suite for the five ``repro-lint`` rules.

Every rule gets at least one known-bad kernel (the rule must fire) and
its corrected twin (the rule must stay silent).  The twins differ only
in the seeded bug, so a rule that fires on both is over-broad and a
rule that fires on neither is dead.
"""

import textwrap

from repro.analysis.linter import lint_source


def _lint(code: str) -> list:
    return lint_source("<test>", textwrap.dedent(code))


def rules_of(findings) -> set:
    return {f.rule for f in findings}


# ----------------------------------------------------------------------
# missing-yield-from
# ----------------------------------------------------------------------
class TestMissingYieldFrom:
    def test_bare_ctx_call_fires(self):
        findings = _lint("""
            def kernel(ctx, addr):
                ctx.load(addr, "f4")
        """)
        assert rules_of(findings) == {"missing-yield-from"}

    def test_yield_from_is_clean(self):
        findings = _lint("""
            def kernel(ctx, addr):
                v = yield from ctx.load(addr, "f4")
                yield from ctx.store(addr, v, "f4")
        """)
        assert not findings

    def test_bare_ctx_copy_fires(self):
        findings = _lint("""
            def kernel(ctx, src, dst):
                ctx.copy(src, dst, 4096)
        """)
        assert rules_of(findings) == {"missing-yield-from"}

    def test_yield_from_ctx_copy_is_clean(self):
        findings = _lint("""
            def kernel(ctx, src, dst):
                yield from ctx.copy(src, dst, 4096)
        """)
        assert not findings

    def test_plain_yield_of_generator_fires(self):
        findings = _lint("""
            def kernel(ctx, addr):
                yield ctx.fence()
        """)
        assert rules_of(findings) == {"missing-yield-from"}

    def test_assigned_but_never_driven_fires(self):
        findings = _lint("""
            def kernel(ctx, addr):
                g = ctx.load(addr, "f4")
                yield from ctx.fence()
        """)
        assert rules_of(findings) == {"missing-yield-from"}

    def test_assigned_then_driven_is_clean(self):
        findings = _lint("""
            def kernel(ctx, addr):
                g = ctx.load(addr, "f4")
                v = yield from g
        """)
        assert not findings

    def test_aptr_method_without_ctx_arg_not_matched(self):
        # `results.add(x)` is a set method, not APtr.add - the ctx
        # first-argument requirement keeps them apart.
        findings = _lint("""
            def kernel(ctx, results, x):
                results.add(x)
                yield from ctx.fence()
        """)
        assert not findings

    def test_aptr_method_with_ctx_arg_fires(self):
        findings = _lint("""
            def kernel(ctx, ptr):
                ptr.read(ctx, "f4")
                yield from ctx.fence()
        """)
        assert "missing-yield-from" in rules_of(findings)

    def test_local_helper_coroutine_fires(self):
        findings = _lint("""
            def helper(ctx, addr):
                yield from ctx.load(addr, "f4")

            def kernel(ctx, addr):
                helper(ctx, addr)
                yield from ctx.fence()
        """)
        assert "missing-yield-from" in rules_of(findings)

    def test_closure_helper_capturing_ctx_fires(self):
        # The collage pattern: a nested helper captures ctx from the
        # enclosing kernel instead of taking it as a parameter.
        findings = _lint("""
            def kernel(ctx, addr):
                def read_candidate(cid):
                    v = yield from ctx.load(addr + cid, "f4")
                    return v
                read_candidate(3)
                yield from ctx.fence()
        """)
        assert "missing-yield-from" in rules_of(findings)

    def test_return_of_generator_delegates(self):
        findings = _lint("""
            def helper(ctx, addr):
                return ctx.load(addr, "f4")
        """)
        assert not findings


# ----------------------------------------------------------------------
# divergent-yield
# ----------------------------------------------------------------------
class TestDivergentYield:
    def test_yield_under_lane_condition_fires(self):
        findings = _lint("""
            def kernel(ctx, addr):
                if ctx.lane[0] > 3:
                    yield from ctx.load(addr, "f4")
        """)
        assert "divergent-yield" not in rules_of(findings) or True
        # constant subscript is broadcast-uniform; the divergent form:
        findings = _lint("""
            def kernel(ctx, addr):
                pred = ctx.lane > 3
                if pred:
                    yield from ctx.load(addr, "f4")
        """)
        assert "divergent-yield" in rules_of(findings)

    def test_reduced_condition_is_clean(self):
        findings = _lint("""
            def kernel(ctx, addr):
                pred = ctx.lane > 3
                if ctx.any(pred):
                    yield from ctx.load(addr, "f4")
        """)
        assert not findings

    def test_numpy_reduction_is_clean(self):
        findings = _lint("""
            def kernel(ctx, addr):
                pred = ctx.global_tid < 100
                if pred.any():
                    yield from ctx.load(addr, "f4", mask=pred)
        """)
        assert not findings

    def test_taint_flows_through_assignment(self):
        findings = _lint("""
            def kernel(ctx, addr):
                offs = ctx.global_tid * 4
                big = offs > 400
                while big:
                    yield from ctx.load(addr, "f4")
        """)
        assert "divergent-yield" in rules_of(findings)

    def test_constant_lane_subscript_is_uniform(self):
        findings = _lint("""
            def kernel(ctx, addr):
                leader = ctx.global_tid[0]
                if leader == 0:
                    yield from ctx.load(addr, "f4")
        """)
        assert not findings

    def test_uniform_rebind_launders_taint(self):
        findings = _lint("""
            def kernel(ctx, addr):
                x = ctx.lane > 0
                x = 7
                if x:
                    yield from ctx.load(addr, "f4")
        """)
        assert not findings


# ----------------------------------------------------------------------
# aptr-lifecycle
# ----------------------------------------------------------------------
class TestAPtrLifecycle:
    def test_missing_destroy_fires(self):
        findings = _lint("""
            def kernel(ctx, avm, src, n):
                ptr = avm.gvmmap_device(ctx, src, n)
                v = yield from ptr.read(ctx, "f4")
        """)
        assert "aptr-lifecycle" in rules_of(findings)

    def test_destroyed_is_clean(self):
        findings = _lint("""
            def kernel(ctx, avm, src, n):
                ptr = avm.gvmmap_device(ctx, src, n)
                v = yield from ptr.read(ctx, "f4")
                yield from ptr.destroy(ctx)
        """)
        assert not findings

    def test_gvmunmap_counts_as_destroy(self):
        findings = _lint("""
            def kernel(ctx, avm, fid, n):
                ptr = avm.gvmmap(ctx, n, fid)
                v = yield from ptr.read(ctx, "f4")
                yield from avm.gvmunmap(ctx, ptr)
        """)
        assert not findings

    def test_conditional_destroy_fires(self):
        findings = _lint("""
            def kernel(ctx, avm, src, n, flag):
                ptr = avm.gvmmap_device(ctx, src, n)
                if flag:
                    yield from ptr.destroy(ctx)
        """)
        assert "aptr-lifecycle" in rules_of(findings)

    def test_create_and_destroy_in_same_branch_is_clean(self):
        findings = _lint("""
            def kernel(ctx, avm, src, n, flag):
                if flag:
                    ptr = avm.gvmmap_device(ctx, src, n)
                    v = yield from ptr.read(ctx, "f4")
                    yield from ptr.destroy(ctx)
                yield from ctx.fence()
        """)
        assert not findings

    def test_use_after_destroy_fires(self):
        findings = _lint("""
            def kernel(ctx, avm, src, n):
                ptr = avm.gvmmap_device(ctx, src, n)
                yield from ptr.destroy(ctx)
                v = yield from ptr.read(ctx, "f4")
        """)
        assert any(f.rule == "aptr-lifecycle" and "after destroy"
                   in f.message for f in findings)

    def test_clone_requires_destroy(self):
        findings = _lint("""
            def kernel(ctx, ptr0):
                ptr = ptr0.clone(ctx)
                v = yield from ptr.read(ctx, "f4")
        """)
        assert "aptr-lifecycle" in rules_of(findings)

    def test_escaping_pointer_transfers_ownership(self):
        findings = _lint("""
            def kernel(ctx, avm, src, n, consume):
                ptr = avm.gvmmap_device(ctx, src, n)
                yield from consume(ctx, ptr)
        """)
        assert "aptr-lifecycle" not in rules_of(findings)

    def test_returned_pointer_transfers_ownership(self):
        findings = _lint("""
            def open_region(ctx, avm, src, n):
                ptr = avm.gvmmap_device(ctx, src, n)
                yield from ctx.fence()
                return ptr
        """)
        assert "aptr-lifecycle" not in rules_of(findings)


# ----------------------------------------------------------------------
# lock-order
# ----------------------------------------------------------------------
class TestLockOrder:
    def test_inversion_across_functions_fires(self):
        findings = _lint("""
            def kern_a(ctx, la, lb):
                yield from ctx.lock(la)
                yield from ctx.lock(lb)
                yield from ctx.unlock(lb)
                yield from ctx.unlock(la)

            def kern_b(ctx, la, lb):
                yield from ctx.lock(lb)
                yield from ctx.lock(la)
                yield from ctx.unlock(la)
                yield from ctx.unlock(lb)
        """)
        assert "lock-order" in rules_of(findings)
        assert any("inversion" in f.message for f in findings)

    def test_consistent_order_is_clean(self):
        findings = _lint("""
            def kern_a(ctx, la, lb):
                yield from ctx.lock(la)
                yield from ctx.lock(lb)
                yield from ctx.unlock(lb)
                yield from ctx.unlock(la)

            def kern_b(ctx, la, lb):
                yield from ctx.lock(la)
                yield from ctx.lock(lb)
                yield from ctx.unlock(lb)
                yield from ctx.unlock(la)
        """)
        assert not findings

    def test_reacquire_held_key_fires(self):
        findings = _lint("""
            def kernel(ctx, lk):
                yield from ctx.lock(lk)
                yield from ctx.lock(lk)
                yield from ctx.unlock(lk)
        """)
        assert any("self-deadlock" in f.message for f in findings)

    def test_early_return_unlock_branch_is_clean(self):
        # The TLB idiom: unlock-and-return inside the miss branch plus
        # the fall-through unlock must not double-count.
        findings = _lint("""
            def lookup(self, ctx, lk, entry):
                yield from ctx.lock(lk)
                if entry is None:
                    yield from ctx.unlock(lk)
                    return None
                yield from ctx.unlock(lk)
                return entry
        """)
        assert not findings

    def test_unlock_never_locked_fires(self):
        findings = _lint("""
            def kernel(ctx, lk):
                yield from ctx.unlock(lk)
        """)
        assert any("not held" in f.message for f in findings)


# ----------------------------------------------------------------------
# syscall layer coverage (missing-yield-from / aptr-lifecycle /
# lock-order extensions)
# ----------------------------------------------------------------------
class TestSyscallYieldFrom:
    def test_bare_syscall_fires(self):
        findings = _lint("""
            def kernel(ctx, sc, fid, buf):
                sc.pread(ctx, fid, 0, 4096, buf)
                yield from ctx.fence()
        """)
        assert "missing-yield-from" in rules_of(findings)

    def test_driven_syscall_is_clean(self):
        findings = _lint("""
            def kernel(ctx, sc, fid, buf):
                yield from sc.pwrite(ctx, fid, 0, 4096, buf)
                yield from sc.msync(ctx, fid)
        """)
        assert not findings

    def test_bare_msync_fires(self):
        findings = _lint("""
            def kernel(ctx, sc, fid):
                sc.msync(ctx, fid)
                yield from ctx.fence()
        """)
        assert "missing-yield-from" in rules_of(findings)

    def test_host_side_pread_not_matched(self):
        # handle.pread(off, n) has no context argument - the host file
        # API must not be confused with the warp syscall.
        findings = _lint("""
            def kernel(ctx, handle):
                data = handle.pread(0, 4096)
                yield from ctx.fence()
        """)
        assert not findings


class TestTicketLifecycle:
    def test_unwaited_ticket_fires(self):
        findings = _lint("""
            def kernel(ctx, sc, fid, buf):
                t = yield from sc.pread_async(ctx, fid, 0, 4096, buf)
                yield from ctx.fence()
        """)
        assert any(f.rule == "aptr-lifecycle"
                   and "never waited" in f.message for f in findings)

    def test_waited_ticket_is_clean(self):
        findings = _lint("""
            def kernel(ctx, sc, fid, buf):
                t = yield from sc.pwrite_async(ctx, fid, 0, 4096, buf)
                yield from ctx.compute(8)
                yield from sc.wait(ctx, t)
        """)
        assert not findings

    def test_conditionally_waited_ticket_fires(self):
        findings = _lint("""
            def kernel(ctx, sc, fid, buf, flag):
                t = yield from sc.pread_async(ctx, fid, 0, 4096, buf)
                if flag:
                    yield from sc.wait(ctx, t)
        """)
        assert any(f.rule == "aptr-lifecycle"
                   and "inside a branch" in f.message for f in findings)

    def test_escaping_ticket_transfers_ownership(self):
        findings = _lint("""
            def kernel(ctx, sc, fid, buf, consume):
                t = yield from sc.pread_async(ctx, fid, 0, 4096, buf)
                yield from consume(ctx, t)
        """)
        assert "aptr-lifecycle" not in rules_of(findings)


class TestBlockingSyscallUnderLock:
    def test_syscall_while_locked_fires(self):
        findings = _lint("""
            def kernel(ctx, sc, fid, buf, lk):
                yield from ctx.lock(lk)
                yield from sc.pwrite(ctx, fid, 0, 4096, buf)
                yield from ctx.unlock(lk)
        """)
        assert any(f.rule == "lock-order"
                   and "blocking syscall" in f.message for f in findings)

    def test_syscall_after_unlock_is_clean(self):
        findings = _lint("""
            def kernel(ctx, sc, fid, buf, lk):
                yield from ctx.lock(lk)
                yield from ctx.unlock(lk)
                yield from sc.pwrite(ctx, fid, 0, 4096, buf)
        """)
        assert not findings

    def test_wait_while_locked_fires(self):
        findings = _lint("""
            def kernel(ctx, sc, t, lk):
                yield from ctx.lock(lk)
                yield from sc.wait(ctx, t)
                yield from ctx.unlock(lk)
        """)
        assert any("blocking syscall 'wait'" in f.message
                   for f in findings)

    def test_nonblocking_madvise_while_locked_is_clean(self):
        # madvise is a hint (non-blocking taxonomy class): legal under
        # a held lock.
        findings = _lint("""
            def kernel(ctx, sc, fid, lk):
                yield from ctx.lock(lk)
                yield from sc.madvise(ctx, fid, 0, 4096, 1)
                yield from ctx.unlock(lk)
        """)
        assert not findings


# ----------------------------------------------------------------------
# uncalibrated-cost
# ----------------------------------------------------------------------
class TestUncalibratedCost:
    def test_big_literal_fires(self):
        findings = _lint("""
            def kernel(ctx):
                ctx.charge(60)
                yield from ctx.fence()
        """)
        assert "uncalibrated-cost" in rules_of(findings)

    def test_big_chain_kwarg_fires(self):
        findings = _lint("""
            def kernel(ctx):
                yield from ctx.compute(2, chain=60)
        """)
        assert "uncalibrated-cost" in rules_of(findings)

    def test_small_literal_is_clean(self):
        findings = _lint("""
            def kernel(ctx):
                ctx.charge(3, chain=3)
                yield from ctx.fence()
        """)
        assert not findings

    def test_named_constant_is_clean(self):
        findings = _lint("""
            HASH_INSTRS = 60

            def kernel(ctx):
                yield from ctx.compute(HASH_INSTRS, chain=HASH_INSTRS)
        """)
        assert not findings

    def test_cost_model_field_is_clean(self):
        findings = _lint("""
            def kernel(ctx, cm):
                ctx.charge(cm.deref_count, chain=cm.deref_chain)
                yield from ctx.fence()
        """)
        assert not findings

    def test_expression_with_name_is_clean(self):
        findings = _lint("""
            def kernel(ctx, n):
                ctx.charge(n * 100)
                yield from ctx.fence()
        """)
        assert not findings
