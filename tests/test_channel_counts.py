"""RC channel counts and the kernel's channel/local-buffer queries on
hand-built kernels: what each channel site contributes per activation."""

import repro.ir as ir
from repro.verify import channel_counts


def _kernel(body, args=(), scalar_args=(), name="k"):
    return ir.Kernel(name, list(args), body, scalar_args=scalar_args)


class TestStaticCounts:
    def test_nested_loops_multiply_extents(self):
        ch = ir.Channel("ch")
        i, j, k = ir.Var("i"), ir.Var("j"), ir.Var("k")
        body = ir.For(i, 3, ir.For(j, 4, ir.For(
            k, 5, ir.ChannelWrite(ch, 1.0), kind=ir.ForKind.UNROLLED,
        )))
        reads, writes = channel_counts(_kernel(body))
        assert reads == {}
        assert writes == {"ch": (60, True)}

    def test_sites_of_one_channel_sum(self):
        ch = ir.Channel("ch")
        i, j = ir.Var("i"), ir.Var("j")
        body = ir.seq(
            ir.For(i, 2, ir.ChannelWrite(ch, 1.0)),
            ir.For(j, 3, ir.For(ir.Var("k"), 4, ir.ChannelWrite(ch, 2.0))),
            ir.ChannelWrite(ch, 3.0),
        )
        _, writes = channel_counts(_kernel(body))
        assert writes == {"ch": (2 + 12 + 1, True)}

    def test_two_reads_in_one_statement_count_twice(self):
        ch = ir.Channel("ch")
        out = ir.Buffer("out", (8,))
        i = ir.Var("i")
        body = ir.For(i, 8, ir.Store(
            out, i, ir.ChannelRead(ch) + ir.ChannelRead(ch),
        ))
        reads, writes = channel_counts(_kernel(body, [out]))
        assert reads == {"ch": (16, True)}
        assert writes == {}

    def test_write_of_a_read_counts_both_sides(self):
        a, b = ir.Channel("a"), ir.Channel("b")
        i = ir.Var("i")
        body = ir.For(i, 6, ir.ChannelWrite(b, ir.ChannelRead(a)))
        assert channel_counts(_kernel(body)) == (
            {"a": (6, True)}, {"b": (6, True)},
        )


class TestUnprovableCounts:
    def test_guarded_site_is_unprovable(self):
        ch = ir.Channel("ch")
        i = ir.Var("i")
        body = ir.For(i, 8, ir.IfThenElse(i < 6, ir.ChannelWrite(ch, 1.0)))
        _, writes = channel_counts(_kernel(body))
        assert writes["ch"][1] is False

    def test_else_arm_is_unprovable(self):
        ch = ir.Channel("ch")
        i = ir.Var("i")
        body = ir.For(i, 8, ir.IfThenElse(
            i < 6, ir.Evaluate(0), ir.ChannelWrite(ch, 1.0),
        ))
        _, writes = channel_counts(_kernel(body))
        assert writes["ch"][1] is False

    def test_symbolic_extent_is_unprovable(self):
        ch = ir.Channel("ch")
        n, i, j = ir.Var("n"), ir.Var("i"), ir.Var("j")
        body = ir.For(i, 4, ir.For(j, n, ir.ChannelWrite(ch, 1.0)))
        _, writes = channel_counts(_kernel(body, scalar_args=[n]))
        assert writes["ch"][1] is False

    def test_one_unprovable_site_poisons_the_channel(self):
        ch = ir.Channel("ch")
        n, i, j = ir.Var("n"), ir.Var("i"), ir.Var("j")
        body = ir.seq(
            ir.For(i, 4, ir.ChannelWrite(ch, 1.0)),
            ir.For(j, n, ir.ChannelWrite(ch, 1.0)),
        )
        _, writes = channel_counts(_kernel(body, scalar_args=[n]))
        assert writes["ch"][1] is False

    def test_other_channels_stay_provable(self):
        a, b = ir.Channel("a"), ir.Channel("b")
        i = ir.Var("i")
        body = ir.For(i, 4, ir.seq(
            ir.ChannelWrite(a, 1.0),
            ir.IfThenElse(i < 2, ir.ChannelWrite(b, 1.0)),
        ))
        _, writes = channel_counts(_kernel(body))
        assert writes["a"] == (4, True)
        assert writes["b"][1] is False


class TestReadsInControlExpressions:
    """A read in a loop extent or a branch condition executes once per
    activation of the enclosing statement, not per inner iteration."""

    def test_read_in_for_extent_counts_at_outer_multiplicity(self):
        n_ch = ir.Channel("n_ch", dtype=ir.INT32)
        i, j = ir.Var("i"), ir.Var("j")
        body = ir.For(i, 3, ir.For(j, ir.ChannelRead(n_ch), ir.Evaluate(0)))
        reads, _ = channel_counts(_kernel(body))
        assert reads == {"n_ch": (3, True)}

    def test_read_in_if_condition_counts_at_outer_multiplicity(self):
        flag = ir.Channel("flag", dtype=ir.INT32)
        out = ir.Buffer("out", (5,))
        i = ir.Var("i")
        body = ir.For(i, 5, ir.IfThenElse(
            ir.ChannelRead(flag) > 0, ir.Store(out, i, 1.0),
        ))
        reads, _ = channel_counts(_kernel(body, [out]))
        assert reads == {"flag": (5, True)}

    def test_read_in_condition_of_a_guarded_branch_is_unprovable(self):
        flag = ir.Channel("flag", dtype=ir.INT32)
        i = ir.Var("i")
        body = ir.For(i, 5, ir.IfThenElse(
            i < 2, ir.IfThenElse(ir.ChannelRead(flag) > 0, ir.Evaluate(0)),
        ))
        reads, _ = channel_counts(_kernel(body))
        assert reads["flag"][1] is False


class TestKernelQueries:
    def test_channels_splits_reads_and_writes(self):
        a, b, c = ir.Channel("a"), ir.Channel("b"), ir.Channel("c")
        i = ir.Var("i")
        body = ir.For(i, 4, ir.seq(
            ir.ChannelWrite(b, ir.ChannelRead(a) + ir.ChannelRead(a)),
            ir.IfThenElse(i < 2, ir.ChannelWrite(c, ir.ChannelRead(a))),
        ))
        reads, writes = _kernel(body).channels()
        assert reads == {a}
        assert writes == {b, c}

    def test_channels_of_a_channel_free_kernel_are_empty(self):
        out = ir.Buffer("out", (4,))
        i = ir.Var("i")
        k = _kernel(ir.For(i, 4, ir.Store(out, i, 0.0)), [out])
        assert k.channels() == (set(), set())
        assert k.local_buffers() == []

    def test_local_buffers_in_pre_order(self):
        out = ir.Buffer("out", (4,))
        t0 = ir.Buffer("t0", (4,), scope="local")
        t1 = ir.Buffer("t1", (4,), scope="local")
        t2 = ir.Buffer("t2", (4,), scope="register")
        t3 = ir.Buffer("t3", (4,), scope="local")
        i, j, m = ir.Var("i"), ir.Var("j"), ir.Var("m")
        inner = ir.Allocate(t1, ir.For(j, 4, ir.Allocate(
            t2, ir.seq(ir.Store(t2, j, 1.0), ir.Store(t1, j, t2[j])),
        )))
        body = ir.seq(
            ir.Allocate(t0, ir.seq(
                inner, ir.For(i, 4, ir.Store(t0, i, 0.0)),
            )),
            ir.Allocate(t3, ir.For(m, 4, ir.Store(out, m, t3[m]))),
        )
        k = _kernel(body, [out])
        assert [b.name for b in k.local_buffers()] == ["t0", "t1", "t2", "t3"]
        # the list is the caller's: mutating it leaves the kernel intact
        k.local_buffers().clear()
        assert len(k.local_buffers()) == 4
