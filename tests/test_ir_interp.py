"""Interpreter semantics tests."""

import numpy as np
import pytest

import repro.ir as ir
from repro.errors import RuntimeSimError


def _vec_add_kernel():
    a = ir.Buffer("a", (8,))
    b = ir.Buffer("b", (8,))
    c = ir.Buffer("c", (8,))
    i = ir.Var("i")
    body = ir.For(i, 8, ir.Store(c, i, ir.Load(a, i) + ir.Load(b, i)))
    return ir.Kernel("vadd", [a, b, c], body), a, b, c


class TestBasicExecution:
    def test_vector_add(self):
        k, *_ = _vec_add_kernel()
        bufs = {
            "a": np.arange(8, dtype=np.float32),
            "b": np.ones(8, dtype=np.float32),
            "c": np.zeros(8, dtype=np.float32),
        }
        ir.run_kernel(k, bufs)
        assert np.allclose(bufs["c"], np.arange(8) + 1)

    def test_missing_buffer_raises(self):
        k, *_ = _vec_add_kernel()
        with pytest.raises(RuntimeSimError, match="missing buffer"):
            ir.run_kernel(k, {"a": np.zeros(8, np.float32)})

    def test_symbolic_extent(self):
        a = ir.Buffer("a", (ir.Var("n"),))
        i, n = ir.Var("i"), ir.Var("n")
        body = ir.For(i, n, ir.Store(a, i, ir.Cast(ir.FLOAT32, i) * 2.0))
        k = ir.Kernel("fill", [a], body, scalar_args=[n])
        bufs = {"a": np.zeros(5, np.float32)}
        ir.run_kernel(k, bufs, bindings={n: 5})
        assert np.allclose(bufs["a"], [0, 2, 4, 6, 8])

    def test_missing_binding_raises(self):
        a = ir.Buffer("a", (ir.Var("n"),))
        i, n = ir.Var("i"), ir.Var("n")
        body = ir.For(i, n, ir.Store(a, i, 0.0))
        k = ir.Kernel("fill", [a], body, scalar_args=[n])
        with pytest.raises(RuntimeSimError, match="missing scalar"):
            ir.run_kernel(k, {"a": np.zeros(5, np.float32)})

    def test_select(self):
        a = ir.Buffer("a", (6,))
        i = ir.Var("i")
        body = ir.For(
            i, 6, ir.Store(a, i, ir.Select(i < 3, ir.FloatImm(1.0), ir.FloatImm(0.0)))
        )
        k = ir.Kernel("sel", [a], body)
        bufs = {"a": np.zeros(6, np.float32)}
        ir.run_kernel(k, bufs)
        assert np.allclose(bufs["a"], [1, 1, 1, 0, 0, 0])

    def test_if_then_else(self):
        a = ir.Buffer("a", (4,))
        i = ir.Var("i")
        body = ir.For(
            i, 4,
            ir.IfThenElse(
                (i % 2).equal(0),
                ir.Store(a, i, 1.0),
                ir.Store(a, i, -1.0),
            ),
        )
        k = ir.Kernel("ite", [a], body)
        bufs = {"a": np.zeros(4, np.float32)}
        ir.run_kernel(k, bufs)
        assert np.allclose(bufs["a"], [1, -1, 1, -1])

    def test_exp_intrinsic(self):
        a = ir.Buffer("a", (3,))
        b = ir.Buffer("b", (3,))
        i = ir.Var("i")
        body = ir.For(i, 3, ir.Store(b, i, ir.exp(ir.Load(a, i))))
        k = ir.Kernel("e", [a, b], body)
        bufs = {"a": np.array([0, 1, 2], np.float32), "b": np.zeros(3, np.float32)}
        ir.run_kernel(k, bufs)
        assert np.allclose(bufs["b"], np.exp([0, 1, 2]), rtol=1e-6)

    def test_float32_semantics(self):
        # accumulation happens in float32, not double
        a = ir.Buffer("a", (1,))
        acc = ir.Buffer("acc", (1,), scope="register")
        i = ir.Var("i")
        inner = ir.Store(acc, 0, ir.Load(acc, 0) + 1e-8)
        body = ir.Allocate(
            acc,
            ir.seq(
                ir.Store(acc, 0, 1.0),
                ir.For(i, 10, inner),
                ir.Store(a, 0, ir.Load(acc, 0)),
            ),
        )
        k = ir.Kernel("f32", [a], body)
        bufs = {"a": np.zeros(1, np.float32)}
        ir.run_kernel(k, bufs)
        # 1.0f + 1e-8f is absorbed in float32
        assert bufs["a"][0] == np.float32(1.0)


class TestChannels:
    def test_producer_consumer(self):
        ch = ir.Channel("c0", depth=8)
        a = ir.Buffer("a", (8,))
        b = ir.Buffer("b", (8,))
        i, j = ir.Var("i"), ir.Var("j")
        prod = ir.Kernel(
            "prod", [a], ir.For(i, 8, ir.ChannelWrite(ch, ir.Load(a, i) * 2.0))
        )
        cons = ir.Kernel("cons", [b], ir.For(j, 8, ir.Store(b, j, ch.read() + 1.0)))
        bufs = {"a": np.arange(8, dtype=np.float32), "b": np.zeros(8, np.float32)}
        ir.run_program_sequential([prod, cons], bufs)
        assert np.allclose(bufs["b"], np.arange(8) * 2 + 1)

    def test_read_empty_channel_raises(self):
        ch = ir.Channel("c0")
        b = ir.Buffer("b", (1,))
        k = ir.Kernel("cons", [b], ir.Store(b, 0, ch.read()))
        with pytest.raises(RuntimeSimError, match="empty channel"):
            ir.run_kernel(k, {"b": np.zeros(1, np.float32)})

    def test_fifo_order(self):
        ch = ir.Channel("c0", depth=4)
        st = ir.ChannelState(ch)
        st.write(1.0)
        st.write(2.0)
        assert st.read() == 1.0
        assert st.read() == 2.0

    def test_scalar_writes_pack_into_one_chunk_in_order(self):
        st = ir.ChannelState(ir.Channel("c0"))
        st.write_chunk(np.float32([1, 2]))
        for v in (3.0, 4.0, 5.0):
            st.write(v)
        st.write_chunk(np.float32([6]))
        st.write(7.0)
        assert st.read_chunk(4).tolist() == [[1, 2, 3, 4]]
        assert st.read() == 5.0
        assert st.read_chunk(2).tolist() == [[6, 7]]
        for v in range(100):
            st.write(float(v))
        assert st.read() == 0.0
        # the first read packed the 100 scalar writes into one chunk
        assert len(st._fifos[0].chunks) == 1
        assert st.read_chunk(99).tolist() == [list(range(1, 100))]

    def test_streams_hold_float32_chunks_per_sample(self):
        st = ir.ChannelState(ir.Channel("c0"), lanes=2)
        st.write_chunk(np.float32([[1, 2], [5, 6]]))
        st.write_chunk(np.float32([[3], [7]]))
        assert len(st) == 3
        got = st.read_chunk(3)
        assert got.dtype == np.float32
        assert got.tolist() == [[1, 2, 3], [5, 6, 7]]
        # a lane view shares its sample's stream
        st.write_chunk(np.float32([[0.1], [0.2]]))
        assert st.lane(1).read() == np.float32(0.2)
        assert len(st) == 0 and len(st.lane(0)) == 1
        with pytest.raises(RuntimeSimError, match="empty channel c0"):
            st.read_chunk(1)

    def test_scalar_round_trip_is_bit_exact(self):
        st = ir.ChannelState(ir.Channel("c0"))
        value = np.float32(1.0) / np.float32(3.0)
        st.write(value)
        got = st.read()
        assert isinstance(got, np.float32) and got.tobytes() == value.tobytes()


class TestScratchAutoAllocation:
    def test_scratch_args_auto_allocated(self):
        a = ir.Buffer("a", (4,))
        scratch = ir.Buffer("tmp", (4,))
        i = ir.Var("i")
        body = ir.seq(
            ir.For(i, 4, ir.Store(scratch, i, ir.Load(a, i) * 2.0)),
            ir.For(i, 4, ir.Store(a, i, ir.Load(scratch, i))),
        )
        k = ir.Kernel("s", [a, scratch], body)
        k.scratch_args = ("tmp",)
        bufs = {"a": np.ones(4, np.float32)}
        ir.run_kernel(k, bufs)
        assert np.allclose(bufs["a"], 2.0)
