"""Static deadlock verdicts (RC003) on hand-built channel topologies."""

import repro.ir as ir
from repro.verify import check_channels


class TestStaticDynamicCrossCheck:
    """RC003 rejects a cyclic channel topology before synthesis and
    accepts an acyclic one."""

    def _cyclic_program(self):
        c1, c2 = ir.Channel("c1", depth=1), ir.Channel("c2", depth=1)
        i, j = ir.Var("i"), ir.Var("j")
        k1 = ir.Kernel(
            "k1", [], ir.For(i, 1, ir.ChannelWrite(c1, ir.ChannelRead(c2))),
            autorun=True,
        )
        k2 = ir.Kernel(
            "k2", [], ir.For(j, 1, ir.ChannelWrite(c2, ir.ChannelRead(c1))),
            autorun=True,
        )
        return ir.Program([k1, k2])

    def test_static_verifier_flags_rc003(self):
        rep = check_channels(self._cyclic_program())
        assert [d.rule for d in rep.errors] == ["RC003"]

    def test_acyclic_topology_passes_both(self):
        ch = ir.Channel("ch", depth=4)
        i, j = ir.Var("i"), ir.Var("j")
        out = ir.Buffer("out", (4,))
        prod = ir.Kernel(
            "prod", [], ir.For(i, 4, ir.ChannelWrite(ch, 1.0)), autorun=True
        )
        cons = ir.Kernel(
            "cons", [out], ir.For(j, 4, ir.Store(out, j, ir.ChannelRead(ch)))
        )
        program = ir.Program([prod, cons])
        assert check_channels(program).clean
