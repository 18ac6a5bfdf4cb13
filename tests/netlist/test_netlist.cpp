/** @file Unit tests for the gate-level netlist core. */

#include <gtest/gtest.h>

#include "netlist/netlist.hpp"
#include "util/logging.hpp"

namespace otft::netlist {
namespace {

TEST(Netlist, BasicGatesEvaluate)
{
    Netlist nl;
    NetBuilder b(nl);
    const GateId a = b.input("a");
    const GateId y = b.input("y");
    const GateId n = b.nand2(a, y);
    const GateId o = b.nor2(a, y);
    const GateId i = b.notGate(a);
    b.output("n", n);
    b.output("o", o);
    b.output("i", i);

    for (int av = 0; av < 2; ++av) {
        for (int bv = 0; bv < 2; ++bv) {
            const auto vals = nl.evaluate({av != 0, bv != 0});
            EXPECT_EQ(vals[static_cast<std::size_t>(n)],
                      !(av && bv));
            EXPECT_EQ(vals[static_cast<std::size_t>(o)],
                      !(av || bv));
            EXPECT_EQ(vals[static_cast<std::size_t>(i)], !av);
        }
    }
}

TEST(Netlist, CompositeFunctions)
{
    Netlist nl;
    NetBuilder b(nl);
    const GateId a = b.input("a");
    const GateId y = b.input("y");
    const GateId c = b.input("c");
    const GateId x = b.xorGate(a, y);
    const GateId x3 = b.xor3(a, y, c);
    const GateId maj = b.majority(a, y, c);
    const GateId m = b.mux(c, a, y); // c ? a : y

    for (int v = 0; v < 8; ++v) {
        const bool av = v & 1, bv = v & 2, cv = v & 4;
        const auto vals = nl.evaluate({av, bv, cv});
        EXPECT_EQ(vals[static_cast<std::size_t>(x)], av != bv);
        EXPECT_EQ(vals[static_cast<std::size_t>(x3)],
                  (av != bv) != cv);
        EXPECT_EQ(vals[static_cast<std::size_t>(maj)],
                  (av && bv) || (av && cv) || (bv && cv));
        EXPECT_EQ(vals[static_cast<std::size_t>(m)], cv ? av : bv);
    }
}

TEST(Netlist, Constants)
{
    Netlist nl;
    NetBuilder b(nl);
    const GateId one = b.constant(true);
    const GateId zero = b.constant(false);
    const GateId n = b.nand2(one, zero);
    const auto vals = nl.evaluate({});
    EXPECT_TRUE(vals[static_cast<std::size_t>(n)]);
    EXPECT_EQ(nl.countKind(GateKind::Const1), 1u);
}

TEST(Netlist, SequentialStateAdvances)
{
    // A 2-bit shift register.
    Netlist nl;
    NetBuilder b(nl);
    const GateId d = b.input("d");
    const GateId q0 = b.dff(d);
    const GateId q1 = b.dff(q0);
    b.output("q1", q1);

    std::vector<bool> state = {false, false};
    std::vector<bool> next;
    nl.evaluate({true}, state, &next);
    EXPECT_TRUE(next[0]);  // q0 captures d
    EXPECT_FALSE(next[1]); // q1 captures old q0
    nl.evaluate({false}, next, &next);
    EXPECT_FALSE(next[0]);
    EXPECT_TRUE(next[1]);
}

TEST(Netlist, LevelsAndDepth)
{
    Netlist nl;
    NetBuilder b(nl);
    const GateId a = b.input("a");
    const GateId n1 = b.notGate(a);
    const GateId n2 = b.notGate(n1);
    const GateId n3 = b.notGate(n2);
    b.output("o", n3);
    EXPECT_EQ(nl.depth(), 3);
    const auto lv = nl.levels();
    EXPECT_EQ(lv[static_cast<std::size_t>(a)], 0);
    EXPECT_EQ(lv[static_cast<std::size_t>(n3)], 3);
}

TEST(Netlist, DffBreaksLevels)
{
    Netlist nl;
    NetBuilder b(nl);
    const GateId a = b.input("a");
    const GateId n1 = b.notGate(a);
    const GateId q = b.dff(n1);
    const GateId n2 = b.notGate(q);
    b.output("o", n2);
    const auto lv = nl.levels();
    EXPECT_EQ(lv[static_cast<std::size_t>(q)], 0);
    EXPECT_EQ(lv[static_cast<std::size_t>(n2)], 1);
}

TEST(Netlist, FanoutsAreComplete)
{
    Netlist nl;
    NetBuilder b(nl);
    const GateId a = b.input("a");
    const GateId n1 = b.notGate(a);
    const GateId n2 = b.notGate(a);
    const GateId n3 = b.nand2(n1, n2);
    (void)n3;
    const auto fo = nl.fanouts();
    EXPECT_EQ(fo[static_cast<std::size_t>(a)].size(), 2u);
    EXPECT_EQ(fo[static_cast<std::size_t>(n1)].size(), 1u);
}

TEST(Netlist, ContentDigestTracksEveryPart)
{
    // Inverter chain "a" -> "o" with one gate kind, input name or
    // output name optionally changed.
    const auto build = [](GateKind kind, const char *in,
                          const char *out) {
        Netlist nl;
        NetBuilder b(nl);
        const GateId a = b.input(in);
        const GateId g = kind == GateKind::Inv
                             ? b.notGate(a)
                             : nl.addGate(kind, a, a);
        b.output(out, b.notGate(g));
        return nl.contentDigest();
    };
    const std::uint64_t base = build(GateKind::Inv, "a", "o");
    EXPECT_EQ(build(GateKind::Inv, "a", "o"), base);
    EXPECT_NE(build(GateKind::Nand2, "a", "o"), base);
    EXPECT_NE(build(GateKind::Inv, "b", "o"), base);
    EXPECT_NE(build(GateKind::Inv, "a", "p"), base);
}

TEST(Netlist, CountKind)
{
    Netlist nl;
    NetBuilder b(nl);
    const GateId a = b.input("a");
    b.nand2(a, a);
    b.nand2(a, a);
    b.notGate(a);
    EXPECT_EQ(nl.countKind(GateKind::Nand2), 2u);
    EXPECT_EQ(nl.countKind(GateKind::Inv), 1u);
    EXPECT_EQ(nl.countKind(GateKind::Nor3), 0u);
}

TEST(Netlist, EvaluateValidatesInputCount)
{
    Netlist nl;
    NetBuilder b(nl);
    b.input("a");
    EXPECT_THROW(nl.evaluate({}), FatalError);
    EXPECT_THROW(nl.evaluate({true, false}), FatalError);
}

TEST(Netlist, BusHelpers)
{
    Netlist nl;
    NetBuilder b(nl);
    const auto bus = b.inputBus("data", 8);
    EXPECT_EQ(bus.size(), 8u);
    EXPECT_EQ(nl.inputNames()[0], "data[0]");
    EXPECT_EQ(nl.inputNames()[7], "data[7]");
    const auto regs = b.dffBus(bus);
    EXPECT_EQ(regs.size(), 8u);
    EXPECT_EQ(nl.dffs().size(), 8u);
    b.outputBus("q", regs);
    EXPECT_EQ(nl.outputs().size(), 8u);
    EXPECT_EQ(nl.outputs()[3].name, "q[3]");
}

} // namespace
} // namespace otft::netlist
