/**
 * @file
 * Tests for the declarative topology subsystem: JSON parsing, spec
 * validation error paths (each a crisp SpecError, never a TF_ASSERT
 * at runtime), the switched fabric model, instantiation, and
 * jobs-independence of a multi-hop run.
 */

#include <gtest/gtest.h>

#include "net/switch.hh"
#include "topo/builder.hh"
#include "topo/spec.hh"

using namespace tf;
using topo::Spec;
using topo::SpecError;

namespace {

/** Two hosts (one with a donor) behind two switches. */
const char *kValid = R"({
  "name": "mini",
  "nodes": [
    {"name": "h0", "role": "host", "donor": "d0", "channels": 2,
     "dram": {"accessNs": 80, "gbps": 100, "banks": 8}},
    {"name": "h1", "role": "host"},
    {"name": "d0", "role": "donor", "donatedMiB": 32}
  ],
  "switches": [
    {"name": "s0", "crossingNs": 40, "radix": 4},
    {"name": "s1", "crossingNs": 40, "radix": 4}
  ],
  "links": [
    {"a": "h0", "b": "s0", "gbps": 100, "latencyNs": 500},
    {"a": "h1", "b": "s1", "gbps": 100, "latencyNs": 500},
    {"a": "s0", "b": "s1", "gbps": 25, "latencyNs": 800}
  ],
  "traffic": [
    {"name": "ping", "kind": "rpc", "src": "h0", "dst": "h1",
     "requestBytes": 128, "responseBytes": 1024, "window": 2,
     "ops": 50},
    {"name": "mem", "kind": "memory", "src": "h0",
     "policy": "remote", "accessBytes": 128, "window": 2,
     "ops": 60}
  ]
})";

std::string
expectError(const std::string &text)
{
    try {
        topo::parseSpec(text, "test.json");
    } catch (const SpecError &e) {
        return e.what();
    }
    ADD_FAILURE() << "expected SpecError, got a valid parse";
    return "";
}

} // namespace

TEST(TopoJsonT, SyntaxErrorCarriesLineAndColumn)
{
    std::string err = expectError("{\n  \"name\": \"x\",\n  oops\n}");
    EXPECT_NE(err.find("test.json:3"), std::string::npos) << err;
}

TEST(TopoJsonT, DuplicateObjectKeyRejected)
{
    std::string err =
        expectError(R"({"name": "x", "name": "y", "nodes": []})");
    EXPECT_NE(err.find("duplicate key"), std::string::npos) << err;
}

TEST(TopoJsonT, LineCommentsAllowed)
{
    Spec spec = topo::parseSpec(
        "// header comment\n"
        "{\"name\": \"c\", // trailing\n"
        " \"nodes\": [{\"name\": \"n0\", \"role\": \"host\"}]}",
        "c.json");
    EXPECT_EQ(spec.name, "c");
    ASSERT_EQ(spec.nodes.size(), 1u);
}

TEST(TopoSpecT, ValidFileParses)
{
    Spec spec = topo::parseSpec(kValid, "mini.json");
    EXPECT_EQ(spec.name, "mini");
    ASSERT_EQ(spec.nodes.size(), 3u);
    EXPECT_EQ(spec.nodes[0].donor, "d0");
    EXPECT_EQ(spec.nodes[0].channels, 2u);
    EXPECT_EQ(spec.nodes[0].dram.banks, 8u);
    ASSERT_EQ(spec.switches.size(), 2u);
    EXPECT_EQ(spec.switches[0].radix, 4u);
    ASSERT_EQ(spec.links.size(), 3u);
    EXPECT_DOUBLE_EQ(spec.links[2].gbps, 25.0);
    ASSERT_EQ(spec.traffic.size(), 2u);
    EXPECT_EQ(spec.traffic[0].kind, "rpc");
    EXPECT_EQ(spec.traffic[1].policy, "remote");
}

TEST(TopoSpecT, UnknownNodeReferenceInLink)
{
    std::string err = expectError(R"({
      "name": "x",
      "nodes": [{"name": "h0", "role": "host"}],
      "links": [{"a": "h0", "b": "ghost", "latencyNs": 500}]
    })");
    EXPECT_NE(err.find("unknown node \"ghost\""), std::string::npos)
        << err;
}

TEST(TopoSpecT, UnknownDonorReference)
{
    std::string err = expectError(R"({
      "name": "x",
      "nodes": [{"name": "h0", "role": "host", "donor": "nope"}]
    })");
    EXPECT_NE(err.find("unknown node \"nope\""), std::string::npos)
        << err;
}

TEST(TopoSpecT, DuplicateNodeName)
{
    std::string err = expectError(R"({
      "name": "x",
      "nodes": [{"name": "h0", "role": "host"},
                {"name": "h0", "role": "host"}]
    })");
    EXPECT_NE(err.find("duplicate name \"h0\""), std::string::npos)
        << err;
}

TEST(TopoSpecT, SwitchMayNotShadowNodeName)
{
    std::string err = expectError(R"({
      "name": "x",
      "nodes": [{"name": "h0", "role": "host"}],
      "switches": [{"name": "h0"}]
    })");
    EXPECT_NE(err.find("duplicate name \"h0\""), std::string::npos)
        << err;
}

TEST(TopoSpecT, NonPositiveLinkLatencyBreaksLookahead)
{
    std::string err = expectError(R"({
      "name": "x",
      "nodes": [{"name": "h0", "role": "host"},
                {"name": "h1", "role": "host"}],
      "links": [{"a": "h0", "b": "h1", "latencyNs": 0}]
    })");
    EXPECT_NE(err.find("latencyNs must be positive"),
              std::string::npos)
        << err;
    EXPECT_NE(err.find("lookahead"), std::string::npos) << err;
}

// Timing keys convert to picosecond Ticks: values whose conversion
// overflows (or truncates a latency to zero) are positioned
// SpecErrors, not a TF_ASSERT panic when the fabric is built.
TEST(TopoSpecT, OverflowingLinkLatencyRejected)
{
    std::string err = expectError(R"({
      "name": "x",
      "nodes": [{"name": "h0", "role": "host"},
                {"name": "h1", "role": "host"}],
      "links": [{"a": "h0", "b": "h1", "latencyNs": 1e30}]
    })");
    EXPECT_NE(err.find("test.json:5:"), std::string::npos) << err;
    EXPECT_NE(err.find("latencyNs 1e+30 is outside"), std::string::npos)
        << err;
}

TEST(TopoSpecT, VanishingLinkRateRejected)
{
    std::string err = expectError(R"({
      "name": "x",
      "nodes": [{"name": "h0", "role": "host"},
                {"name": "h1", "role": "host"}],
      "links": [{"a": "h0", "b": "h1", "gbps": 1e-300}]
    })");
    EXPECT_NE(err.find("test.json:5:"), std::string::npos) << err;
    EXPECT_NE(err.find("gbps 1e-300 is outside"), std::string::npos)
        << err;
}

TEST(TopoSpecT, OverflowingSwitchCrossingRejected)
{
    std::string err = expectError(R"({
      "name": "x",
      "nodes": [{"name": "h0", "role": "host"},
                {"name": "h1", "role": "host"}],
      "switches": [{"name": "s0", "crossingNs": 1e30}],
      "links": [{"a": "h0", "b": "s0"}, {"a": "s0", "b": "h1"}]
    })");
    EXPECT_NE(err.find("test.json:5:"), std::string::npos) << err;
    EXPECT_NE(err.find("crossingNs 1e+30 is outside"),
              std::string::npos)
        << err;
}

TEST(TopoSpecT, UnreachableEndpoint)
{
    std::string err = expectError(R"({
      "name": "x",
      "nodes": [{"name": "h0", "role": "host"},
                {"name": "h1", "role": "host"},
                {"name": "h2", "role": "host"}],
      "links": [{"a": "h0", "b": "h1", "latencyNs": 500}],
      "traffic": [{"name": "t", "kind": "rpc",
                   "src": "h0", "dst": "h2"}]
    })");
    EXPECT_NE(err.find("unreachable"), std::string::npos) << err;
}

TEST(TopoSpecT, TypoedKeyRejected)
{
    std::string err = expectError(R"({
      "name": "x",
      "nodes": [{"name": "h0", "role": "host",
                 "chanels": 2}]
    })");
    EXPECT_NE(err.find("unknown key \"chanels\""), std::string::npos)
        << err;
}

TEST(TopoSpecT, RadixOverflowRejected)
{
    std::string err = expectError(R"({
      "name": "x",
      "nodes": [{"name": "h0", "role": "host"},
                {"name": "h1", "role": "host"},
                {"name": "h2", "role": "host"}],
      "switches": [{"name": "s0", "radix": 2}],
      "links": [{"a": "h0", "b": "s0", "latencyNs": 500},
                {"a": "h1", "b": "s0", "latencyNs": 500},
                {"a": "h2", "b": "s0", "latencyNs": 500}]
    })");
    EXPECT_NE(err.find("radix"), std::string::npos) << err;
}

TEST(TopoSpecT, DonorClaimedTwiceRejected)
{
    std::string err = expectError(R"({
      "name": "x",
      "nodes": [{"name": "h0", "role": "host", "donor": "d0"},
                {"name": "h1", "role": "host", "donor": "d0"},
                {"name": "d0", "role": "donor"}]
    })");
    EXPECT_NE(err.find("claimed by more than one host"),
              std::string::npos)
        << err;
}

TEST(TopoSpecT, UnknownFaultKindRejected)
{
    std::string err = expectError(R"({
      "name": "x",
      "nodes": [{"name": "h0", "role": "host"}],
      "faults": [{"kind": "gremlins", "point": "h0.dram"}]
    })");
    EXPECT_NE(err.find("unknown fault kind \"gremlins\""),
              std::string::npos)
        << err;
}

TEST(TopoSpecT, MemoryTrafficNeedsADonorForRemotePolicy)
{
    std::string err = expectError(R"({
      "name": "x",
      "nodes": [{"name": "h0", "role": "host"}],
      "traffic": [{"name": "m", "kind": "memory", "src": "h0",
                   "policy": "remote"}]
    })");
    EXPECT_NE(err.find("has no donor"), std::string::npos) << err;
}

namespace {

/** kValid with its first @p from replaced by @p to. */
std::string
validWith(const std::string &from, const std::string &to)
{
    std::string text(kValid);
    std::size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return text.replace(at, from.size(), to);
}

} // namespace

// A nesting bomb used to recurse until the stack overflowed; the
// parser now stops at kMaxDepth with a positioned error.
TEST(TopoJsonT, NestingDepthBounded)
{
    std::string ok = std::string(topo::json::kMaxDepth, '[') +
                     std::string(topo::json::kMaxDepth, ']');
    EXPECT_TRUE(topo::json::parse(ok, "ok.json").isArray());
    std::string err = expectError("{\"name\": \"x\", \"nodes\": " +
                                  std::string(200000, '['));
    EXPECT_NE(err.find("test.json:1:"), std::string::npos) << err;
    EXPECT_NE(err.find("nesting deeper than 64 levels"),
              std::string::npos)
        << err;
}

// A donation larger than the donor's memory used to size the RMMU
// window unchecked and abort on std::bad_alloc.
TEST(TopoSpecT, DonationBeyondDonorMemoryRejected)
{
    EXPECT_NO_THROW(topo::parseSpec(
        validWith("\"donatedMiB\": 32", "\"donatedMiB\": 1024"), "t"));
    std::string err = expectError(validWith(
        "\"donatedMiB\": 32", "\"donatedMiB\": 99999999999"));
    EXPECT_NE(err.find("test.json:7:"), std::string::npos) << err;
    EXPECT_NE(err.find("donatedMiB 99999999999 is outside [1, 1024]"),
              std::string::npos)
        << err;
}

// Message and access sizes: a huge request aborted the run on
// std::bad_alloc, an access past one LLC frame panicked the datapath.
TEST(TopoSpecT, OversizedMessagesAndAccessesRejected)
{
    std::string err = expectError(validWith(
        "\"requestBytes\": 128", "\"requestBytes\": 1e17"));
    EXPECT_NE(err.find("test.json:20:"), std::string::npos) << err;
    EXPECT_NE(err.find("requestBytes 1e+17 is outside"),
              std::string::npos)
        << err;
    err = expectError(validWith("\"responseBytes\": 1024",
                                "\"responseBytes\": 1e30"));
    EXPECT_NE(err.find("does not fit 64 bits"), std::string::npos)
        << err;
    err = expectError(
        validWith("\"accessBytes\": 128", "\"accessBytes\": 4096"));
    EXPECT_NE(err.find("test.json:23:"), std::string::npos) << err;
    EXPECT_NE(err.find("accessBytes 4096 is outside [1, 256]"),
              std::string::npos)
        << err;
}

// Schedule keys become Ticks: each is bounded so the conversion is
// representable (startUs 1e30 used to validate and run silently).
TEST(TopoSpecT, UnrepresentableScheduleRejected)
{
    std::string err = expectError(
        validWith("\"ops\": 50}", "\"ops\": 50, \"startUs\": 1e30}"));
    EXPECT_NE(err.find("test.json:21:"), std::string::npos) << err;
    EXPECT_NE(err.find("startUs 1e+30 is outside"), std::string::npos)
        << err;

    auto withStanza = [](const std::string &stanza) {
        return validWith("\n  ]\n}", "\n  ],\n" + stanza + "\n}");
    };
    for (const char *fault :
         {R"({"kind": "latencySpike", "point": "p", "atUs": 1e30})",
          R"({"kind": "latencySpike", "point": "p", "forUs": 1e30})",
          R"({"kind": "latencySpike", "point": "p", "extraNs": 1e30})"}) {
        err = expectError(withStanza(std::string("  \"faults\": [") +
                                     fault + "]"));
        EXPECT_NE(err.find("fault"), std::string::npos) << err;
        EXPECT_NE(err.find("1e+30 is outside"), std::string::npos)
            << err;
    }
    for (const char *range : {R"("fromUs": 1e30)", R"("untilUs": 1e30)"}) {
        err = expectError(withStanza(
            std::string("  \"monitors\": [{\"name\": \"m\", \"metric\": "
                        "\"ping.latP99Us\", \"threshold\": 1, ") +
            range + "}]"));
        EXPECT_NE(err.find("1e+30 is outside"), std::string::npos)
            << err;
    }
    err = expectError(withStanza("  \"timelineUs\": 1e-9"));
    EXPECT_NE(err.find("timelineUs 1e-09 is outside"),
              std::string::npos)
        << err;
}

// Integer keys are bounded before they are narrowed to 32 bits: 2^32
// + 1 channels validated as 1 channel, a 2^32 window was reported as
// "window must be >= 1", 4e9 DRAM banks aborted the build on
// std::bad_alloc, and a frame budget the host cannot back (or under
// two frames) panicked the page cache.
TEST(TopoSpecT, IntegersBoundedBeforeNarrowing)
{
    const std::string cache = "\"channels\": 2, \"cache\": ";
    const struct
    {
        const char *from, *to, *where, *msg;
    } cases[] = {
        {"\"channels\": 2", "\"channels\": 4294967297", ":4:",
         "channels 4294967297 is outside [1, 8]"},
        {"\"window\": 2", "\"window\": 4294967296", ":20:",
         "window 4294967296 is outside [1, 65536]"},
        {"\"radix\": 4", "\"radix\": 4294967298", ":10:",
         "radix 4294967298 is outside [2, 4096]"},
        {"\"banks\": 8", "\"banks\": 4000000000", ":5:",
         "banks 4000000000 is outside [1, 1024]"},
        {"\"ops\": 50}", "\"ops\": 50}], \"monitors\": [{\"name\": \"m\", "
         "\"metric\": \"x\", \"threshold\": 1, \"forWindows\": 4294967296}",
         ":21:", "forWindows 4294967296 is outside [1, 4294967295]"},
        {"\"channels\": 2,", "{\"frameBudget\": 1},", ":4:",
         "frameBudget 1 is outside [2, 16384]"},
        {"\"channels\": 2,", "{\"frameBudget\": 16385},", ":4:",
         "frameBudget 16385 is outside [2, 16384]"},
        {"\"channels\": 2,", "{\"lineMlp\": 513},", ":4:",
         "lineMlp 513 is outside [1, 512]"},
        {"\"channels\": 2,",
         "{\"frameBudget\": 8, \"highWatermark\": 4294967304},", ":4:",
         "highWatermark 4294967304 is outside [0, 8]"},
    };
    for (const auto &c : cases) {
        std::string to = c.to[0] == '{' ? cache + c.to : c.to;
        std::string err = expectError(validWith(c.from, to));
        EXPECT_NE(err.find(std::string("test.json") + c.where),
                  std::string::npos)
            << err;
        EXPECT_NE(err.find(c.msg), std::string::npos) << err;
    }
    // The whole of the host's boot memory still backs a cache.
    topo::Instance inst(
        topo::parseSpec(validWith("\"channels\": 2,",
                                  cache + "{\"frameBudget\": 16384},"),
                        "t"),
        topo::BuildOptions{});
    EXPECT_EQ(inst.trafficCount(), 2u);
}

TEST(FabricT, RoutesAndHopCounts)
{
    sim::EventQueue eq;
    net::Fabric fabric("f", eq);
    fabric.addEndpoint("a");
    fabric.addEndpoint("b");
    fabric.addSwitch("s0", net::SwitchParams{});
    fabric.addSwitch("s1", net::SwitchParams{});
    net::FabricLinkParams lp;
    fabric.connect("a", "s0", lp);
    fabric.connect("s0", "s1", lp);
    fabric.connect("s1", "b", lp);
    fabric.finalize();

    EXPECT_TRUE(fabric.reachable("a", "b"));
    EXPECT_TRUE(fabric.reachable("b", "a"));
    EXPECT_EQ(fabric.hopCount("a", "b"), 3u);

    bool delivered = false;
    fabric.send("a", "b", 4096, [&] { delivered = true; });
    eq.run();
    EXPECT_TRUE(delivered);
    // Both switches forwarded the one message.
    EXPECT_EQ(fabric.relayedMessages(), 2u);
}

TEST(FabricT, OversubscribedEgressQueues)
{
    // Two 100 Gb/s sources funnel into one 10 Gb/s egress: the
    // second message must wait out the first one's serialisation in
    // the switch's output queue.
    sim::EventQueue eq;
    net::Fabric fabric("f", eq);
    fabric.addEndpoint("a");
    fabric.addEndpoint("b");
    fabric.addEndpoint("sink");
    fabric.addSwitch("sw", net::SwitchParams{});
    net::FabricLinkParams fast;
    fast.bandwidthBps = 100e9 / 8;
    net::FabricLinkParams slow;
    slow.bandwidthBps = 10e9 / 8;
    fabric.connect("a", "sw", fast);
    fabric.connect("b", "sw", fast);
    fabric.connect("sw", "sink", slow);
    fabric.finalize();

    int arrived = 0;
    fabric.send("a", "sink", 100000, [&] { ++arrived; });
    fabric.send("b", "sink", 100000, [&] { ++arrived; });
    eq.run();
    EXPECT_EQ(arrived, 2);
    // 100 kB at 1.25 GB/s = 80 us of serialisation the second
    // message waited behind.
    EXPECT_GT(fabric.maxQueueDelayNs(), 70e3);
}

TEST(TopoBuildT, InstanceRunsAllTraffic)
{
    Spec spec = topo::parseSpec(kValid, "mini.json");
    topo::BuildOptions opt;
    topo::Instance inst(spec, opt);
    // 2 host groups (donor folded into h0's) + 2 switches.
    EXPECT_EQ(inst.lpCount(), 4u);
    EXPECT_EQ(inst.fabric().hopCount("h0", "h1"), 3u);

    inst.run();
    ASSERT_EQ(inst.trafficCount(), 2u);
    for (std::size_t i = 0; i < inst.trafficCount(); ++i) {
        const auto &t = inst.traffic(i);
        EXPECT_EQ(t.completed.value(), t.target) << t.name;
        EXPECT_GT(t.latUs.mean(), 0.0) << t.name;
    }
    EXPECT_GT(inst.fabric().relayedMessages(), 0u);
}

TEST(TopoBuildT, UnknownFaultPointIsASpecError)
{
    std::string text(kValid);
    auto pos = text.rfind('}');
    ASSERT_NE(pos, std::string::npos);
    text.insert(
        pos,
        R"(, "faults": [{"kind": "dramStall", "point": "nosuch.dram",
                         "atUs": 10, "forUs": 5}])");
    Spec spec = topo::parseSpec(text, "mini.json");
    try {
        topo::Instance inst(spec, topo::BuildOptions{});
        FAIL() << "expected SpecError for unknown fault point";
    } catch (const SpecError &e) {
        EXPECT_NE(std::string(e.what()).find("nosuch.dram"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("known points"),
                  std::string::npos);
    }
}

TEST(TopoBuildT, JobsDoNotChangeTheSimulation)
{
    Spec spec = topo::parseSpec(kValid, "mini.json");

    auto runWith = [&spec](unsigned jobs) {
        topo::BuildOptions opt;
        opt.jobs = jobs;
        topo::Instance inst(spec, opt);
        inst.run();
        return std::make_tuple(
            inst.traffic(0).latUs.samples(),
            inst.traffic(1).latUs.samples(),
            inst.fabric().relayedMessages(), inst.lastCompletion());
    };

    auto serial = runWith(1);
    auto parallel = runWith(2);
    EXPECT_EQ(std::get<0>(serial), std::get<0>(parallel));
    EXPECT_EQ(std::get<1>(serial), std::get<1>(parallel));
    EXPECT_EQ(std::get<2>(serial), std::get<2>(parallel));
    EXPECT_EQ(std::get<3>(serial), std::get<3>(parallel));
}

TEST(TopoBuildT, InterferenceRaisesVictimTail)
{
    // Inline miniature of configs/noisy_neighbor.json: victim runs
    // quiet, then again alongside a bulk aggressor sharing the
    // oversubscribed core -> edge downlink.
    const char *text = R"({
      "name": "noisy_mini",
      "nodes": [
        {"name": "vc", "role": "host"}, {"name": "vs", "role": "host"},
        {"name": "ac", "role": "host"}, {"name": "as", "role": "host"}
      ],
      "switches": [{"name": "edge", "radix": 3},
                   {"name": "core", "radix": 3}],
      "links": [
        {"a": "vc", "b": "edge", "gbps": 100, "latencyNs": 500},
        {"a": "ac", "b": "edge", "gbps": 100, "latencyNs": 500},
        {"a": "edge", "b": "core", "gbps": 25, "latencyNs": 800},
        {"a": "core", "b": "vs", "gbps": 100, "latencyNs": 500},
        {"a": "core", "b": "as", "gbps": 100, "latencyNs": 500}
      ],
      "traffic": [
        {"name": "quiet", "kind": "rpc", "src": "vc", "dst": "vs",
         "requestBytes": 128, "responseBytes": 4096, "window": 2,
         "ops": 60, "startUs": 0},
        {"name": "aggr", "kind": "rpc", "src": "ac", "dst": "as",
         "requestBytes": 256, "responseBytes": 32768, "window": 8,
         "ops": 60, "startUs": 200},
        {"name": "contended", "kind": "rpc", "src": "vc", "dst": "vs",
         "requestBytes": 128, "responseBytes": 4096, "window": 2,
         "ops": 60, "startUs": 200}
      ]
    })";
    Spec spec = topo::parseSpec(text, "noisy_mini.json");
    topo::Instance inst(spec, topo::BuildOptions{});
    inst.run();

    const auto &quiet = inst.traffic(0);
    const auto &contended = inst.traffic(2);
    ASSERT_EQ(quiet.completed.value(), quiet.target);
    ASSERT_EQ(contended.completed.value(), contended.target);
    // The aggressor's 32 KiB responses park in the shared egress
    // queue; the contended victim's tail must visibly suffer.
    EXPECT_GT(contended.latUs.quantile(0.99),
              2.0 * quiet.latUs.quantile(0.99));
}

// ------------------------------------------------- monitors stanza

TEST(TopoMonitorsT, BadOpRejectedWithLocation)
{
    std::string err = expectError(R"({
      "name": "m", "nodes": [{"name": "h0", "role": "host"}],
      "monitors": [{"name": "r", "metric": "x.ops", "op": "!=",
                    "threshold": 1}]
    })");
    EXPECT_NE(err.find("test.json:3"), std::string::npos) << err;
    EXPECT_NE(err.find("op"), std::string::npos) << err;
}

TEST(TopoMonitorsT, MissingThresholdRejected)
{
    std::string err = expectError(R"({
      "name": "m", "nodes": [{"name": "h0", "role": "host"}],
      "monitors": [{"name": "r", "metric": "x.ops"}]
    })");
    EXPECT_NE(err.find("threshold"), std::string::npos) << err;
}

TEST(TopoMonitorsT, ZeroForWindowsRejected)
{
    std::string err = expectError(R"({
      "name": "m", "nodes": [{"name": "h0", "role": "host"}],
      "monitors": [{"name": "r", "metric": "x.ops",
                    "threshold": 1, "forWindows": 0}]
    })");
    EXPECT_NE(err.find("forWindows"), std::string::npos) << err;
}

TEST(TopoMonitorsT, UntilBeforeFromRejected)
{
    std::string err = expectError(R"({
      "name": "m", "nodes": [{"name": "h0", "role": "host"}],
      "monitors": [{"name": "r", "metric": "x.ops", "threshold": 1,
                    "fromUs": 100, "untilUs": 50}]
    })");
    EXPECT_NE(err.find("untilUs"), std::string::npos) << err;
}

TEST(TopoMonitorsT, DuplicateMonitorNameRejected)
{
    std::string err = expectError(R"({
      "name": "m", "nodes": [{"name": "h0", "role": "host"}],
      "monitors": [
        {"name": "r", "metric": "x.ops", "threshold": 1},
        {"name": "r", "metric": "y.ops", "threshold": 2}]
    })");
    EXPECT_NE(err.find("duplicate"), std::string::npos) << err;
}

TEST(TopoMonitorsT, UnknownMetricIsABuildErrorListingSeries)
{
    std::string text(kValid);
    auto pos = text.rfind('}');
    ASSERT_NE(pos, std::string::npos);
    text.insert(pos,
                R"(, "monitors": [{"name": "r",
                    "metric": "nosuch.latP99Us", "threshold": 1}])");
    Spec spec = topo::parseSpec(text, "mini.json");
    try {
        topo::Instance inst(spec, topo::BuildOptions{});
        FAIL() << "expected SpecError for unknown monitor metric";
    } catch (const SpecError &e) {
        std::string what = e.what();
        // file:line:col of the stanza, the typo, and what exists.
        EXPECT_NE(what.find("mini.json:"), std::string::npos) << what;
        EXPECT_NE(what.find("nosuch.latP99Us"), std::string::npos)
            << what;
        EXPECT_NE(what.find("ping.latP99Us"), std::string::npos)
            << what;
    }
}

TEST(TopoMonitorsT, WatchdogTripsUnderContentionOnly)
{
    // The InterferenceRaisesVictimTail rig, with the interference
    // signal promoted to declarative SLO rules: the quiet-phase rule
    // must never trip, the contended-phase rule must.
    const char *text = R"({
      "name": "noisy_mon",
      "nodes": [
        {"name": "vc", "role": "host"}, {"name": "vs", "role": "host"},
        {"name": "ac", "role": "host"}, {"name": "as", "role": "host"}
      ],
      "switches": [{"name": "edge", "radix": 3},
                   {"name": "core", "radix": 3}],
      "links": [
        {"a": "vc", "b": "edge", "gbps": 100, "latencyNs": 500},
        {"a": "ac", "b": "edge", "gbps": 100, "latencyNs": 500},
        {"a": "edge", "b": "core", "gbps": 25, "latencyNs": 800},
        {"a": "core", "b": "vs", "gbps": 100, "latencyNs": 500},
        {"a": "core", "b": "as", "gbps": 100, "latencyNs": 500}
      ],
      "traffic": [
        {"name": "quiet", "kind": "rpc", "src": "vc", "dst": "vs",
         "requestBytes": 128, "responseBytes": 4096, "window": 2,
         "ops": 60, "startUs": 0},
        {"name": "aggr", "kind": "rpc", "src": "ac", "dst": "as",
         "requestBytes": 256, "responseBytes": 32768, "window": 8,
         "ops": 60, "startUs": 200},
        {"name": "contended", "kind": "rpc", "src": "vc", "dst": "vs",
         "requestBytes": 128, "responseBytes": 4096, "window": 2,
         "ops": 60, "startUs": 200}
      ],
      "timelineUs": 25,
      "monitors": [
        {"name": "quiet_tail", "metric": "quiet.latP99Us",
         "op": ">", "threshold": 30, "untilUs": 200},
        {"name": "contended_tail", "metric": "contended.latP99Us",
         "op": ">", "threshold": 30, "fromUs": 200}
      ]
    })";
    Spec spec = topo::parseSpec(text, "noisy_mon.json");

    auto runWith = [&spec](unsigned jobs) {
        topo::BuildOptions opt;
        opt.jobs = jobs;
        topo::Instance inst(spec, opt);
        EXPECT_TRUE(inst.timelineEnabled());
        inst.run();
        return std::make_pair(
            std::vector<sim::timeline::SloResult>(inst.sloResults()),
            inst.timeline().windows());
    };

    auto [slo, windows] = runWith(1);
    EXPECT_GT(windows, 0u);
    ASSERT_EQ(slo.size(), 2u);
    const auto &contended =
        slo[0].name == "contended_tail" ? slo[0] : slo[1];
    const auto &quiet =
        slo[0].name == "quiet_tail" ? slo[0] : slo[1];
    EXPECT_EQ(quiet.violations, 0u);
    EXPECT_GT(quiet.evaluated, 0u);
    EXPECT_GE(contended.violations, 1u);
    EXPECT_GT(contended.worstValue, 30.0);
    EXPECT_NE(contended.firstViolationTick, sim::maxTick);

    // Same watchdog verdicts for a partitioned run.
    auto [slo2, windows2] = runWith(2);
    EXPECT_EQ(windows, windows2);
    ASSERT_EQ(slo2.size(), 2u);
    for (std::size_t i = 0; i < slo.size(); ++i) {
        EXPECT_EQ(slo[i].violations, slo2[i].violations);
        EXPECT_EQ(slo[i].evaluated, slo2[i].evaluated);
        EXPECT_EQ(slo[i].worstValue, slo2[i].worstValue);
        EXPECT_EQ(slo[i].firstViolationTick,
                  slo2[i].firstViolationTick);
    }
}

#ifdef TF_TOPO_CONFIG_DIR
TEST(TopoConfigsT, CheckedInConfigsBuild)
{
    const char *files[] = {"ring.json", "chain.json", "fullmesh.json",
                           "noisy_neighbor.json"};
    for (const char *f : files) {
        std::string path = std::string(TF_TOPO_CONFIG_DIR) + "/" + f;
        Spec spec = topo::loadSpecFile(path);
        topo::BuildOptions opt;
        opt.smoke = true;
        topo::Instance inst(spec, opt);
        EXPECT_GT(inst.lpCount(), 0u) << f;
    }
}

TEST(TopoConfigsT, NoisyNeighborMonitorsTripAsDesigned)
{
    // The checked-in config's monitors are part of its contract:
    // quiet phase clean, contended phase tripping. CI additionally
    // pins slo.vic_quiet_tail.violations at 0 in the baseline.
    std::string path =
        std::string(TF_TOPO_CONFIG_DIR) + "/noisy_neighbor.json";
    Spec spec = topo::loadSpecFile(path);
    ASSERT_EQ(spec.monitors.size(), 2u);
    topo::BuildOptions opt;
    opt.smoke = true;
    topo::Instance inst(spec, opt);
    ASSERT_TRUE(inst.timelineEnabled());
    inst.run();

    ASSERT_EQ(inst.sloResults().size(), 2u);
    for (const auto &s : inst.sloResults()) {
        if (s.name == "vic_quiet_tail") {
            EXPECT_EQ(s.violations, 0u);
            EXPECT_GT(s.evaluated, 0u);
        } else {
            EXPECT_EQ(s.name, "vic_contended_tail");
            EXPECT_GE(s.violations, 1u);
        }
    }
}
#endif
