/**
 * @file
 * Tests for the message-level Ethernet network: named endpoints
 * joined by direct net::Fabric links.
 */

#include <gtest/gtest.h>

#include "net/ethernet.hh"

using namespace tf;
using namespace tf::net;

namespace {

/** Value of scalar row @p row in the stat set at @p path. */
double
stat(const sim::StatsRegistry &reg, const std::string &path,
     const std::string &row)
{
    const sim::StatSet *set = reg.find(path);
    if (set == nullptr) {
        ADD_FAILURE() << "no stat set " << path;
        return -1;
    }
    for (const sim::StatEntry &e : set->snapshot())
        if (e.name == row)
            return e.value;
    ADD_FAILURE() << "no row " << path << "." << row;
    return -1;
}

} // namespace

TEST(EthLinkT, LatencyPlusSerialisation)
{
    sim::EventQueue eq;
    EthParams params;
    params.bandwidthBps = 1.25e9; // 10 Gb/s
    params.latency = sim::microseconds(25);
    params.perMessageOverhead = sim::microseconds(2);
    Network net("n", eq);
    net.connect("a", "b", params);
    sim::StatsRegistry reg;
    net.registerStats(reg, "n");

    sim::Tick arrival = 0;
    net.send("a", "b", 12500, [&] { arrival = eq.now(); }); // 10 us
    eq.run();
    EXPECT_EQ(arrival, sim::microseconds(10 + 2 + 25));
    EXPECT_EQ(stat(reg, "n.a->b", "messages"), 1);
    EXPECT_EQ(stat(reg, "n.a->b", "bytes"), 12500);
}

TEST(EthLinkT, BackToBackMessagesQueue)
{
    sim::EventQueue eq;
    EthParams params;
    params.bandwidthBps = 1.25e9;
    params.latency = sim::microseconds(25);
    params.perMessageOverhead = 0;
    Network net("n", eq);
    net.connect("a", "b", params);

    std::vector<sim::Tick> arrivals;
    for (int i = 0; i < 3; ++i)
        net.send("a", "b", 12500, [&] { arrivals.push_back(eq.now()); });
    eq.run();
    ASSERT_EQ(arrivals.size(), 3u);
    EXPECT_EQ(arrivals[0], sim::microseconds(35));
    EXPECT_EQ(arrivals[1], sim::microseconds(45)); // serialised
    EXPECT_EQ(arrivals[2], sim::microseconds(55));
}

TEST(EthLinkT, BacklogDelaysArrival)
{
    // Same message on two identical links; one is first loaded with
    // ~1 ms of backlog, which the message then waits out in full.
    sim::EventQueue eq;
    EthParams params = EthParams::tenGig();
    Network net("n", eq);
    net.connect("a", "busy", params);
    net.connect("a", "idle", params);

    sim::Tick busy = 0;
    sim::Tick idle = 0;
    net.send("a", "busy", 1250000, [] {});
    net.send("a", "busy", 1250, [&] { busy = eq.now(); });
    net.send("a", "idle", 1250, [&] { idle = eq.now(); });
    eq.run();
    EXPECT_EQ(busy - idle,
              sim::seconds(1250000 / params.bandwidthBps) +
                  params.perMessageOverhead);
}

TEST(NetworkT, DuplexAndAddressing)
{
    sim::EventQueue eq;
    Network net("n", eq);
    net.connect("a", "b", EthParams::hundredGig());
    EXPECT_TRUE(net.connected("a", "b"));
    EXPECT_TRUE(net.connected("b", "a"));
    EXPECT_FALSE(net.connected("a", "c"));

    int delivered = 0;
    net.send("a", "b", 1000, [&] { ++delivered; });
    net.send("b", "a", 1000, [&] { ++delivered; });
    eq.run();
    EXPECT_EQ(delivered, 2);
}

TEST(NetworkT, EndpointsDoNotRelay)
{
    // a - b - c: a reaches c only if a link joins them directly.
    sim::EventQueue eq;
    Network net("n", eq);
    net.connect("a", "b", EthParams::tenGig());
    net.connect("b", "c", EthParams::tenGig());
    EXPECT_TRUE(net.connected("a", "b"));
    EXPECT_FALSE(net.connected("a", "c"));
    EXPECT_FALSE(net.connected("c", "a"));
}

TEST(NetworkT, DirectionsAreIndependentLinks)
{
    sim::EventQueue eq;
    Network net("n", eq);
    EthParams params;
    params.bandwidthBps = 1.25e9;
    params.latency = sim::microseconds(10);
    params.perMessageOverhead = 0;
    net.connect("a", "b", params);

    // Saturate a->b; b->a latency must stay unaffected.
    for (int i = 0; i < 10; ++i)
        net.send("a", "b", 125000, [] {});
    sim::Tick reverse_arrival = 0;
    net.send("b", "a", 1250, [&] { reverse_arrival = eq.now(); });
    eq.run();
    EXPECT_EQ(reverse_arrival, sim::microseconds(1 + 10));
}

TEST(NetworkT, HundredGigFasterThanTen)
{
    sim::EventQueue eq;
    Network net("n", eq);
    net.connect("a", "b", EthParams::tenGig());
    net.connect("a", "c", EthParams::hundredGig());
    sim::Tick ten = 0;
    sim::Tick hundred = 0;
    net.send("a", "b", 1000000, [&] { ten = eq.now(); });
    net.send("a", "c", 1000000, [&] { hundred = eq.now(); });
    eq.run();
    // ~827 us vs ~96 us: serialisation dominates a 1 MB message.
    EXPECT_GT(ten, hundred);
    EXPECT_GT(ten, sim::microseconds(800));
    EXPECT_LT(hundred, sim::microseconds(100));
}

TEST(NetworkT, DirectSendIsOneEvent)
{
    sim::EventQueue eq;
    Network net("n", eq);
    net.connect("a", "b", EthParams::tenGig());
    int delivered = 0;
    for (int i = 0; i < 5; ++i)
        net.send("a", "b", 1000, [&] { ++delivered; });
    eq.run();
    EXPECT_EQ(delivered, 5);
    EXPECT_EQ(eq.executed(), 5u);
}

TEST(NetworkT, PerLinkStatNames)
{
    // Benchmarks sum "<prefix>.<src>-><dst>.messages" / ".bytes".
    sim::EventQueue eq;
    Network net("n", eq);
    net.connect("client", "serverA", EthParams::tenGig());
    sim::StatsRegistry reg;
    net.registerStats(reg, "net");
    net.send("client", "serverA", 1000, [] {});
    net.send("client", "serverA", 500, [] {});
    eq.run();

    EXPECT_EQ(reg.paths(), (std::vector<std::string>{
                               "net.client->serverA",
                               "net.serverA->client"}));
    EXPECT_EQ(stat(reg, "net.client->serverA", "messages"), 2);
    EXPECT_EQ(stat(reg, "net.client->serverA", "bytes"), 1500);
    EXPECT_EQ(stat(reg, "net.serverA->client", "messages"), 0);
    EXPECT_EQ(stat(reg, "net.serverA->client", "bytes"), 0);
}
