#include "probes.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <vector>

#include "mem/backing_store.hh"
#include "mem/dram.hh"
#include "net/switch.hh"
#include "opencapi/pasid.hh"
#include "os/address_space.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "system/node.hh"
#include "tflow/datapath.hh"

namespace perfbench {

namespace {

namespace mem = tf::mem;
namespace net = tf::net;
namespace os = tf::os;
namespace sim = tf::sim;

/** Times @p fn on the probe track; returns ns per call. */
template <typename Fn>
ProbeResult
timeCalls(Spans &spans, const std::string &layer, std::uint64_t calls,
          Fn &&fn)
{
    ProbeResult r;
    if (calls == 0)
        return r;
    double secs = spans.timed(Track::Probe, layer + ".probe",
                              [&] { r.calls = fn(); });
    r.nsPerCall = secs * 1e9 / static_cast<double>(calls);
    return r;
}

// ------------------------------ sim --------------------------------

/** Self-rescheduling chains at the workload's heap depth. */
struct KernelProbe
{
    sim::EventQueue eq;
    sim::Rng rng;
    std::uint64_t chains;
    std::uint64_t limit;
    std::uint64_t fired = 0;

    KernelProbe(std::uint64_t seed, std::uint64_t depth, std::uint64_t n)
        : rng(seed), chains(std::clamp<std::uint64_t>(depth, 1, n)),
          limit(n)
    {}

    void
    fire()
    {
        if (++fired + chains <= limit)
            eq.scheduleIn(1 + rng.below(1000), [this] { fire(); });
    }

    std::uint64_t
    run()
    {
        for (std::uint64_t c = 0; c < chains; ++c)
            eq.scheduleIn(1 + rng.below(1000), [this] { fire(); });
        eq.run();
        return eq.executed();
    }
};

// ---------------------------- tflow --------------------------------

constexpr mem::Addr kWindowBase = 0x2000000000ULL;
constexpr std::uint64_t kWindowSize = 1ULL << 30;
constexpr std::uint64_t kSection = 1ULL << 24;
constexpr mem::Addr kDonorBase = 0x100000000ULL;

/**
 * A bare datapath (compute endpoint, two LLC channels, stealing
 * endpoint, donor DRAM) driven closed-loop at the workload's mean
 * in-flight count and write share.
 */
struct DatapathProbe
{
    sim::EventQueue eq;
    sim::Rng rng;
    mem::BackingStore store;
    std::unique_ptr<mem::Dram> dram;
    tf::ocapi::PasidRegistry pasids;
    std::unique_ptr<tf::flow::Datapath> dp;
    mem::Addr base;
    double writeFrac;
    std::uint64_t limit;
    std::uint64_t issued = 0;
    std::uint64_t completed = 0;

    DatapathProbe(std::uint64_t seed, const Shape &s)
        : rng(seed), writeFrac(s.writeFrac), limit(s.txns)
    {
        dram = std::make_unique<mem::Dram>("probe.dram", eq,
                                           mem::DramParams{}, &store);
        dp = std::make_unique<tf::flow::Datapath>(
            "probe.dp", eq, tf::flow::FlowParams{},
            tf::ocapi::M1Window{kWindowBase, kWindowSize}, pasids, *dram,
            rng, kSection);
        auto pasid = pasids.allocate();
        pasids.registerRegion(pasid, kDonorBase, kWindowSize);
        dp->stealing().setPasid(pasid);
        dp->attach(0, kDonorBase, 1, {0});
        dp->attach(1, kDonorBase + kSection, 2, {0, 1});
        // Section 1 stripes over both channels, section 0 uses one.
        base = kWindowBase + (s.bonded ? kSection : 0);
    }

    void
    issue()
    {
        const mem::Addr addr =
            base + (issued * mem::cachelineBytes) % kSection;
        const bool write = rng.uniform() < writeFrac;
        ++issued;
        auto txn = mem::makeTxn(
            write ? mem::TxnType::WriteReq : mem::TxnType::ReadReq, addr);
        if (write)
            txn->data.assign(mem::cachelineBytes, 0);
        txn->onComplete = [this](mem::MemTxn &) {
            ++completed;
            if (issued < limit)
                issue();
        };
        dp->issue(std::move(txn));
    }

    std::uint64_t
    run(double mlp)
    {
        const auto window = static_cast<std::uint64_t>(
            std::clamp(std::llround(mlp), 1LL,
                       static_cast<long long>(limit)));
        for (std::uint64_t i = 0; i < window; ++i)
            issue();
        eq.run();
        return completed;
    }
};

// ------------------------------ net --------------------------------

/** Sends @p n messages of @p bytes, 256 in flight per drain. */
template <typename Send>
std::uint64_t
sendBatches(sim::EventQueue &eq, std::uint64_t n, Send &&send)
{
    std::uint64_t delivered = 0;
    for (std::uint64_t sent = 0; sent < n;) {
        for (int i = 0; i < 256 && sent < n; ++i, ++sent)
            send([&delivered] { ++delivered; });
        eq.run();
    }
    return delivered;
}

std::uint64_t
meanBytes(std::uint64_t bytes, std::uint64_t msgs)
{
    return std::max<std::uint64_t>(1, msgs ? bytes / msgs : 0);
}

} // namespace

std::map<std::string, std::uint64_t>
layerCalls(const Shape &s)
{
    return {
        {"sim", s.events},           {"stats", s.statSamples},
        {"mem.cache", s.cacheAccesses}, {"mem.store", s.storeLines},
        {"os.xlat", s.xlatCalls},    {"tflow", s.txns},
        {"net.eth", s.ethMsgs},      {"net.fabric", s.fabricMsgs},
    };
}

double
Probes::attributedNs() const
{
    double total = 0;
    for (const auto &[name, p] : layer) {
        double ns = p.nsPerCall;
        if (name == "tflow")
            ns = std::max(0.0, ns - tflowEventsPerTxn *
                                        layer.at("sim").nsPerCall);
        total += ns * static_cast<double>(p.calls);
    }
    return total;
}

Probes
runProbes(const Shape &s, std::uint64_t seed, Spans &spans)
{
    Probes out;

    out.layer["sim"] = timeCalls(spans, "sim", s.events, [&] {
        KernelProbe k(seed, s.heapDepth, s.events);
        return k.run();
    });

    // Alternate the two sample-keeping stat kinds, with latency-like
    // values from a table so the RNG stays outside the timed loop.
    out.layer["stats"] = timeCalls(spans, "stats", s.statSamples, [&] {
        sim::Rng rng(seed);
        std::array<double, 4096> values;
        for (double &v : values)
            v = rng.logNormal(std::log(1000.0), 0.5);
        sim::QuantileSketch sketch;
        sim::SampleStat samples;
        for (std::uint64_t i = 0; i < s.statSamples; ++i) {
            const double v = values[i % values.size()];
            if (i & 1)
                samples.add(v);
            else
                sketch.add(v);
        }
        return sketch.count() + samples.count();
    });

    // Cache: a hot set that fits and a cold region that does not, mixed
    // at the workload's hit ratio and write share.
    {
        sim::Rng rng(seed);
        const std::uint64_t lines =
            s.cache.sizeBytes / s.cache.lineBytes;
        std::vector<std::pair<mem::Addr, bool>> stream;
        stream.reserve(s.cacheAccesses);
        for (std::uint64_t i = 0; i < s.cacheAccesses; ++i) {
            const bool hot = rng.uniform() < s.cacheHitRatio;
            const std::uint64_t line =
                hot ? rng.below(lines / 2) : lines + rng.below(64 * lines);
            stream.emplace_back(line * s.cache.lineBytes,
                                rng.uniform() < s.writeFrac);
        }
        out.layer["mem.cache"] =
            timeCalls(spans, "mem.cache", s.cacheAccesses, [&] {
                mem::Cache cache(s.cache);
                for (const auto &[addr, write] : stream)
                    cache.access(addr, write);
                return cache.hits() + cache.misses();
            });
    }

    // Backing store: 128 B line reads and writes over the workload's
    // touched pages.
    {
        sim::Rng rng(seed);
        std::vector<std::pair<mem::Addr, bool>> lines;
        lines.reserve(s.storeLines);
        const std::uint64_t pages = std::max<std::uint64_t>(1, s.storePages);
        for (std::uint64_t i = 0; i < s.storeLines; ++i)
            lines.emplace_back(
                rng.below(pages) * mem::pageBytes +
                    rng.below(mem::pageBytes / mem::cachelineBytes) *
                        mem::cachelineBytes,
                rng.uniform() < s.writeFrac);
        out.layer["mem.store"] =
            timeCalls(spans, "mem.store", s.storeLines, [&] {
                mem::BackingStore store;
                std::array<std::uint8_t, mem::cachelineBytes> buf{};
                std::uint64_t n = 0;
                for (const auto &[addr, write] : lines) {
                    if (write)
                        store.write(addr, buf.data(), buf.size());
                    else
                        store.read(addr, buf.data(), buf.size());
                    ++n;
                }
                return n;
            });
    }

    // Translation: first touches fault pages in as the workload did.
    out.layer["os.xlat"] = timeCalls(spans, "os.xlat", s.xlatCalls, [&] {
        sim::EventQueue eq;
        tf::sys::Node node("probe", eq, tf::sys::NodeParams{});
        os::AddressSpace space(node.mm(), node.localNode());
        const std::uint64_t pageBytes = node.mm().pageBytes();
        const std::uint64_t pages = std::clamp<std::uint64_t>(
            s.xlatFaults, 1,
            node.mm().freePages(node.localNode()));
        const mem::Addr base = space.mmap(pages * pageBytes);
        sim::Rng rng(seed);
        std::uint64_t n = 0;
        for (std::uint64_t i = 0; i < s.xlatCalls; ++i) {
            const mem::Addr va = base + rng.below(pages) * pageBytes +
                                 rng.below(pageBytes / 128) * 128;
            if (space.translate(va))
                ++n;
        }
        return n;
    });

    {
        std::uint64_t events = 0;
        out.layer["tflow"] = timeCalls(spans, "tflow", s.txns, [&] {
            DatapathProbe p(seed, s);
            const std::uint64_t done = p.run(s.mlp);
            events = p.eq.executed();
            return done;
        });
        out.tflowEventsPerTxn =
            s.txns ? static_cast<double>(events) /
                         static_cast<double>(s.txns)
                   : 0.0;
    }

    out.layer["net.eth"] = timeCalls(spans, "net.eth", s.ethMsgs, [&] {
        sim::EventQueue eq;
        net::Network network("probe", eq);
        network.connect("a", "b", s.eth);
        const std::uint64_t bytes = meanBytes(s.ethBytes, s.ethMsgs);
        return sendBatches(eq, s.ethMsgs, [&](auto done) {
            network.send("a", "b", bytes, done);
        });
    });

    // The fabric_rpc path: access link, 4:1 trunk between two
    // switches, access link.
    out.layer["net.fabric"] =
        timeCalls(spans, "net.fabric", s.fabricMsgs, [&] {
            sim::EventQueue eq;
            net::Fabric fabric("probe", eq);
            fabric.addEndpoint("a");
            fabric.addEndpoint("b");
            fabric.addSwitch("edge", net::SwitchParams{});
            fabric.addSwitch("core", net::SwitchParams{});
            fabric.connect("a", "edge",
                           {100e9 / 8, sim::nanoseconds(500)});
            fabric.connect("edge", "core",
                           {25e9 / 8, sim::nanoseconds(800)});
            fabric.connect("core", "b",
                           {100e9 / 8, sim::nanoseconds(500)});
            fabric.finalize();
            const std::uint64_t bytes =
                meanBytes(s.fabricBytes, s.fabricMsgs);
            return sendBatches(eq, s.fabricMsgs, [&](auto done) {
                fabric.send("a", "b", bytes, done);
            });
        });

    return out;
}

} // namespace perfbench
