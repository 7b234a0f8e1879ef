#include "workloads.hh"

#include <algorithm>
#include <memory>

#include "apps/memcached.hh"
#include "apps/stream.hh"
#include "dc/trace.hh"
#include "harness.hh"
#include "sim/parallel/engine.hh"
#include "sim/rng.hh"
#include "system/rack.hh"
#include "topo/builder.hh"
#include "topo/spec.hh"

namespace perfbench {

namespace {

using tf::sim::Tick;
namespace apps = tf::apps;
namespace bench = tf::bench;
namespace mem = tf::mem;
namespace os = tf::os;
namespace sim = tf::sim;
namespace sys = tf::sys;

std::string gFabricSpecPath = "perfbench/configs/fabric_rpc.json";

/** A stats registry flattened to "<set>.<entry>" -> value. */
using Flat = std::map<std::string, double>;

Flat
flatten(const sim::StatsRegistry &reg)
{
    Flat out;
    for (const std::string &path : reg.paths())
        for (const sim::StatEntry &e : reg.find(path)->snapshot())
            out[path + "." + e.name] = e.value;
    return out;
}

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) ==
               0;
}

/** Sum of every entry under @p prefix whose key ends with @p suffix. */
double
sum(const Flat &f, const std::string &prefix, const std::string &suffix)
{
    double total = 0;
    for (auto it = f.lower_bound(prefix);
         it != f.end() && it->first.compare(0, prefix.size(), prefix) == 0;
         ++it)
        if (endsWith(it->first, suffix))
            total += it->second;
    return total;
}

double
get(const Flat &f, const std::string &key)
{
    auto it = f.find(key);
    return it == f.end() ? 0.0 : it->second;
}

/**
 * Samples added to SampleStats and QuantileSketches in the registry:
 * their ".count" rows (Summaries, which have no quantiles, excluded).
 */
std::uint64_t
sketchSamples(const Flat &f)
{
    double total = 0;
    for (const auto &[k, v] : f)
        if (endsWith(k, ".count") &&
            f.count(k.substr(0, k.size() - 6) + ".p50"))
            total += v;
    return static_cast<std::uint64_t>(total);
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/**
 * Datapath-level counts from a registered flow::Datapath tree under
 * @p dp (e.g. "tb.tflow"), into the rep's counts and probe shape.
 */
void
datapathCounts(const Flat &f, const std::string &dp, double ops,
               double simNs, Rep &rep)
{
    const double txns = get(f, dp + ".compute.issued");
    double frames = 0, replayed = 0, credit = 0, crossings = 0;
    for (auto it = f.lower_bound(dp);
         it != f.end() && it->first.compare(0, dp.size(), dp) == 0;
         ++it) {
        const auto &[k, v] = *it;
        if (endsWith(k, ".framesSent") && k.find(".tx") != k.npos)
            frames += v;
        else if (endsWith(k, ".replayedFrames"))
            replayed += v;
        else if (endsWith(k, ".creditStalls"))
            credit += v;
        else if (k.find(".xing.") != k.npos && endsWith(k, ".items"))
            crossings += v;
    }
    rep.counts["tflow.txns_per_op"] = ratio(txns, ops);
    rep.counts["tflow.frames_per_txn"] = ratio(frames, txns);
    rep.counts["tflow.replayed_frames"] = replayed;
    rep.counts["tflow.credit_stalls"] = credit;
    rep.counts["tflow.tag_stalls"] = get(f, dp + ".compute.tagStalls");
    rep.counts["tflow.rtt_p99_ns"] = get(f, dp + ".compute.rttNs.p99");
    rep.counts["opencapi.crossings_per_txn"] = ratio(crossings, txns);
    rep.counts["opencapi.c1.service_p99_ns"] =
        get(f, dp + ".c1.serviceNs.p99");
    rep.shape.txns = static_cast<std::uint64_t>(txns);
    // Little's law: mean round trip x arrival rate = mean in flight.
    rep.shape.mlp = std::max(
        1.0, ratio(get(f, dp + ".compute.rttNs.mean") * txns, simNs));
}

/** DRAM, cache, store and translation counts of a Testbed rig. */
void
nodeCounts(sys::Testbed &tb, const std::vector<std::uint64_t> &freeBefore,
           std::uint64_t streamingWrites, Rep &rep)
{
    sys::Node &host = tb.serverA();
    mem::Cache &cache = host.cache();
    const std::uint64_t accesses = cache.hits() + cache.misses();
    rep.counts["mem.cache.accesses"] = static_cast<double>(accesses);
    rep.counts["mem.cache.hit_ratio"] = cache.hitRatio();

    double dramAcc = 0, rowHits = 0, rowAll = 0, writes = 0;
    std::uint64_t pages = 0;
    for (sys::Node *n : {&tb.serverA(), &tb.serverB(), &tb.client()}) {
        mem::Dram &d = n->dram();
        dramAcc += static_cast<double>(d.reads() + d.writes());
        writes += static_cast<double>(d.writes());
        rowHits += static_cast<double>(d.rowHits());
        rowAll += static_cast<double>(d.rowHits() + d.rowMisses());
        pages += n->store().touchedPages();
    }
    rep.counts["mem.dram.accesses"] = dramAcc;
    rep.counts["mem.dram.row_hit_ratio"] = ratio(rowHits, rowAll);
    rep.counts["mem.store.pages"] = static_cast<double>(pages);

    // Each burst access is translated once, cached or streamed.
    const std::uint64_t xlat = accesses + streamingWrites;
    std::uint64_t faults = 0;
    os::MemoryManager &mm = host.mm();
    for (std::size_t n = 0; n < freeBefore.size(); ++n)
        faults += freeBefore[n] - mm.freePages(static_cast<os::NodeId>(n));
    rep.counts["os.xlat.calls"] = static_cast<double>(xlat);
    rep.counts["os.xlat.faults"] = static_cast<double>(faults);

    rep.shape.cache = cache.params();
    rep.shape.cacheAccesses = accesses;
    rep.shape.cacheHitRatio = cache.hitRatio();
    rep.shape.writeFrac = ratio(writes, dramAcc);
    rep.shape.storeLines = static_cast<std::uint64_t>(dramAcc);
    rep.shape.storePages = pages;
    rep.shape.xlatCalls = xlat;
    rep.shape.xlatFaults = faults;
    rep.failed += host.remoteErrors();
}

std::vector<std::uint64_t>
freePages(sys::Node &n)
{
    std::vector<std::uint64_t> out;
    for (std::size_t i = 0; i < n.topology().nodeCount(); ++i)
        out.push_back(n.mm().freePages(static_cast<os::NodeId>(i)));
    return out;
}

/** Event-kernel and stats counts shared by every workload. */
void
kernelCounts(const Flat &f, std::uint64_t events, std::uint64_t cancelled,
             std::uint64_t heapHighWater, std::uint64_t extraSamples,
             Rep &rep)
{
    rep.events = events;
    rep.counts["sim.events"] = static_cast<double>(events);
    rep.counts["sim.cancelled_frac"] =
        ratio(static_cast<double>(cancelled),
              static_cast<double>(events + cancelled));
    rep.counts["sim.heap_high_water"] = static_cast<double>(heapHighWater);
    rep.shape.events = events;
    rep.shape.heapDepth = heapHighWater;
    rep.shape.statSamples = sketchSamples(f) + extraSamples;
    rep.counts["stats.samples"] =
        static_cast<double>(rep.shape.statSamples);
}

// ------------------------- memcached_etc ---------------------------

// The repo's dominant cost: app-side zero-time work (LRU, host cache,
// translation) around low-MLP, mostly-read remote lines, so host-path
// and datapath optimisations both show here.

// The smoke sizing of tf_bench's fig08_memcached scenario, so the
// warm-up/request mix and the remote lines per op are the figure's:
// 24k cached items, keys over 1.5x that, 64 clients x 300 requests.
constexpr std::uint64_t kMcCacheItems = 24000;
constexpr std::uint64_t kMcRequestsPerThread = 300;

Rep
memcachedOnce(std::uint64_t seed, Spans &spans)
{
    Rep rep;
    bench::Bed bed;
    std::unique_ptr<apps::MemcachedBenchmark> app;
    apps::MemcachedParams mp;
    mp.cacheItems = kMcCacheItems;
    mp.keySpaceItems = kMcCacheItems * 3 / 2;
    mp.requestsPerThread = kMcRequestsPerThread;
    mp.seed = seed;
    std::vector<std::uint64_t> freeBefore;
    rep.host["system.compose_s"] =
        spans.timed(Track::Setup, "system.compose", [&] {
            bed = bench::makeBed(sys::Setup::BondingDisaggregated,
                                 512ULL << 20, 8ULL << 20, seed);
        });
    freeBefore = freePages(bed.testbed->serverA());
    rep.host["apps.construct_s"] =
        spans.timed(Track::Setup, "apps.construct", [&] {
            app = std::make_unique<apps::MemcachedBenchmark>(
                *bed.testbed, mp);
        });
    rep.setupS =
        rep.host["system.compose_s"] + rep.host["apps.construct_s"];
    apps::MemcachedResult r;
    rep.runS = spans.timed(Track::Run, "memcached.run",
                           [&] { r = app->run(); });

    const std::uint64_t warm = mp.cacheItems + mp.cacheItems / 4;
    const std::uint64_t target =
        static_cast<std::uint64_t>(mp.clientThreads) *
        mp.requestsPerThread;
    const std::uint64_t served =
        r.getLatencyUs.count() + r.setLatencyUs.count();
    rep.attempted = warm + target;
    rep.failed = target - std::min(target, served);

    sim::StatsRegistry reg;
    bed.testbed->registerStats(reg, "tb");
    bed.eq->attachStats(reg.at("eq"));
    const Flat f = flatten(reg);
    sim::EventQueue &eq = *bed.eq;
    rep.simTicks = eq.now();
    kernelCounts(f, eq.executed(), eq.cancelled(), eq.heapHighWater(),
                 served, rep);
    nodeCounts(*bed.testbed, freeBefore, 0, rep);
    datapathCounts(f, "tb.tflow", static_cast<double>(rep.attempted),
                   static_cast<double>(rep.simTicks) / 1e3, rep);
    rep.shape.bonded = true;
    // A remote txn issued but never completed was lost.
    rep.failed += static_cast<std::uint64_t>(
        get(f, "tb.tflow.compute.issued") -
        get(f, "tb.tflow.compute.completed"));

    rep.shape.ethMsgs =
        static_cast<std::uint64_t>(sum(f, "tb.net.", ".messages"));
    rep.shape.ethBytes =
        static_cast<std::uint64_t>(sum(f, "tb.net.", ".bytes"));
    rep.counts["net.eth.messages"] =
        static_cast<double>(rep.shape.ethMsgs);

    rep.counts["apps.requests"] = static_cast<double>(served + warm);
    rep.counts["apps.hit_ratio"] = r.hitRatio;
    rep.model["model.sim_s"] = sim::toSec(eq.now());
    rep.model["model.get_p99_us"] = r.getLatencyUs.quantile(0.99);
    rep.model["model.get_p50_us"] = r.getLatencyUs.quantile(0.50);
    rep.model["model.hit_ratio"] = r.hitRatio;
    return rep;
}

// -------------------------- stream_triad ---------------------------

// The same datapath used differently: bandwidth-bound at high MLP with
// one payload-carrying write per two reads and almost no app work, so
// a gain for reads that costs writes shows.

Rep
streamOnce(std::uint64_t seed, Spans &spans)
{
    // The seed sets the array length: 8 MiB per array (2x the LLC)
    // plus up to 256 KiB more, in whole lines per thread.
    sim::Rng rng(seed);
    apps::StreamParams sp;
    sp.threads = 8;
    sp.iterations = 1;
    sp.elements = (1ULL << 20) + 128 * rng.below(256);

    Rep rep;
    bench::Bed bed;
    std::unique_ptr<apps::StreamBenchmark> app;
    std::vector<std::uint64_t> freeBefore;
    rep.host["system.compose_s"] =
        spans.timed(Track::Setup, "system.compose", [&] {
            bed = bench::makeBed(sys::Setup::BondingDisaggregated,
                                 256ULL << 20, 4ULL << 20, seed);
        });
    freeBefore = freePages(bed.testbed->serverA());
    rep.host["apps.construct_s"] =
        spans.timed(Track::Setup, "apps.construct", [&] {
            app = std::make_unique<apps::StreamBenchmark>(*bed.testbed,
                                                          sp);
        });
    rep.setupS =
        rep.host["system.compose_s"] + rep.host["apps.construct_s"];
    apps::StreamResult r;
    rep.runS = spans.timed(Track::Run, "stream.run", [&] {
        r = app->run(apps::StreamKernel::Triad);
    });

    // Triad reads b and c and stream-writes a, one line at a time.
    const std::uint64_t linesPerArray =
        sp.elements * 8 / mem::cachelineBytes /
        static_cast<std::uint64_t>(sp.threads) *
        static_cast<std::uint64_t>(sp.threads);
    const std::uint64_t writes =
        linesPerArray * static_cast<std::uint64_t>(sp.iterations);
    rep.attempted = 3 * writes;

    sim::StatsRegistry reg;
    bed.testbed->registerStats(reg, "tb");
    const Flat f = flatten(reg);
    sim::EventQueue &eq = *bed.eq;
    rep.simTicks = eq.now();
    kernelCounts(f, eq.executed(), eq.cancelled(), eq.heapHighWater(), 0,
                 rep);
    nodeCounts(*bed.testbed, freeBefore, writes, rep);
    datapathCounts(f, "tb.tflow", static_cast<double>(rep.attempted),
                   static_cast<double>(rep.simTicks) / 1e3, rep);
    rep.shape.bonded = true;
    // A line that never reached the datapath was lost.
    const double moved = get(f, "tb.tflow.compute.completed");
    if (moved < static_cast<double>(rep.attempted))
        rep.failed += rep.attempted - static_cast<std::uint64_t>(moved);

    rep.model["model.sim_s"] = sim::toSec(eq.now());
    rep.model["model.gibs"] = r.bestGiBs;
    rep.model["model.rtt_p99_ns"] =
        get(f, "tb.tflow.compute.rttNs.p99");
    return rep;
}

// -------------------------- rack_replay ----------------------------

// The only workload dominated by parallel-engine windows, barriers and
// merges.

// 8 racks on one worker: the engine still runs every window and merge
// (their counts do not depend on the worker count), but no barrier
// waits on a core a neighbour is slowing. At 2 workers the run was
// slower than this and its ops/s spread 14-37% over 10 seeds.
constexpr std::size_t kRacks = 8;
constexpr unsigned kRackWorkers = 1;
constexpr std::uint64_t kRackJobs = 12000;

Rep
rackOnce(std::uint64_t seed, Spans &spans)
{
    Rep rep;
    sys::RackParams rp;
    rp.racks = kRacks;
    std::vector<std::vector<tf::dc::Job>> shards;
    rep.host["dc.trace_s"] = spans.timed(Track::Setup, "dc.trace", [&] {
        tf::dc::TraceParams tp;
        tp.jobs = kRackJobs;
        tp.meanInterarrival = sim::microseconds(25);
        tf::dc::TraceGenerator gen(tp, seed);
        shards = tf::dc::shardTrace(gen.generate(), rp.racks);
    });
    auto engine = std::make_unique<sim::par::ParallelEngine>(kRackWorkers);
    std::unique_ptr<sys::RackCluster> cluster;
    rep.host["system.compose_s"] =
        spans.timed(Track::Setup, "system.compose", [&] {
            cluster = std::make_unique<sys::RackCluster>(
                "rack", *engine, shards, rp, seed);
        });
    rep.setupS = rep.host["dc.trace_s"] + rep.host["system.compose_s"];
    rep.runS = spans.timed(Track::Run, "engine.run", [&] { engine->run(); });

    rep.attempted = kRackJobs * static_cast<std::uint64_t>(rp.opsPerJob);
    const std::uint64_t done = cluster->opsCompleted();
    rep.failed = rep.attempted - std::min(rep.attempted, done);

    sim::StatsRegistry reg;
    cluster->registerStats(reg, "sys");
    engine->attachStats(reg, "sim.par", /*wallClock=*/true);
    const Flat f = flatten(reg);

    std::uint64_t cancelled = 0, high = 0, barrierNs = 0, active = 0;
    Tick end = 0;
    for (std::size_t i = 0; i < engine->lpCount(); ++i) {
        sim::par::LogicalProcess &lp = engine->lp(i);
        cancelled += lp.queue().cancelled();
        high = std::max(high, lp.queue().heapHighWater());
        barrierNs += lp.barrierWaitNs();
        active += lp.activeWindows();
        end = std::max(end, lp.queue().now());
    }
    rep.simTicks = end;
    kernelCounts(f, engine->executed(), cancelled, high, 0, rep);
    rep.counts["par.windows"] = static_cast<double>(engine->windows());
    rep.counts["par.events_per_lp_window"] =
        ratio(static_cast<double>(engine->executed()),
              static_cast<double>(active));
    rep.counts["par.merged_msgs"] = static_cast<double>(engine->merged());
    // Each LP's counter holds its owning worker's barrier wait; the
    // mean over LPs, against the run's wall time, is the share of a
    // worker's time spent waiting.
    rep.host["par.barrier_wait_frac"] =
        ratio(static_cast<double>(barrierNs) /
                  static_cast<double>(engine->lpCount()) / 1e9,
              rep.runS);

    // Every load is one datapath txn on the rack's own section.
    rep.counts["tflow.txns_per_op"] = 1.0;
    rep.shape.txns = done;
    rep.shape.mlp = 1;
    rep.shape.bonded = false;

    rep.shape.ethMsgs =
        static_cast<std::uint64_t>(sum(f, "sys.net.", ".messages"));
    rep.shape.ethBytes =
        static_cast<std::uint64_t>(sum(f, "sys.net.", ".bytes"));
    rep.shape.eth = rp.interRack;
    rep.counts["net.eth.messages"] =
        static_cast<double>(rep.shape.ethMsgs);

    rep.model["model.sim_s"] = sim::toSec(end);
    rep.model["model.cross_rack_ops"] =
        static_cast<double>(cluster->crossRackOps());
    rep.model["model.ops"] = static_cast<double>(done);
    return rep;
}

// --------------------------- fabric_rpc ----------------------------

// The only workload for topo parse/validate/build, net::Fabric and the
// timeline/SLO monitors; with no ThymesisFlow datapath, datapath, mem
// and os changes should leave it flat.

/**
 * Seed-drawn variation on the template: response sizes and the
 * aggressor's start move, so a second seed reaches the fabric's
 * queues with different inputs.
 */
void
perturb(tf::topo::Spec &spec, std::uint64_t seed)
{
    sim::Rng rng(seed);
    for (tf::topo::TrafficSpec &t : spec.traffic) {
        const std::uint64_t step = std::max<std::uint64_t>(
            64, t.responseBytes / 64);
        t.responseBytes += step * rng.below(9) - step * 4;
        if (t.name == "aggressor")
            t.startUs += static_cast<double>(rng.below(201)) - 100.0;
    }
}

Rep
fabricOnce(std::uint64_t seed, Spans &spans)
{
    Rep rep;
    tf::topo::Spec spec;
    rep.host["topo.parse_s"] = spans.timed(Track::Setup, "topo.parse",
        [&] { spec = tf::topo::loadSpecFile(gFabricSpecPath); });
    perturb(spec, seed);
    std::unique_ptr<tf::topo::Instance> inst;
    rep.host["topo.build_s"] = spans.timed(Track::Setup, "topo.build",
        [&] {
            tf::topo::BuildOptions opt;
            opt.seed = seed;
            opt.jobs = 1;
            inst = std::make_unique<tf::topo::Instance>(spec, opt);
        });
    rep.setupS = rep.host["topo.parse_s"] + rep.host["topo.build_s"];
    rep.runS = spans.timed(Track::Run, "instance.run", [&] { inst->run(); });

    std::uint64_t done = 0, sketchAdds = 0;
    double bytes = 0;
    for (std::size_t i = 0; i < inst->trafficCount(); ++i) {
        const auto &t = inst->traffic(i);
        rep.attempted += t.target;
        done += t.completed.value();
        sketchAdds += 2 * t.completed.value(); // latUs + latSketch
        const tf::topo::TrafficSpec &ts = spec.traffic[i];
        bytes += static_cast<double>(t.completed.value()) *
                 static_cast<double>(ts.requestBytes + ts.responseBytes);
        if (t.name == "victim_contended")
            rep.model["model.rpc_p99_us"] = t.latUs.quantile(0.99);
        if (t.name == "victim_quiet")
            rep.model["model.quiet_p99_us"] = t.latUs.quantile(0.99);
    }
    rep.failed = rep.attempted - std::min(rep.attempted, done);

    sim::StatsRegistry reg;
    inst->registerStats(reg);
    const Flat f = flatten(reg);
    std::uint64_t events = 0, cancelled = 0, high = 0, active = 0;
    for (std::size_t i = 0; i < inst->lpCount(); ++i) {
        sim::EventQueue &q = inst->lp(i).queue();
        events += q.executed();
        cancelled += q.cancelled();
        high = std::max(high, q.heapHighWater());
        active += inst->lp(i).activeWindows();
    }
    rep.simTicks = inst->lastCompletion();
    kernelCounts(f, events, cancelled, high, sketchAdds, rep);
    rep.counts["par.windows"] = get(f, "sim.par.windows");
    rep.counts["par.events_per_lp_window"] =
        ratio(static_cast<double>(events), static_cast<double>(active));
    rep.counts["par.merged_msgs"] = get(f, "sim.par.merged");

    // One fabric send per request and one per response.
    rep.shape.fabricMsgs = 2 * done;
    rep.shape.fabricBytes = static_cast<std::uint64_t>(bytes);
    rep.counts["net.fabric.messages"] =
        static_cast<double>(rep.shape.fabricMsgs);
    rep.counts["net.fabric.queue_max_ns"] = inst->fabric().maxQueueDelayNs();

    double violations = 0;
    for (const auto &s : inst->sloResults())
        violations += static_cast<double>(s.violations);
    rep.model["model.sim_s"] = sim::toSec(rep.simTicks);
    rep.model["model.slo_violations"] = violations;
    rep.model["model.relayed_msgs"] =
        static_cast<double>(inst->fabric().relayedMessages());
    return rep;
}

} // namespace

bool
Rep::sameSimulation(const Rep &o) const
{
    return attempted == o.attempted && failed == o.failed &&
           events == o.events && simTicks == o.simTicks &&
           model == o.model && counts == o.counts;
}

void
setFabricSpecPath(std::string path)
{
    gFabricSpecPath = std::move(path);
}

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> all = {
        {"memcached_etc", memcachedOnce},
        {"stream_triad", streamOnce},
        {"rack_replay", rackOnce},
        {"fabric_rpc", fabricOnce},
    };
    return all;
}

} // namespace perfbench
