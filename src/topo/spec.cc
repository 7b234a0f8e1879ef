#include "topo/spec.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <deque>
#include <fstream>
#include <initializer_list>
#include <iomanip>
#include <map>
#include <set>
#include <sstream>

#include "system/node.hh"

namespace tf::topo {

const NodeSpec *
Spec::node(const std::string &name) const
{
    for (const NodeSpec &n : nodes)
        if (n.name == name)
            return &n;
    return nullptr;
}

namespace {

using json::Value;

[[noreturn]] void
fail(const Value &v, const std::string &msg)
{
    throw SpecError(v.where() + ": " + msg);
}

/** Reject typo'd keys: every stanza lists what it accepts. */
void
checkKeys(const Value &obj,
          std::initializer_list<const char *> allowed)
{
    for (const auto &kv : obj.members()) {
        bool ok = false;
        for (const char *k : allowed)
            if (kv.first == k)
                ok = true;
        if (!ok)
            fail(kv.second, "unknown key \"" + kv.first + "\"");
    }
}

const Value &
require(const Value &obj, const std::string &key)
{
    const Value *v = obj.find(key);
    if (v == nullptr)
        fail(obj, "missing required key \"" + key + "\"");
    return *v;
}

std::string
str(const Value &v, const std::string &what)
{
    if (!v.isString())
        fail(v, what + " must be a string");
    return v.str();
}

double
num(const Value &v, const std::string &what)
{
    if (!v.isNumber())
        fail(v, what + " must be a number");
    return v.number();
}

double
numOr(const Value &obj, const std::string &key, double dflt)
{
    const Value *v = obj.find(key);
    return v == nullptr ? dflt : num(*v, "\"" + key + "\"");
}

std::uint64_t
uintOr(const Value &obj, const std::string &key, std::uint64_t dflt)
{
    const Value *v = obj.find(key);
    if (v == nullptr)
        return dflt;
    double n = num(*v, "\"" + key + "\"");
    if (n < 0 || n != std::floor(n))
        fail(*v, "\"" + key + "\" must be a non-negative integer");
    if (n >= 0x1p64)
        fail(*v, "\"" + key + "\" does not fit 64 bits");
    return static_cast<std::uint64_t>(n);
}

/**
 * Network timing becomes picosecond Ticks (uint64, about 213 days).
 * Reject @p n outside [@p lo, @p hi] at the key's position so every
 * conversion is representable and no link latency truncates to zero.
 */
void
checkRange(const Value &obj, const std::string &key, double n,
           double lo, double hi, const std::string &what)
{
    if (n >= lo && n <= hi)
        return;
    std::ostringstream msg;
    msg << std::setprecision(15) << what << " " << key << " " << n
        << " is outside [" << lo << ", " << hi << "]";
    const Value *v = obj.find(key);
    fail(v != nullptr ? *v : obj, msg.str());
}

/**
 * uintOr() for a key narrowed to 32 bits: the 64-bit value is
 * range-checked first, so nothing wraps into range.
 */
std::uint32_t
uint32In(const Value &obj, const std::string &key, std::uint32_t dflt,
         std::uint32_t lo, std::uint32_t hi, const std::string &what)
{
    std::uint64_t n = uintOr(obj, key, dflt);
    checkRange(obj, key, static_cast<double>(n), lo, hi, what);
    return static_cast<std::uint32_t>(n);
}

/** Every node boots with the default sys::NodeParams memory. A
 * donor lends at most all of it; a page cache's frames come out of
 * the host's pages, and one fill streams at most a page's lines. */
const sys::NodeParams kNode;
const std::uint64_t kBootBytes = kNode.bootSections * kNode.sectionBytes;
const std::uint64_t kDonorMiB = kBootBytes >> 20;
const auto kHostPages =
    static_cast<std::uint32_t>(kBootBytes / kNode.pageBytes);
const auto kLinesPerPage =
    static_cast<std::uint32_t>(kNode.pageBytes / mem::cachelineBytes);
/** Far above real DRAM controllers (16-32 banks) and switches. */
constexpr std::uint32_t kMaxBanks = 1024;
constexpr std::uint32_t kMaxRadix = 4096;
/** Ops one traffic stanza keeps in flight. */
constexpr std::uint32_t kMaxWindow = 65536;
constexpr std::uint32_t kMaxUint32 = 0xffffffffU;

/** Link rate bounds, Gb/s: at 1 Mb/s a 1 TiB message still
 * serialises within the Tick range. */
constexpr double kMinGbps = 1e-3;
constexpr double kMaxGbps = 1e6;
/** Link latency and switch crossing bounds, ns: one tick (1 ps) up
 * to 1000 s. */
constexpr double kMinLatencyNs = 1e-3;
constexpr double kMaxTimingNs = 1e12;
/** Schedule bounds (traffic start, fault and monitor windows,
 * timeline width), us: up to the same 1000 s. */
constexpr double kMaxTimingUs = kMaxTimingNs / 1e3;
/** A timeline window is at least 1 ns, so it spans whole ticks. */
constexpr double kMinTimelineUs = 1e-3;
/** RPC message bounds: one message's DRAM read buffer stays small,
 * and even at the 1 Mb/s rate floor it serialises within the Tick
 * range. */
constexpr double kMaxMessageBytes = 16.0 * 1024 * 1024;
/** A memory op is one OpenCAPI transaction: at most 256 B, so it
 * fits one LLC frame. */
constexpr double kMaxAccessBytes = 256;

bool
boolOr(const Value &obj, const std::string &key, bool dflt)
{
    const Value *v = obj.find(key);
    if (v == nullptr)
        return dflt;
    if (!v->isBool())
        fail(*v, "\"" + key + "\" must be true or false");
    return v->boolean();
}

std::string
strOr(const Value &obj, const std::string &key,
      const std::string &dflt)
{
    const Value *v = obj.find(key);
    return v == nullptr ? dflt : str(*v, "\"" + key + "\"");
}

/** Element names become stat paths and LP names: keep them tame. */
void
checkIdent(const Value &v, const std::string &name,
           const std::string &what)
{
    if (name.empty())
        fail(v, what + " name must not be empty");
    for (char c : name) {
        bool ok = std::isalnum(static_cast<unsigned char>(c)) ||
                  c == '_' || c == '-';
        if (!ok)
            fail(v, what + " name \"" + name +
                        "\" may only contain [A-Za-z0-9_-]");
    }
}

const Value &
arrayOf(const Value &root, const std::string &key, bool required)
{
    static const Value empty =
        Value::makeArray({}, std::string("<builtin>"));
    const Value *v = root.find(key);
    if (v == nullptr) {
        if (required)
            fail(root, "missing required key \"" + key + "\"");
        return empty;
    }
    if (!v->isArray())
        fail(*v, "\"" + key + "\" must be an array");
    return *v;
}

DramSpec
parseDram(const Value &v)
{
    if (!v.isObject())
        fail(v, "\"dram\" must be an object");
    checkKeys(v, {"accessNs", "gbps", "banks"});
    DramSpec d;
    d.accessNs = numOr(v, "accessNs", d.accessNs);
    d.gbps = numOr(v, "gbps", d.gbps);
    d.banks = uint32In(v, "banks", d.banks, 1, kMaxBanks, "dram");
    if (d.accessNs <= 0)
        fail(v, "dram accessNs must be positive");
    if (d.gbps <= 0)
        fail(v, "dram gbps must be positive");
    return d;
}

PageCacheSpec
parseCache(const Value &v)
{
    if (!v.isObject())
        fail(v, "\"cache\" must be an object");
    checkKeys(v, {"enabled", "frameBudget", "lineMlp", "lowWatermark",
                  "highWatermark"});
    PageCacheSpec c;
    c.enabled = boolOr(v, "enabled", true);
    c.frameBudget = uint32In(v, "frameBudget", c.frameBudget, 2,
                             kHostPages, "cache");
    c.lineMlp = uint32In(v, "lineMlp", c.lineMlp, 1, kLinesPerPage,
                         "cache");
    c.lowWatermark = uint32In(v, "lowWatermark", c.lowWatermark, 0,
                              c.frameBudget, "cache");
    c.highWatermark = uint32In(v, "highWatermark", c.highWatermark, 0,
                               c.frameBudget, "cache");
    if (c.lowWatermark > c.highWatermark)
        fail(v, "cache lowWatermark must not exceed highWatermark");
    return c;
}

const std::set<std::string> kFaultKinds = {
    "channelFail", "channelFlap", "burstLoss",     "latencySpike",
    "dramStall",   "creditStarve", "controlOutage", "cachePoison",
};

} // namespace

Spec
parseSpec(const std::string &text, const std::string &origin)
{
    Value root = json::parse(text, origin);
    if (!root.isObject())
        fail(root, "topology file must be a JSON object");
    checkKeys(root, {"name", "nodes", "switches", "links", "traffic",
                     "faults", "monitors", "timelineUs"});

    Spec spec;
    spec.name = str(require(root, "name"), "\"name\"");
    checkIdent(require(root, "name"), spec.name, "topology");

    // --- nodes -------------------------------------------------------
    std::set<std::string> elementNames; // nodes + switches share it
    for (const Value &nv : arrayOf(root, "nodes", true).items()) {
        if (!nv.isObject())
            fail(nv, "node entry must be an object");
        checkKeys(nv, {"name", "role", "donor", "channels",
                       "donatedMiB", "dram", "cache"});
        NodeSpec n;
        n.name = str(require(nv, "name"), "node \"name\"");
        checkIdent(require(nv, "name"), n.name, "node");
        if (!elementNames.insert(n.name).second)
            fail(nv, "duplicate name \"" + n.name + "\"");
        n.role = strOr(nv, "role", n.role);
        if (n.role != "host" && n.role != "donor")
            fail(nv, "node \"" + n.name + "\" role must be \"host\" "
                     "or \"donor\", got \"" + n.role + "\"");
        n.donor = strOr(nv, "donor", "");
        if (!n.donor.empty() && n.role != "host")
            fail(nv, "node \"" + n.name +
                         "\": only hosts can claim a donor");
        n.channels = uint32In(nv, "channels", n.channels, 1, 8,
                              "node \"" + n.name + "\"");
        n.donatedMiB = uintOr(nv, "donatedMiB", n.donatedMiB);
        if (n.role == "donor")
            checkRange(nv, "donatedMiB",
                       static_cast<double>(n.donatedMiB), 1,
                       static_cast<double>(kDonorMiB),
                       "donor \"" + n.name + "\"");
        if (const Value *dv = nv.find("dram"))
            n.dram = parseDram(*dv);
        if (const Value *cv = nv.find("cache")) {
            n.cache = parseCache(*cv);
            if (n.cache.enabled && n.role != "host")
                fail(*cv, "node \"" + n.name +
                              "\": only hosts mount a page cache");
        }
        spec.nodes.push_back(std::move(n));
    }
    if (spec.nodes.empty())
        fail(root, "topology needs at least one node");

    // Donor references: must exist, be donor-role, claimed once.
    std::set<std::string> claimedDonors;
    for (const Value &nv : arrayOf(root, "nodes", true).items()) {
        const std::string name = str(require(nv, "name"), "name");
        const NodeSpec &n = *spec.node(name);
        if (n.donor.empty())
            continue;
        const NodeSpec *donor = spec.node(n.donor);
        if (donor == nullptr)
            fail(nv, "node \"" + n.name +
                         "\" references unknown node \"" + n.donor +
                         "\"");
        if (donor->role != "donor")
            fail(nv, "node \"" + n.name + "\" claims \"" + n.donor +
                         "\", whose role is \"" + donor->role +
                         "\", not \"donor\"");
        if (!claimedDonors.insert(n.donor).second)
            fail(nv, "donor \"" + n.donor +
                         "\" is claimed by more than one host");
    }

    // --- switches ----------------------------------------------------
    for (const Value &sv : arrayOf(root, "switches", false).items()) {
        if (!sv.isObject())
            fail(sv, "switch entry must be an object");
        checkKeys(sv, {"name", "crossingNs", "radix"});
        SwitchSpec s;
        s.name = str(require(sv, "name"), "switch \"name\"");
        checkIdent(require(sv, "name"), s.name, "switch");
        if (!elementNames.insert(s.name).second)
            fail(sv, "duplicate name \"" + s.name + "\"");
        s.crossingNs = numOr(sv, "crossingNs", s.crossingNs);
        checkRange(sv, "crossingNs", s.crossingNs, 0, kMaxTimingNs,
                   "switch \"" + s.name + "\"");
        s.radix = uint32In(sv, "radix", s.radix, 2, kMaxRadix,
                           "switch \"" + s.name + "\"");
        spec.switches.push_back(std::move(s));
    }

    // --- links -------------------------------------------------------
    std::set<std::string> linkPairs;
    std::map<std::string, std::uint32_t> ports;
    for (const Value &lv : arrayOf(root, "links", false).items()) {
        if (!lv.isObject())
            fail(lv, "link entry must be an object");
        checkKeys(lv, {"a", "b", "gbps", "latencyNs"});
        LinkSpec l;
        l.a = str(require(lv, "a"), "link \"a\"");
        l.b = str(require(lv, "b"), "link \"b\"");
        for (const std::string &end : {l.a, l.b})
            if (elementNames.count(end) == 0)
                fail(lv, "link references unknown node \"" + end +
                             "\"");
        if (l.a == l.b)
            fail(lv, "link endpoints must differ (self-link on \"" +
                         l.a + "\")");
        std::string key = std::min(l.a, l.b) + "<->" +
                          std::max(l.a, l.b);
        if (!linkPairs.insert(key).second)
            fail(lv, "duplicate link " + key);
        l.gbps = numOr(lv, "gbps", l.gbps);
        checkRange(lv, "gbps", l.gbps, kMinGbps, kMaxGbps,
                   "link " + key);
        l.latencyNs = numOr(lv, "latencyNs", l.latencyNs);
        if (l.latencyNs <= 0)
            fail(lv, "link " + key +
                         " latencyNs must be positive — zero-latency "
                         "links break the parallel engine's "
                         "conservative lookahead");
        checkRange(lv, "latencyNs", l.latencyNs, kMinLatencyNs,
                   kMaxTimingNs, "link " + key);
        ports[l.a]++;
        ports[l.b]++;
        spec.links.push_back(std::move(l));
    }
    for (const SwitchSpec &s : spec.switches) {
        auto it = ports.find(s.name);
        std::uint32_t used = it == ports.end() ? 0 : it->second;
        if (used > s.radix)
            fail(root, "switch \"" + s.name + "\" has " +
                           std::to_string(used) +
                           " links but radix " +
                           std::to_string(s.radix));
    }

    // Reachability over the undirected element graph, for traffic
    // validation below.
    std::map<std::string, std::vector<std::string>> adj;
    for (const LinkSpec &l : spec.links) {
        adj[l.a].push_back(l.b);
        adj[l.b].push_back(l.a);
    }
    auto reachable = [&adj](const std::string &from,
                            const std::string &to) {
        std::set<std::string> seen{from};
        std::deque<std::string> frontier{from};
        while (!frontier.empty()) {
            std::string cur = frontier.front();
            frontier.pop_front();
            if (cur == to)
                return true;
            auto it = adj.find(cur);
            if (it == adj.end())
                continue;
            for (const std::string &nb : it->second)
                if (seen.insert(nb).second)
                    frontier.push_back(nb);
        }
        return false;
    };

    // --- traffic -----------------------------------------------------
    std::set<std::string> trafficNames;
    for (const Value &tv : arrayOf(root, "traffic", false).items()) {
        if (!tv.isObject())
            fail(tv, "traffic entry must be an object");
        checkKeys(tv, {"name", "kind", "src", "dst", "requestBytes",
                       "responseBytes", "accessBytes", "policy",
                       "window", "ops", "smokeOps", "startUs"});
        TrafficSpec t;
        t.name = str(require(tv, "name"), "traffic \"name\"");
        checkIdent(require(tv, "name"), t.name, "traffic");
        if (!trafficNames.insert(t.name).second)
            fail(tv, "duplicate traffic name \"" + t.name + "\"");
        t.kind = strOr(tv, "kind", t.kind);
        if (t.kind != "rpc" && t.kind != "memory")
            fail(tv, "traffic \"" + t.name +
                         "\" kind must be \"rpc\" or \"memory\"");
        t.src = str(require(tv, "src"), "traffic \"src\"");
        if (spec.node(t.src) == nullptr)
            fail(tv, "traffic \"" + t.name +
                         "\" references unknown node \"" + t.src +
                         "\"");
        t.requestBytes = uintOr(tv, "requestBytes", t.requestBytes);
        t.responseBytes = uintOr(tv, "responseBytes", t.responseBytes);
        t.accessBytes = uintOr(tv, "accessBytes", t.accessBytes);
        const std::string what = "traffic \"" + t.name + "\"";
        t.window = uint32In(tv, "window", t.window, 1, kMaxWindow, what);
        t.ops = uintOr(tv, "ops", t.ops);
        t.smokeOps = uintOr(tv, "smokeOps", t.smokeOps);
        t.startUs = numOr(tv, "startUs", t.startUs);
        if (t.ops < 1)
            fail(tv, what + " ops must be >= 1");
        checkRange(tv, "startUs", t.startUs, 0, kMaxTimingUs, what);
        if (t.kind == "rpc") {
            t.dst = str(require(tv, "dst"), "traffic \"dst\"");
            if (spec.node(t.dst) == nullptr)
                fail(tv, "traffic \"" + t.name +
                             "\" references unknown node \"" + t.dst +
                             "\"");
            if (t.dst == t.src)
                fail(tv, "traffic \"" + t.name +
                             "\" src and dst must differ");
            checkRange(tv, "requestBytes",
                       static_cast<double>(t.requestBytes), 1,
                       kMaxMessageBytes, what);
            checkRange(tv, "responseBytes",
                       static_cast<double>(t.responseBytes), 1,
                       kMaxMessageBytes, what);
            if (!reachable(t.src, t.dst))
                fail(tv, "traffic \"" + t.name + "\": endpoint \"" +
                             t.dst + "\" is unreachable from \"" +
                             t.src + "\" over the declared links");
        } else {
            if (tv.find("dst") != nullptr)
                fail(tv, "traffic \"" + t.name +
                             "\": memory traffic has no \"dst\" — "
                             "the donated window is the target");
            t.policy = strOr(tv, "policy", t.policy);
            if (t.policy != "remote" && t.policy != "local" &&
                t.policy != "interleave")
                fail(tv, "traffic \"" + t.name +
                             "\" policy must be \"remote\", "
                             "\"local\", or \"interleave\"");
            checkRange(tv, "accessBytes",
                       static_cast<double>(t.accessBytes), 1,
                       kMaxAccessBytes, what);
            const NodeSpec &srcNode = *spec.node(t.src);
            if (srcNode.role != "host")
                fail(tv, "traffic \"" + t.name + "\" src \"" + t.src +
                             "\" must be a host");
            if (t.policy != "local" && srcNode.donor.empty())
                fail(tv, "traffic \"" + t.name + "\": host \"" +
                             t.src + "\" has no donor, so policy \"" +
                             t.policy + "\" has no remote window");
        }
        spec.traffic.push_back(std::move(t));
    }

    // --- faults ------------------------------------------------------
    for (const Value &fv : arrayOf(root, "faults", false).items()) {
        if (!fv.isObject())
            fail(fv, "fault entry must be an object");
        checkKeys(fv, {"kind", "point", "atUs", "forUs", "extraNs"});
        FaultSpec f;
        f.kind = str(require(fv, "kind"), "fault \"kind\"");
        if (kFaultKinds.count(f.kind) == 0) {
            std::string known;
            for (const std::string &k : kFaultKinds)
                known += (known.empty() ? "" : ", ") + k;
            fail(fv, "unknown fault kind \"" + f.kind +
                         "\" (known: " + known + ")");
        }
        f.point = str(require(fv, "point"), "fault \"point\"");
        f.atUs = numOr(fv, "atUs", f.atUs);
        f.forUs = numOr(fv, "forUs", f.forUs);
        f.extraNs = numOr(fv, "extraNs", f.extraNs);
        checkRange(fv, "atUs", f.atUs, 0, kMaxTimingUs, "fault");
        checkRange(fv, "forUs", f.forUs, 0, kMaxTimingUs, "fault");
        checkRange(fv, "extraNs", f.extraNs, 0, kMaxTimingNs, "fault");
        spec.faults.push_back(std::move(f));
    }

    // --- timeline + monitors -----------------------------------------
    spec.timelineUs = numOr(root, "timelineUs", spec.timelineUs);
    checkRange(root, "timelineUs", spec.timelineUs, kMinTimelineUs,
               kMaxTimingUs, "topology");
    std::set<std::string> monitorNames;
    for (const Value &mv : arrayOf(root, "monitors", false).items()) {
        if (!mv.isObject())
            fail(mv, "monitor entry must be an object");
        checkKeys(mv, {"name", "metric", "op", "threshold",
                       "forWindows", "fromUs", "untilUs", "dumpFlight"});
        MonitorSpec m;
        m.name = str(require(mv, "name"), "monitor \"name\"");
        checkIdent(require(mv, "name"), m.name, "monitor");
        if (!monitorNames.insert(m.name).second)
            fail(mv, "duplicate monitor name \"" + m.name + "\"");
        m.metric = str(require(mv, "metric"), "monitor \"metric\"");
        if (m.metric.empty())
            fail(mv, "monitor \"" + m.name +
                         "\" metric must not be empty");
        m.op = strOr(mv, "op", m.op);
        if (m.op != ">" && m.op != "<" && m.op != ">=" && m.op != "<=")
            fail(mv, "monitor \"" + m.name + "\" op must be one of "
                     "\">\", \"<\", \">=\", \"<=\", got \"" + m.op +
                         "\"");
        m.threshold = num(require(mv, "threshold"),
                          "monitor \"threshold\"");
        m.forWindows = uint32In(mv, "forWindows", m.forWindows, 1,
                                kMaxUint32,
                                "monitor \"" + m.name + "\"");
        m.fromUs = numOr(mv, "fromUs", m.fromUs);
        checkRange(mv, "fromUs", m.fromUs, 0, kMaxTimingUs,
                   "monitor \"" + m.name + "\"");
        m.untilUs = numOr(mv, "untilUs", m.untilUs);
        if (mv.find("untilUs") != nullptr) {
            if (m.untilUs <= m.fromUs)
                fail(mv, "monitor \"" + m.name +
                             "\" untilUs must exceed fromUs");
            checkRange(mv, "untilUs", m.untilUs, 0, kMaxTimingUs,
                       "monitor \"" + m.name + "\"");
        }
        m.dumpFlight = boolOr(mv, "dumpFlight", m.dumpFlight);
        m.where = mv.where();
        spec.monitors.push_back(std::move(m));
    }

    return spec;
}

Spec
loadSpecFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw SpecError(path + ": cannot open topology file");
    std::ostringstream buf;
    buf << in.rdbuf();
    return parseSpec(buf.str(), path);
}

} // namespace tf::topo
