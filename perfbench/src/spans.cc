#include "spans.hh"

#include <fstream>

#include "sim/json.hh"

namespace perfbench {

namespace {

const char *
trackName(Track t)
{
    switch (t) {
      case Track::Setup:
        return "setup";
      case Track::Run:
        return "run";
      case Track::Probe:
        return "probe";
    }
    return "?";
}

void
metaEvent(tf::sim::JsonWriter &w, const char *what, int tid,
          const std::string &name)
{
    w.beginObject();
    w.field("ph", "M");
    w.field("name", what);
    w.field("pid", 1);
    w.field("tid", tid);
    w.name("args");
    w.beginObject();
    w.field("name", name);
    w.endObject();
    w.endObject();
}

} // namespace

bool
Spans::writeJson(const std::string &path, const std::string &process,
                 const std::map<std::string, double> &summary) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    tf::sim::JsonWriter w(os, /*pretty=*/false);
    w.beginObject();
    w.field("displayTimeUnit", "ns");
    w.name("otherData");
    w.beginObject();
    for (const auto &[k, v] : summary)
        w.field(k, v);
    w.endObject();
    w.name("traceEvents");
    w.beginArray();
    metaEvent(w, "process_name", 0, process);
    for (Track t : {Track::Setup, Track::Run, Track::Probe})
        metaEvent(w, "thread_name", static_cast<int>(t), trackName(t));
    for (const Span &s : _spans) {
        w.beginObject();
        w.field("ph", "X");
        w.field("cat", trackName(s.track));
        w.field("name", s.name);
        w.field("pid", 1);
        w.field("tid", static_cast<int>(s.track));
        // Trace-event timestamps are microseconds.
        w.field("ts", static_cast<double>(s.startNs) / 1e3);
        w.field("dur", static_cast<double>(s.endNs - s.startNs) / 1e3);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << "\n";
    return static_cast<bool>(os);
}

} // namespace perfbench
