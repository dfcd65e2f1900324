#include "telemetry/trace_writer.hh"

#include <iomanip>

#include "base/logging.hh"
#include "base/stats_export.hh"

namespace mitts::telemetry
{

TraceEventWriter::TraceEventWriter(const Options &opts) : opts_(opts)
{
    MITTS_ASSERT(opts.cpuGhz > 0, "trace writer needs a clock rate");
    events_.reserve(std::min<std::size_t>(opts.maxEvents, 4096));
}

int
TraceEventWriter::track(const std::string &name)
{
    tracks_.push_back(name);
    return static_cast<int>(tracks_.size() - 1);
}

double
TraceEventWriter::usOf(Tick t) const
{
    // cycles -> us at cpuGhz GHz: 1 us == ghz * 1000 cycles.
    return static_cast<double>(t) / (opts_.cpuGhz * 1000.0);
}

void
TraceEventWriter::duration(int track, const char *category,
                           const char *name, Tick begin, Tick end)
{
    if (events_.size() >= opts_.maxEvents) {
        ++dropped_;
        return;
    }
    events_.push_back(Event{track, true, category, name, begin, end});
}

void
TraceEventWriter::instant(int track, const char *category,
                          const char *name, Tick at)
{
    if (events_.size() >= opts_.maxEvents) {
        ++dropped_;
        return;
    }
    events_.push_back(Event{track, false, category, name, at, at});
}

void
TraceEventWriter::write(std::ostream &os) const
{
    os << "{\"traceEvents\":[";
    bool first = true;
    for (std::size_t i = 0; i < tracks_.size(); ++i) {
        os << (first ? "" : ",")
           << "\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
              "\"tid\":" << i << ",\"args\":{\"name\":\""
           << stats::jsonEscape(tracks_[i]) << "\"}}";
        first = false;
    }
    const auto flags = os.flags();
    os << std::fixed << std::setprecision(4);
    for (const Event &e : events_) {
        os << (first ? "" : ",") << "\n{\"name\":\"" << e.name
           << "\",\"cat\":\"" << e.category << "\",\"ph\":\""
           << (e.isDuration ? "X" : "i") << "\",\"pid\":0,\"tid\":"
           << e.track << ",\"ts\":" << usOf(e.begin);
        if (e.isDuration)
            os << ",\"dur\":" << usOf(e.end - e.begin);
        else
            os << ",\"s\":\"t\"";
        os << "}";
        first = false;
    }
    os.flags(flags);
    os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

const char *
TraceEventWriter::intern(const std::string &s)
{
    return internPool_.insert(s).first->c_str();
}

void
TraceEventWriter::saveState(ckpt::Writer &w) const
{
    w.u64(tracks_.size());
    for (const auto &t : tracks_)
        w.str(t);
    w.u64(events_.size());
    for (const Event &e : events_) {
        w.i64(e.track);
        w.b(e.isDuration);
        w.str(e.category);
        w.str(e.name);
        w.u64(e.begin);
        w.u64(e.end);
    }
    w.u64(dropped_);
}

void
TraceEventWriter::loadState(ckpt::Reader &r)
{
    // Tracks were re-registered by the rebuilt components; the saved
    // list must match so buffered event track ids stay valid.
    const std::uint64_t ntracks = r.u64();
    if (ntracks != tracks_.size())
        throw ckpt::Error("trace writer track count mismatch");
    for (auto &t : tracks_) {
        if (r.str() != t)
            throw ckpt::Error("trace writer track name mismatch");
    }
    events_.clear();
    const std::uint64_t nevents = r.u64();
    for (std::uint64_t i = 0; i < nevents; ++i) {
        Event e;
        e.track = static_cast<int>(r.i64());
        e.isDuration = r.b();
        e.category = intern(r.str());
        e.name = intern(r.str());
        e.begin = r.u64();
        e.end = r.u64();
        events_.push_back(e);
    }
    dropped_ = static_cast<std::size_t>(r.u64());
}

} // namespace mitts::telemetry
