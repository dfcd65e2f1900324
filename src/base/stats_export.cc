#include "base/stats_export.hh"

#include <iomanip>

namespace mitts::stats
{

std::string
jsonEscape(const std::string &s)
{
    static constexpr char kHex[] = "0123456789abcdef";
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        const auto u = static_cast<unsigned char>(c);
        if (c == '"' || c == '\\') {
            out.push_back('\\');
            out.push_back(c);
        } else if (u < 0x20) {
            out += "\\u00";
            out.push_back(kHex[u >> 4]);
            out.push_back(kHex[u & 0xf]);
        } else {
            out.push_back(c);
        }
    }
    return out;
}

void
exportJson(std::ostream &os, const std::vector<const Group *> &groups)
{
    os << "{";
    bool first_group = true;
    for (const Group *g : groups) {
        if (!first_group)
            os << ",";
        first_group = false;
        os << "\n  \"" << jsonEscape(g->name()) << "\": {";
        bool first = true;
        for (const auto &c : g->counters()) {
            os << (first ? "" : ",") << "\n    \""
               << jsonEscape(c->name()) << "\": " << c->value();
            first = false;
        }
        for (const auto &a : g->averages()) {
            os << (first ? "" : ",") << "\n    \""
               << jsonEscape(a->name()) << "\": {\"mean\": "
               << a->mean() << ", \"count\": " << a->count()
               << ", \"min\": " << a->min()
               << ", \"max\": " << a->max() << "}";
            first = false;
        }
        for (const auto &h : g->histograms()) {
            os << (first ? "" : ",") << "\n    \""
               << jsonEscape(h->name()) << "\": {\"total\": "
               << h->total() << ", \"mean\": " << h->mean()
               << ", \"p50\": " << h->percentile(0.50)
               << ", \"p95\": " << h->percentile(0.95)
               << ", \"p99\": " << h->percentile(0.99)
               << ", \"bin_width\": " << h->binWidth()
               << ", \"bins\": [";
            for (std::size_t i = 0; i < h->numBins(); ++i)
                os << (i ? ", " : "") << h->bin(i);
            os << "], \"overflow\": " << h->overflow() << "}";
            first = false;
        }
        os << "\n  }";
    }
    os << "\n}\n";
}

void
exportCsv(std::ostream &os, const std::vector<const Group *> &groups)
{
    os << "group,stat,value\n";
    for (const Group *g : groups) {
        for (const auto &c : g->counters())
            os << g->name() << "," << c->name() << "," << c->value()
               << "\n";
        for (const auto &a : g->averages())
            os << g->name() << "," << a->name() << "," << a->mean()
               << "\n";
    }
}

} // namespace mitts::stats
