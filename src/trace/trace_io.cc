#include "trace/trace_io.hh"

#include <fstream>

#include "base/logging.hh"
#include "base/parse.hh"

namespace mitts
{

namespace
{
constexpr const char *kHeader = "mitts-trace-v1";
} // namespace

void
saveTrace(const std::string &path, TraceSource &source,
          std::size_t num_ops)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot open trace file for writing: ", path);
    out << kHeader << "\n";
    for (std::size_t i = 0; i < num_ops; ++i) {
        const TraceOp op = source.next();
        out << op.gap << " " << (op.isWrite ? 1 : 0) << " "
            << (op.dependsOnPrev ? 1 : 0) << " " << op.addr << "\n";
    }
    if (!out)
        fatal("error while writing trace file: ", path);
}

std::vector<TraceOp>
loadTrace(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open trace file: ", path);
    std::string line;
    std::getline(in, line);
    if (line != kHeader)
        fatal("not a mitts trace file (bad header): ", path);

    std::vector<TraceOp> ops;
    try {
        for (unsigned lineno = 2; std::getline(in, line); ++lineno) {
            const std::string ctx = parse::at(path, lineno);
            const auto f = parse::list(ctx, line, ' ');
            if (f.size() != 4)
                parse::fail(ctx, "expected `gap is_write "
                                 "depends_on_prev addr`");
            ops.push_back({parse::uint<std::uint32_t>(ctx, f[0]),
                           parse::u64(ctx, f[1], 1) != 0,
                           parse::u64(ctx, f[2], 1) != 0,
                           parse::u64(ctx, f[3])});
        }
    } catch (const ParseError &e) {
        fatal(e.what());
    }
    if (ops.empty())
        fatal("trace file contains no operations: ", path);
    return ops;
}

} // namespace mitts
