#include "orchestrate/journal.hh"

#include <cinttypes>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "base/parse.hh"

namespace mitts::orchestrate
{

Journal::Journal(std::string path) : path_(std::move(path))
{
    // Recover whatever the previous run managed to complete. The
    // file is read as raw text: every well-formed, newline-
    // terminated `done <idx> <key-hex>` line counts; the first
    // malformed or unterminated line ends recovery (a torn tail
    // cannot be followed by trustworthy data).
    std::ifstream in(path_);
    if (in) {
        std::string line;
        while (std::getline(in, line)) {
            if (in.eof() && !line.empty())
                break; // unterminated tail: torn append
            std::istringstream ls(line);
            std::string tag, idx_s, key_s, extra;
            if (!(ls >> tag >> idx_s >> key_s) || tag != "done" ||
                (ls >> extra))
                break;
            try {
                entries_.push_back({parse::u64(path_, idx_s),
                                    parse::hex64(path_, key_s)});
            } catch (const ParseError &) {
                break;
            }
        }
    }

    out_ = std::fopen(path_.c_str(), "a");
    if (!out_)
        throw std::runtime_error("cannot open journal " + path_);
}

Journal::~Journal()
{
    if (out_)
        std::fclose(out_);
}

void
Journal::append(std::uint64_t index, std::uint64_t key)
{
    std::fprintf(out_, "done %" PRIu64 " %016" PRIx64 "\n", index,
                 key);
    if (std::fflush(out_) != 0)
        throw std::runtime_error("journal flush failed: " + path_);
}

} // namespace mitts::orchestrate
