/**
 * @file
 * Machine-readable statistics export: JSON (one object per group)
 * and CSV (counter rows), for plotting and regression tooling on top
 * of the bench harness.
 */

#ifndef MITTS_BASE_STATS_EXPORT_HH
#define MITTS_BASE_STATS_EXPORT_HH

#include <ostream>
#include <string>
#include <vector>

#include "base/stats.hh"

namespace mitts::stats
{

/**
 * `s` as the body of a JSON string literal: `"` and `\` are
 * backslash-escaped and control characters become `\u00XX`; every
 * other byte (UTF-8 included) passes through.
 */
std::string jsonEscape(const std::string &s);

/** Write groups as a JSON object keyed by group name. */
void exportJson(std::ostream &os,
                const std::vector<const Group *> &groups);

/** Write counters as CSV rows: group,stat,value. */
void exportCsv(std::ostream &os,
               const std::vector<const Group *> &groups);

} // namespace mitts::stats

#endif // MITTS_BASE_STATS_EXPORT_HH
