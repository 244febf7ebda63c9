/**
 * @file
 * Result reporting: render simulation results as human-readable tables
 * or machine-readable CSV. Used by the CLI driver (tools/mflstm_cli)
 * and available to downstream users who want to post-process runs.
 */

#ifndef MFLSTM_RUNTIME_REPORT_HH
#define MFLSTM_RUNTIME_REPORT_HH

#include <iosfwd>
#include <string>

#include "gpu/simulator.hh"
#include "runtime/executor.hh"

namespace mflstm {
namespace runtime {

/** Multi-line human-readable summary of one run. */
std::string formatRunReport(const RunReport &report);

/**
 * Side-by-side comparison of an optimised run against a baseline
 * (time, speedup, energy components, traffic).
 */
std::string formatComparison(const RunReport &base, const RunReport &opt);

/**
 * Escape one CSV field (RFC 4180): fields containing commas, quotes or
 * newlines are quoted with internal quotes doubled. Labels and kernel
 * names are user-supplied (`--app`), so every text field goes through
 * this before joining a row.
 */
std::string csvEscape(const std::string &field);

/** CSV header matching writeRunCsvRow. */
std::string runCsvHeader();

/**
 * One CSV row for a run: plan, time, energy breakdown, traffic,
 * utilisations, kernel counts. @p label is the first column (app name
 * or scenario).
 */
std::string runCsvRow(const std::string &label, const RunReport &report);

/** Dump a kernel trace as CSV (one row per kernel launch). */
void writeTraceCsv(std::ostream &os, const gpu::KernelTrace &trace);

} // namespace runtime
} // namespace mflstm

#endif // MFLSTM_RUNTIME_REPORT_HH
