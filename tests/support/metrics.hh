/**
 * @file
 * Reads counters, gauges and histograms back the way a consumer of the metrics
 * sink does: from MetricsRegistry::writeJson, parsed with
 * obs::parseJson.
 */

#ifndef MFLSTM_TESTS_SUPPORT_METRICS_HH
#define MFLSTM_TESTS_SUPPORT_METRICS_HH

#include <optional>
#include <string>

#include "obs/metrics.hh"

namespace mflstm {
namespace test {

/**
 * Value of counter series @p series in @p reg's JSON dump, or nullopt
 * when the dump has no such series. @p series is the dump's key: the
 * bare name, or name{k="v",...} with the labels sorted by name.
 */
std::optional<double> dumpedCounter(const obs::MetricsRegistry &reg,
                                    const std::string &series);

/** As dumpedCounter, for a gauge series. */
std::optional<double> dumpedGauge(const obs::MetricsRegistry &reg,
                                  const std::string &series);

/** As dumpedCounter, for a histogram series (count, sum, min, max). */
std::optional<obs::Histogram::Snapshot>
dumpedHistogram(const obs::MetricsRegistry &reg,
                const std::string &series);

} // namespace test
} // namespace mflstm

#endif // MFLSTM_TESTS_SUPPORT_METRICS_HH
