#include "support/metrics.hh"

#include <sstream>
#include <stdexcept>

#include "obs/json.hh"

namespace mflstm {
namespace test {

namespace {

std::optional<double>
dumped(const obs::MetricsRegistry &reg, const char *section,
       const std::string &series)
{
    std::ostringstream os;
    reg.writeJson(os);
    const std::optional<obs::JsonValue> doc = obs::parseJson(os.str());
    if (!doc)
        throw std::runtime_error("metrics dump is not valid JSON");
    const obs::JsonValue *group = doc->find(section);
    const obs::JsonValue *value = group ? group->find(series) : nullptr;
    if (!value)
        return std::nullopt;
    return value->number;
}

} // anonymous namespace

std::optional<double>
dumpedCounter(const obs::MetricsRegistry &reg, const std::string &series)
{
    return dumped(reg, "counters", series);
}

std::optional<double>
dumpedGauge(const obs::MetricsRegistry &reg, const std::string &series)
{
    return dumped(reg, "gauges", series);
}

} // namespace test
} // namespace mflstm
