#include "support/metrics.hh"

#include <sstream>
#include <stdexcept>

#include "obs/json.hh"

namespace mflstm {
namespace test {

namespace {

std::optional<obs::JsonValue>
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
    return *value;
}

double
member(const obs::JsonValue &v, const char *key)
{
    const obs::JsonValue *m = v.find(key);
    if (!m)
        throw std::runtime_error(std::string("histogram dump lacks ") +
                                 key);
    return m->number;
}

} // anonymous namespace

std::optional<double>
dumpedCounter(const obs::MetricsRegistry &reg, const std::string &series)
{
    const std::optional<obs::JsonValue> v =
        dumped(reg, "counters", series);
    return v ? std::optional<double>(v->number) : std::nullopt;
}

std::optional<double>
dumpedGauge(const obs::MetricsRegistry &reg, const std::string &series)
{
    const std::optional<obs::JsonValue> v = dumped(reg, "gauges", series);
    return v ? std::optional<double>(v->number) : std::nullopt;
}

std::optional<obs::Histogram::Snapshot>
dumpedHistogram(const obs::MetricsRegistry &reg, const std::string &series)
{
    const std::optional<obs::JsonValue> v =
        dumped(reg, "histograms", series);
    if (!v)
        return std::nullopt;
    obs::Histogram::Snapshot s;
    s.count = static_cast<std::uint64_t>(member(*v, "count"));
    s.sum = member(*v, "sum");
    s.min = member(*v, "min");
    s.max = member(*v, "max");
    if (const obs::JsonValue *buckets = v->find("buckets"))
        for (const obs::JsonValue &b : buckets->items)
            s.buckets.push_back(static_cast<std::uint64_t>(b.number));
    return s;
}

} // namespace test
} // namespace mflstm
