/**
 * @file
 * Tests for the result-reporting helpers (tables, CSV, JSON).
 */

#include <sstream>

#include <gtest/gtest.h>

#include "obs/json.hh"
#include "runtime/report.hh"

namespace {

using namespace mflstm;
using namespace mflstm::runtime;

RunReport
someRun()
{
    NetworkExecutor ex(gpu::GpuConfig::tegraX1());
    ExecutionPlan plan;
    return ex.run(NetworkShape::stacked(256, 256, 1, 8), plan);
}

TEST(Report, FormatRunMentionsKeyQuantities)
{
    const RunReport r = someRun();
    const std::string s = formatRunReport(r);
    EXPECT_NE(s.find("plan: baseline"), std::string::npos);
    EXPECT_NE(s.find("wall time"), std::string::npos);
    EXPECT_NE(s.find("DRAM traffic"), std::string::npos);
    EXPECT_NE(s.find("Sgemv"), std::string::npos);
    EXPECT_NE(s.find("energy"), std::string::npos);
}

TEST(Report, ComparisonShowsSpeedup)
{
    NetworkExecutor ex(gpu::GpuConfig::tegraX1());
    const auto shape = NetworkShape::stacked(256, 256, 1, 8);
    ExecutionPlan base;
    const ExecutionPlan inter = ExecutionPlan::preset(
        PlanKind::InterCell, 1, quant::QuantMode::Fp32, {{4, 4}});

    const RunReport rb = ex.run(shape, base);
    const RunReport ri = ex.run(shape, inter);
    const std::string s = formatComparison(rb, ri);
    EXPECT_NE(s.find("inter-cell vs baseline"), std::string::npos);
    EXPECT_NE(s.find("x)"), std::string::npos);
    EXPECT_NE(s.find("% saved"), std::string::npos);
}

TEST(Report, CsvRowMatchesHeaderArity)
{
    const RunReport r = someRun();
    const std::string header = runCsvHeader();
    const std::string row = runCsvRow("unit", r);

    const auto count = [](const std::string &s) {
        return std::count(s.begin(), s.end(), ',');
    };
    EXPECT_EQ(count(header), count(row));
    EXPECT_EQ(row.rfind("unit,baseline,", 0), 0u);
}

TEST(Report, TraceCsvOneRowPerKernel)
{
    NetworkExecutor ex(gpu::GpuConfig::tegraX1());
    ExecutionPlan plan;
    const auto trace = ex.lowering().lower(
        NetworkShape::stacked(128, 128, 1, 4), plan);

    std::ostringstream os;
    writeTraceCsv(os, trace);
    const std::string s = os.str();
    EXPECT_EQ(static_cast<std::size_t>(
                  std::count(s.begin(), s.end(), '\n')),
              trace.size() + 1);  // header + rows
    EXPECT_NE(s.find("Sgemm(W_fico, x)"), std::string::npos);
}

TEST(Report, CsvEscapePassesCleanFieldsThrough)
{
    EXPECT_EQ(csvEscape("IMDB"), "IMDB");
    EXPECT_EQ(csvEscape(""), "");
    EXPECT_EQ(csvEscape("a b.c-d"), "a b.c-d");
}

TEST(Report, CsvEscapeQuotesSpecialCharacters)
{
    EXPECT_EQ(csvEscape("a,b"), "\"a,b\"");
    EXPECT_EQ(csvEscape("say \"hi\""), "\"say \"\"hi\"\"\"");
    EXPECT_EQ(csvEscape("two\nlines"), "\"two\nlines\"");
    EXPECT_EQ(csvEscape("cr\rhere"), "\"cr\rhere\"");
}

TEST(Report, CsvRowEscapesInjectedLabel)
{
    const RunReport r = someRun();
    const std::string row = runCsvRow("evil,label\"x", r);
    // The label must occupy exactly one (quoted) field.
    EXPECT_EQ(row.rfind("\"evil,label\"\"x\",baseline,", 0), 0u);

    const std::string header = runCsvHeader();
    // Count separators outside quoted fields.
    long commas = 0;
    bool quoted = false;
    for (char c : row) {
        if (c == '"')
            quoted = !quoted;
        else if (c == ',' && !quoted)
            ++commas;
    }
    EXPECT_EQ(commas, std::count(header.begin(), header.end(), ','));
}

TEST(Report, TraceCsvEscapesKernelNames)
{
    NetworkExecutor ex(gpu::GpuConfig::tegraX1());
    ExecutionPlan plan;
    const auto trace = ex.lowering().lower(
        NetworkShape::stacked(128, 128, 1, 4), plan);

    std::ostringstream os;
    writeTraceCsv(os, trace);
    // Kernel names contain commas ("Sgemm(W_fico, x)"): rows must
    // quote them so every row keeps the header's column count.
    EXPECT_NE(os.str().find("\"Sgemm(W_fico, x)\""), std::string::npos);
}

TEST(Report, JsonMatchesCsvNumbers)
{
    const RunReport r = someRun();
    const std::string json = runReportJson("unit", r);
    const auto doc = obs::parseJson(json);
    ASSERT_TRUE(doc.has_value());
    ASSERT_EQ(doc->kind, obs::JsonValue::Kind::Object);

    EXPECT_EQ(doc->find("label")->str, "unit");
    EXPECT_EQ(doc->find("plan")->str, "baseline");
    EXPECT_DOUBLE_EQ(doc->find("time_us")->number, r.result.timeUs);
    EXPECT_DOUBLE_EQ(doc->find("kernels")->number,
                     static_cast<double>(r.result.kernelCount));
    EXPECT_DOUBLE_EQ(doc->find("dram_bytes")->number,
                     r.result.dramBytes);
    EXPECT_DOUBLE_EQ(doc->find("flops")->number, r.result.flops);
    const obs::JsonValue *energy = doc->find("energy_j");
    ASSERT_NE(energy, nullptr);
    EXPECT_DOUBLE_EQ(energy->find("total")->number,
                     r.result.energy.totalJ());
    EXPECT_DOUBLE_EQ(energy->find("static")->number,
                     r.result.energy.staticJ);
    const obs::JsonValue *stalls = doc->find("stall_cycles");
    ASSERT_NE(stalls, nullptr);
    EXPECT_DOUBLE_EQ(stalls->find("offchip_memory")->number,
                     r.result.stalls.offChipMemory);
    const obs::JsonValue *per_class = doc->find("time_per_class_us");
    ASSERT_NE(per_class, nullptr);
    EXPECT_FALSE(per_class->members.empty());
}

} // namespace
