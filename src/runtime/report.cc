#include "runtime/report.hh"

#include <ostream>
#include <sstream>

#include "obs/json.hh"

namespace mflstm {
namespace runtime {

namespace {

void
appendLine(std::ostringstream &os, const char *key, double value,
           const char *unit)
{
    os << "  " << key << value << unit << "\n";
}

} // anonymous namespace

std::string
formatRunReport(const RunReport &report)
{
    const gpu::TraceResult &r = report.result;
    std::ostringstream os;
    os.setf(std::ios::fixed);
    os.precision(2);

    os << "plan: " << toString(report.kind) << "\n";
    appendLine(os, "wall time          ", r.timeUs / 1e3, " ms");
    appendLine(os, "kernels            ",
               static_cast<double>(r.kernelCount), "");
    appendLine(os, "DRAM traffic       ", r.dramBytes / 1e6, " MB");
    appendLine(os, "shared traffic     ", r.sharedBytes / 1e6, " MB");
    appendLine(os, "DRAM utilisation   ", 100.0 * r.dramUtilization,
               " %");
    appendLine(os, "shared utilisation ", 100.0 * r.sharedUtilization,
               " %");
    appendLine(os, "energy             ", r.energy.totalJ() * 1e3,
               " mJ");
    os << "  time by kernel class:\n";
    for (const auto &[klass, us] : r.timePerClassUs) {
        os << "    " << gpu::toString(klass) << ": " << us / 1e3
           << " ms (" << 100.0 * r.classShare(klass) << " %)\n";
    }
    return os.str();
}

std::string
formatComparison(const RunReport &base, const RunReport &opt)
{
    std::ostringstream os;
    os.setf(std::ios::fixed);
    os.precision(2);
    os << toString(opt.kind) << " vs " << toString(base.kind) << ":\n";
    os << "  time    " << base.result.timeUs / 1e3 << " ms -> "
       << opt.result.timeUs / 1e3 << " ms  (" << speedup(base, opt)
       << "x)\n";
    os << "  energy  " << base.result.energy.totalJ() * 1e3
       << " mJ -> " << opt.result.energy.totalJ() * 1e3 << " mJ  ("
       << energySavingPct(base, opt) << " % saved)\n";
    os << "  DRAM    " << base.result.dramBytes / 1e6 << " MB -> "
       << opt.result.dramBytes / 1e6 << " MB\n";
    return os.str();
}

std::string
csvEscape(const std::string &field)
{
    if (field.find_first_of(",\"\n\r") == std::string::npos)
        return field;
    std::string out;
    out.reserve(field.size() + 2);
    out += '"';
    for (char c : field) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

std::string
runCsvHeader()
{
    return "label,plan,time_us,kernels,dram_bytes,l2_bytes,"
           "shared_bytes,flops,dram_util,shared_util,energy_j,"
           "static_j,dynamic_j,dram_j,onchip_j,crm_j";
}

std::string
runCsvRow(const std::string &label, const RunReport &report)
{
    const gpu::TraceResult &r = report.result;
    std::ostringstream os;
    os << csvEscape(label) << ',' << toString(report.kind) << ','
       << r.timeUs
       << ',' << r.kernelCount << ',' << r.dramBytes << ','
       << r.l2Bytes << ',' << r.sharedBytes << ',' << r.flops << ','
       << r.dramUtilization << ',' << r.sharedUtilization << ','
       << r.energy.totalJ() << ',' << r.energy.staticJ << ','
       << r.energy.gpuDynamicJ << ',' << r.energy.dramJ << ','
       << r.energy.onChipJ << ',' << r.energy.crmJ;
    return os.str();
}

void
writeTraceCsv(std::ostream &os, const gpu::KernelTrace &trace)
{
    os << "index,name,class,ctas,threads_per_cta,flops,dram_read,"
          "dram_write,l2_bytes,shared_bytes,syncs,divergence,"
          "coalescing,row_skip,disabled_threads\n";
    std::size_t idx = 0;
    for (const gpu::KernelLaunch &l : trace.launches()) {
        const gpu::KernelDesc &k = trace.kernels()[l.kernel];
        os << idx++ << ',' << csvEscape(k.name) << ','
           << gpu::toString(k.klass) << ',' << k.ctas << ','
           << k.threadsPerCta << ',' << k.flops << ','
           << k.dramReadBytes << ',' << k.dramWriteBytes << ','
           << k.l2AccessBytes << ',' << k.sharedBytes << ','
           << k.syncsPerCta << ',' << k.divergenceFactor << ','
           << k.coalescingFactor << ',' << (k.hasRowSkipArg ? 1 : 0)
           << ',' << k.disabledThreads << '\n';
    }
}

std::string
runReportJson(const std::string &label, const RunReport &report)
{
    const gpu::TraceResult &r = report.result;
    std::ostringstream os;
    obs::JsonWriter w(os);

    w.beginObject();
    w.key("label").value(label);
    w.key("plan").value(toString(report.kind));
    w.key("time_us").value(r.timeUs);
    w.key("cycles").value(r.cycles);
    w.key("compute_cycles").value(r.computeCycles);
    w.key("kernels").value(static_cast<std::uint64_t>(r.kernelCount));
    w.key("flops").value(r.flops);
    w.key("dram_bytes").value(r.dramBytes);
    w.key("l2_bytes").value(r.l2Bytes);
    w.key("shared_bytes").value(r.sharedBytes);
    w.key("dram_util").value(r.dramUtilization);
    w.key("shared_util").value(r.sharedUtilization);

    w.key("stall_cycles").beginObject();
    w.key("offchip_memory").value(r.stalls.offChipMemory);
    w.key("onchip_bandwidth").value(r.stalls.onChipBandwidth);
    w.key("synchronization").value(r.stalls.synchronization);
    w.key("execution_dependency").value(r.stalls.executionDependency);
    w.key("other").value(r.stalls.other);
    w.endObject();

    w.key("energy_j").beginObject();
    w.key("total").value(r.energy.totalJ());
    w.key("static").value(r.energy.staticJ);
    w.key("dynamic").value(r.energy.gpuDynamicJ);
    w.key("dram").value(r.energy.dramJ);
    w.key("onchip").value(r.energy.onChipJ);
    w.key("crm").value(r.energy.crmJ);
    w.endObject();

    w.key("crm_cycles").value(r.crmCycles);
    w.key("kernels_through_crm")
        .value(static_cast<std::uint64_t>(r.kernelsThroughCrm));

    w.key("time_per_class_us").beginObject();
    for (const auto &[klass, us] : r.timePerClassUs)
        w.key(gpu::toString(klass)).value(us);
    w.endObject();

    w.key("kernels_per_class").beginObject();
    for (const auto &[klass, count] : r.kernelsPerClass)
        w.key(gpu::toString(klass))
            .value(static_cast<std::uint64_t>(count));
    w.endObject();

    w.endObject();
    return os.str();
}

} // namespace runtime
} // namespace mflstm
