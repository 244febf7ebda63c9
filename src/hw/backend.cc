#include "hw/backend.hh"

#include <stdexcept>

namespace mflstm {
namespace hw {

namespace {

gpu::GpuConfig
dp4aClass()
{
    // A Pascal+/Adreno-class mobile part with int8 dot-product units
    // (DP4A): same 2x128 SM shape as the TX1 but a faster clock, a
    // bigger L2 and more DRAM bandwidth — and, decisively, quantized
    // inner products that consume packed weights directly, so the
    // per-weight convert disappears from the issue pipes and the
    // per-row scales fold into the epilogue. Int4 becomes the
    // interesting quant row: the traffic halves again and no ALU tax
    // claws the win back.
    gpu::GpuConfig cfg;
    cfg.name = "DP4A-class mobile GPU (256 cores @ 1.109 GHz)";
    cfg.numSms = 2;
    cfg.coresPerSm = 128;
    cfg.coreClockGhz = 1.109;
    cfg.dramBandwidthGBs = 34.1;
    cfg.dramLatencyNs = 110.0;
    cfg.l2Bytes = 512 * 1024;
    cfg.sharedMemPerSmBytes = 64 * 1024;
    cfg.int8DotUnits = true;
    cfg.dequantOpsPerWeight = 0.0;
    // The dot unit still rescales its int32 accumulator once per row;
    // amortized per weight this is well under the Maxwell convert.
    cfg.dequantPjPerWeight = 0.05;
    return cfg;
}

gpu::GpuConfig
epurLike()
{
    // An E-PUR/SHARP-style RNN accelerator: modest compute tiles behind
    // a large explicit on-chip weight SRAM (2 x 4 MB) engineered so an
    // entire layer's recurrent matrix can be pinned and DRAM touched
    // once per sequence. The shared tier *is* the weight memory —
    // nearly all of it pinnable, with almost no occupancy penalty
    // because operand staging has its own small buffers — while DRAM
    // is a single narrow channel, so anything streamed is expensive.
    gpu::GpuConfig cfg;
    cfg.name = "E-PUR-like RNN accelerator (8 MB weight SRAM)";
    cfg.numSms = 2;  // two compute tiles
    cfg.coresPerSm = 64;
    cfg.coreClockGhz = 0.8;
    cfg.dramBandwidthGBs = 12.8;
    cfg.dramLatencyNs = 100.0;
    cfg.l2Bytes = 256 * 1024;
    cfg.sharedMemPerSmBytes = 4 * 1024 * 1024;
    cfg.sharedBytesPerCyclePerSm = 256.0;
    cfg.sharedResidencyFraction = 0.9;
    cfg.residencyOccupancyPenalty = 0.05;
    // Accelerator datapaths keep thread state in small latches, not a
    // GPU register file; the regfile residency tier is token-sized.
    cfg.regFileBytesPerSm = 64 * 1024;
    cfg.kernelLaunchUs = 0.5;  // command processor, not a CUDA driver
    cfg.sharedPjPerByte = 2.0;
    cfg.int8DotUnits = true;
    cfg.explicitWeightMemory = true;
    cfg.dequantOpsPerWeight = 0.0;
    cfg.dequantPjPerWeight = 0.05;
    return cfg;
}

} // anonymous namespace

const char *
toString(BackendKind kind)
{
    switch (kind) {
      case BackendKind::MobileGpu:
        return "mobile-gpu";
      case BackendKind::Accelerator:
        return "accelerator";
    }
    return "mobile-gpu";
}

Registry::Registry()
{
    {
        Backend b;
        b.id = "tx1";
        b.display = "Jetson TX1";
        b.kind = BackendKind::MobileGpu;
        b.summary = "Maxwell anchor of Table I: 2x128 cores @ 998 MHz, "
                    "25.6 GB/s LPDDR4, no DP4A (dequant on the FMA pipes)";
        b.revision = 1;
        b.config = gpu::GpuConfig::tegraX1();
        entries_.push_back(std::move(b));
    }
    {
        Backend b;
        b.id = "tx2";
        b.display = "TX2-like";
        b.kind = BackendKind::MobileGpu;
        b.summary = "Pascal-class scalability point: same SM shape, "
                    "1.3 GHz, 58.3 GB/s, 512 KB L2";
        b.revision = 1;
        b.config = gpu::GpuConfig::tegraX2Like();
        entries_.push_back(std::move(b));
    }
    {
        Backend b;
        b.id = "dp4a";
        b.display = "DP4A-class GPU";
        b.kind = BackendKind::MobileGpu;
        b.summary = "int8 dot-product units: dequant issue cost ~0, "
                    "scales fold into the epilogue, int4 is the "
                    "interesting quant row";
        b.revision = 1;
        b.config = dp4aClass();
        entries_.push_back(std::move(b));
    }
    {
        Backend b;
        b.id = "epur";
        b.display = "E-PUR-like accelerator";
        b.kind = BackendKind::Accelerator;
        b.summary = "explicit 8 MB on-chip weight SRAM: resident plans "
                    "dominate, streamed plans priced out when a layer "
                    "fits";
        b.revision = 1;
        b.config = epurLike();
        entries_.push_back(std::move(b));
    }
}

const Backend &
Registry::get(const std::string &id) const
{
    if (const Backend *b = find(id))
        return *b;
    throw std::out_of_range("hw::Registry: unknown backend '" + id + "'");
}

const Backend *
Registry::find(const std::string &id) const
{
    for (const Backend &b : entries_)
        if (b.id == id)
            return &b;
    return nullptr;
}

bool
Registry::contains(const std::string &id) const
{
    return find(id) != nullptr;
}

std::vector<std::string>
Registry::names() const
{
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const Backend &b : entries_)
        out.push_back(b.id);
    return out;
}

const Registry &
registry()
{
    static const Registry instance;
    return instance;
}

} // namespace hw
} // namespace mflstm
