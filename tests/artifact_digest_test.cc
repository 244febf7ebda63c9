/**
 * @file
 * Byte-layout regression for every artifact schema (DESIGN.md §11):
 * each test builds one artifact from small fixed inputs — an untrained
 * seeded model, its calibration, a hand-built engine warm state and a
 * hand-built tuned plan — and compares the CRC-32 and size of the file
 * bytes against tests/golden/artifact_digests.txt. A mismatch means the
 * on-disk layout moved; a deliberate layout change bumps that schema's
 * version and updates the fixture line the failure prints.
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "core/api.hh"
#include "core/persist.hh"
#include "io/artifact.hh"
#include "nn/serialize.hh"
#include "sched/persist.hh"
#include "serve/persist.hh"
#include "tensor/rng.hh"

#ifndef MFLSTM_GOLDEN_DIR
#error "MFLSTM_GOLDEN_DIR must point at the fixture directory"
#endif

namespace {

using namespace mflstm;

nn::ModelConfig
modelConfig()
{
    nn::ModelConfig cfg;
    cfg.task = nn::TaskKind::Classification;
    cfg.vocab = 20;
    cfg.embedSize = 8;
    cfg.hiddenSize = 12;
    cfg.numLayers = 2;
    cfg.numClasses = 3;
    cfg.sigmoid = nn::SigmoidKind::Hard;
    return cfg;
}

std::vector<std::vector<std::int32_t>>
seqs(std::size_t n, std::size_t len, std::uint64_t seed)
{
    tensor::Rng rng(seed);
    std::vector<std::vector<std::int32_t>> out(n);
    for (auto &s : out)
        for (std::size_t t = 0; t < len; ++t)
            s.push_back(static_cast<std::int32_t>(rng.integer(0, 19)));
    return out;
}

/** Each LayerSchedule field away from its default in some layer. */
runtime::ScheduleDecisions
decisions()
{
    runtime::ScheduleDecisions d;
    runtime::LayerSchedule tissues;
    tissues.tissueSizes = {3, 3, 2};
    tissues.skipPath = runtime::SkipPath::HwCrm;
    tissues.skipFraction = 0.25;
    tissues.flagFusion = runtime::FlagFusion::FusedEpilogue;
    tissues.quant = quant::QuantMode::Int8;
    tissues.batch = 4;
    d.layers.push_back(tissues);
    runtime::LayerSchedule resident;
    resident.tissueSizes = {4, 4};
    resident.quant = quant::QuantMode::Int4;
    resident.residency = runtime::WeightResidency::Regfile;
    d.layers.push_back(resident);
    runtime::LayerSchedule pruned;
    pruned.prunedCsr = true;
    pruned.pruneFraction = 0.37;
    d.layers.push_back(pruned);
    d.validate();
    return d;
}

class ArtifactDigest : public ::testing::Test
{
  protected:
    ArtifactDigest()
        : path_((std::filesystem::temp_directory_path() /
                 ("mflstm_artifact_digest_" +
                  std::to_string(::getpid()) + ".bin"))
                    .string())
    {
        std::remove(path_.c_str());
    }
    ~ArtifactDigest() override { std::remove(path_.c_str()); }

    /** "crc32 0x........ bytes N" of the file at path_. */
    std::string digest() const
    {
        std::ifstream in(path_, std::ios::binary);
        const std::vector<char> bytes{std::istreambuf_iterator<char>(in),
                                      std::istreambuf_iterator<char>()};
        char crc[16];
        std::snprintf(crc, sizeof(crc), "0x%08x",
                      io::crc32(bytes.data(), bytes.size()));
        return std::string("crc32 ") + crc + " bytes " +
               std::to_string(bytes.size());
    }

    /** The fixture's digest for @p schema ("" when absent). */
    static std::string fixture(const std::string &schema)
    {
        std::ifstream in(std::string(MFLSTM_GOLDEN_DIR) +
                         "/artifact_digests.txt");
        std::string line;
        while (std::getline(in, line))
            if (line.rfind(schema + " ", 0) == 0)
                return line.substr(schema.size() + 1);
        return {};
    }

    void expectFixture(const std::string &schema) const
    {
        EXPECT_EQ(digest(), fixture(schema))
            << "fixture line: " << schema << " " << digest();
    }

    std::string path_;
};

TEST_F(ArtifactDigest, Model)
{
    nn::saveModel(nn::LstmModel(modelConfig(), 77), path_);
    expectFixture("model");
}

TEST_F(ArtifactDigest, Calibration)
{
    const nn::LstmModel model(modelConfig(), 77);
    core::MemoryFriendlyLstm mf(
        model, {gpu::GpuConfig::tegraX1(),
                runtime::NetworkShape::stacked(512, 512, 2, 40)});
    mf.calibrate(seqs(4, 8, 5));
    core::saveCalibration(mf, path_);
    expectFixture("calibration");
}

TEST_F(ArtifactDigest, EngineState)
{
    serve::EngineWarmState state;
    state.plan = runtime::PlanKind::Persistent;
    state.backendId = "dp4a";
    state.pruneFraction = 0.125;
    state.shape = runtime::NetworkShape::stacked(16, 24, 3, 8);
    state.modelWeightsCrc = 0x5eed1234u;
    state.tunedPlans = true;
    state.ladder = {{0.0, 0.0, quant::QuantMode::Fp32},
                    {0.5, 0.25, quant::QuantMode::Int4}};
    state.plans.push_back(runtime::ExecutionPlan::preset(
        runtime::PlanKind::Combined, 3, quant::QuantMode::Fp32,
        {{2, 2, 2, 2}, {4, 4}, {8}}, {0.1, 0.2, 0.3}));
    state.plans.push_back(runtime::ExecutionPlan::fromDecisions(decisions()));
    serve::saveEngineState(state, path_);
    expectFixture("engine_state");
}

TEST_F(ArtifactDigest, TunedPlan)
{
    sched::TunedPlanArtifact art;
    art.fingerprint.weightsCrc = 0xdeadbeefu;
    art.fingerprint.statsCrc = 0x0badf00du;
    art.fingerprint.quant = 2;
    art.fingerprint.pruneFraction = 0.375;
    art.fingerprint.batch = 3;
    art.fingerprint.mts = 4;
    art.fingerprint.modelHidden = 24;
    art.fingerprint.backendId = "epur";
    art.gpu = gpu::GpuConfig::tegraX2Like();
    art.gpu.int8DotUnits = true;
    art.shape = runtime::NetworkShape::stacked(16, 24, 3, 8);
    art.decisions = decisions();
    art.timeUs = 1234.5;
    art.dramBytes = 65536.0;
    art.chosenLabel = "searched";
    art.referenceLabel = "combined";
    art.referenceTimeUs = 2345.25;
    art.referenceDramBytes = 131072.0;
    art.layerLabels = {"tissue+crm", "resident", "csr"};
    art.candidates = {{"combined", 2345.25, 131072.0},
                      {"searched", 1234.5, 65536.0}};
    sched::saveTunedPlan(art, path_);
    expectFixture("tuned_plan");
}

} // namespace
