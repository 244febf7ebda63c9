/**
 * @file
 * Calibration persistence tests (DESIGN.md §11): a calibration saved
 * and restored through the artifact layer must reproduce the link
 * predictors bit-for-bit (the restored runner serves exactly like the
 * one that calibrated), and a calibration recorded against different
 * model weights must be rejected as stale, leaving the runner
 * untouched.
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>

#include <unistd.h>

#include <gtest/gtest.h>

#include "core/api.hh"
#include "core/persist.hh"
#include "obs/observer.hh"
#include "tensor/rng.hh"

namespace {

using namespace mflstm;
using namespace mflstm::core;

nn::ModelConfig
modelConfig()
{
    nn::ModelConfig cfg;
    cfg.task = nn::TaskKind::Classification;
    cfg.vocab = 20;
    cfg.embedSize = 8;
    cfg.hiddenSize = 12;
    cfg.numLayers = 2;
    cfg.numClasses = 2;
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

MemoryFriendlyLstm::Config
mfConfig()
{
    return {gpu::GpuConfig::tegraX1(),
            runtime::NetworkShape::stacked(512, 512, 2, 40)};
}

class PersistTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        // Per-process name: ctest runs test cases concurrently.
        path_ = (std::filesystem::temp_directory_path() /
                 ("mflstm_core_persist_test_" +
                  std::to_string(::getpid()) + ".bin"))
                    .string();
        std::remove(path_.c_str());
    }
    void TearDown() override { std::remove(path_.c_str()); }

    std::string path_;
};

TEST_F(PersistTest, ModelWeightsCrcTracksWeights)
{
    const nn::LstmModel a(modelConfig(), 11);
    const nn::LstmModel b(modelConfig(), 12);
    nn::LstmModel c(modelConfig(), 11);

    EXPECT_EQ(modelWeightsCrc(a), modelWeightsCrc(c));
    EXPECT_NE(modelWeightsCrc(a), modelWeightsCrc(b));

    c.head().b.data()[0] += 1.0f;
    EXPECT_NE(modelWeightsCrc(a), modelWeightsCrc(c));
}

TEST_F(PersistTest, ModelWeightsCrcIsPinned)
{
    // Calibration, warm-state and tuned-plan artifacts store this CRC;
    // a change to the bytes it covers or their order turns every
    // artifact written by an earlier build Stale.
    const nn::LstmModel a(modelConfig(), 11);
    EXPECT_EQ(modelWeightsCrc(a), 0xe06237c3u);
}

TEST_F(PersistTest, RoundTripRestoresPredictorsBitIdentically)
{
    const nn::LstmModel model(modelConfig(), 77);
    MemoryFriendlyLstm calibrated(model, mfConfig());
    calibrated.calibrate(seqs(4, 8, 5));
    saveCalibration(calibrated, path_);

    MemoryFriendlyLstm restored(model, mfConfig());
    ASSERT_FALSE(restored.calibrated());
    loadCalibration(restored, path_);
    ASSERT_TRUE(restored.calibrated());

    // The Calibration summary round-trips...
    EXPECT_EQ(restored.calibration().mts,
              calibrated.calibration().mts);
    EXPECT_EQ(restored.calibration().profile.relevances,
              calibrated.calibration().profile.relevances);
    EXPECT_EQ(restored.calibration().ladder(),
              calibrated.calibration().ladder());

    // ...and the link predictors are bit-identical, so Eq. 6
    // approximations in the restored process match exactly.
    const auto &orig = calibrated.runner().predictors();
    const auto &rest = restored.runner().predictors();
    ASSERT_EQ(orig.size(), rest.size());
    for (std::size_t l = 0; l < orig.size(); ++l) {
        EXPECT_EQ(orig[l].predictedH(), rest[l].predictedH())
            << "layer " << l;
        EXPECT_EQ(orig[l].predictedC(), rest[l].predictedC())
            << "layer " << l;
    }

    // Same thresholds therefore produce the same timing outcome.
    const std::vector<ThresholdSet> ladder =
        calibrated.calibration().ladder(3);
    calibrated.setThresholds(ladder[1]);
    restored.setThresholds(ladder[1]);
    const TimingOutcome a =
        calibrated.evaluateTiming({runtime::PlanKind::Combined});
    const TimingOutcome b =
        restored.evaluateTiming({runtime::PlanKind::Combined});
    EXPECT_EQ(a.speedup, b.speedup);
}

TEST_F(PersistTest, RestoredAndRecalibratedRunnersMatchFreshLogits)
{
    const nn::LstmModel model(modelConfig(), 77);
    const auto first = seqs(4, 8, 5);
    const auto second = seqs(3, 8, 6);
    auto both = first;
    both.insert(both.end(), second.begin(), second.end());

    // An alpha_inter above every relevance breaks every link, so each
    // cell after the first starts from the predicted (h, c).
    const auto logits = [](ApproxRunner &runner) {
        runner.setThresholds(1e30, 0.0);
        std::vector<Vector> out;
        for (const auto &s : seqs(5, 8, 9))
            out.push_back(runner.classify(s));
        return out;
    };

    MemoryFriendlyLstm fresh(model, mfConfig());
    fresh.calibrate(both);
    const std::vector<Vector> want = logits(fresh.runner());

    // A second calibrate() must move the predictions it feeds.
    ApproxRunner recalibrated(model);
    recalibrated.calibrate(first);
    const std::vector<Vector> first_only = logits(recalibrated);
    recalibrated.calibrate(second);
    EXPECT_EQ(logits(recalibrated), want);
    EXPECT_NE(first_only, want);  // so stale predictions would show

    saveCalibration(fresh, path_);
    MemoryFriendlyLstm restored(model, mfConfig());
    loadCalibration(restored, path_);
    EXPECT_EQ(logits(restored.runner()), want);
}

TEST_F(PersistTest, StaleCalibrationRejectedAndRunnerUntouched)
{
    const nn::LstmModel model(modelConfig(), 77);
    MemoryFriendlyLstm calibrated(model, mfConfig());
    calibrated.calibrate(seqs(4, 8, 5));
    saveCalibration(calibrated, path_);

    const nn::LstmModel other(modelConfig(), 78);
    MemoryFriendlyLstm victim(other, mfConfig());
    try {
        loadCalibration(victim, path_);
        FAIL() << "calibration for different weights accepted";
    } catch (const io::ArtifactError &e) {
        EXPECT_EQ(e.kind(), io::ErrorKind::Stale);
    }
    // Rejection happened before any mutation.
    EXPECT_FALSE(victim.calibrated());
}

TEST_F(PersistTest, CorruptCalibrationRejectedAndCounted)
{
    const nn::LstmModel model(modelConfig(), 77);
    MemoryFriendlyLstm mf(model, mfConfig());
    mf.calibrate(seqs(4, 8, 5));
    saveCalibration(mf, path_);
    EXPECT_NO_THROW(verifyCalibrationFile(path_));

    const std::uintmax_t size = std::filesystem::file_size(path_);
    {
        std::fstream f(path_, std::ios::binary | std::ios::in |
                                  std::ios::out);
        f.seekg(static_cast<std::streamoff>(size / 2));
        char b = 0;
        f.read(&b, 1);
        b = static_cast<char>(b ^ 0x04);
        f.seekp(static_cast<std::streamoff>(size / 2));
        f.write(&b, 1);
    }

    EXPECT_THROW(verifyCalibrationFile(path_), io::ArtifactError);

    // The serve CLI's warm restart: counted and moved aside by the one
    // recovery path, and the facade is left for the rebuild step.
    obs::Observer obs;
    MemoryFriendlyLstm fresh(model, mfConfig());
    std::optional<io::LoadReport> report;  // set when rebuilt
    io::loadOrRebuild(
        path_, &obs, [&] { loadCalibration(fresh, path_); },
        [&](const io::LoadReport &seen) { report = seen; });
    ASSERT_TRUE(report.has_value());
    ASSERT_TRUE(report->error.has_value());
    EXPECT_FALSE(fresh.calibrated());
    EXPECT_EQ(report->quarantinedTo, path_ + ".corrupt");
    std::remove(report->quarantinedTo.c_str());
    EXPECT_EQ(obs.metrics()
                  .counter("artifact_load_rejected_total")
                  .value(),
              1.0);
}

TEST_F(PersistTest, TruncatedCalibrationRejected)
{
    const nn::LstmModel model(modelConfig(), 77);
    MemoryFriendlyLstm mf(model, mfConfig());
    mf.calibrate(seqs(4, 8, 5));
    saveCalibration(mf, path_);
    std::filesystem::resize_file(
        path_, std::filesystem::file_size(path_) / 2);

    MemoryFriendlyLstm fresh(model, mfConfig());
    EXPECT_THROW(loadCalibration(fresh, path_), io::ArtifactError);
    EXPECT_FALSE(fresh.calibrated());
}

} // namespace
