/**
 * Tuned-plan artifact (DESIGN.md §11/§14): byte-identical serialization
 * of identical searches, full round-trip, staleness against every
 * fingerprint ingredient, corruption rejection (bit flip, truncation),
 * and the tuneCached quarantine-and-retune flow.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "gpu/config.hh"
#include "io/artifact.hh"
#include "runtime/executor.hh"
#include "sched/persist.hh"

namespace mflstm {
namespace sched {
namespace {

namespace fs = std::filesystem;

constexpr std::uint32_t kWeightsCrc = 0xDEADBEEF;

class SchedPersistTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        dir_ = fs::temp_directory_path() /
               ("mflstm_sched_persist_" +
                std::to_string(::testing::UnitTest::GetInstance()
                                   ->random_seed()) +
                "_" + ::testing::UnitTest::GetInstance()
                          ->current_test_info()
                          ->name());
        fs::remove_all(dir_);
        fs::create_directories(dir_);
    }

    void TearDown() override { fs::remove_all(dir_); }

    std::string path(const std::string &name) const
    {
        return (dir_ / name).string();
    }

    static TuneRequest request()
    {
        TuneRequest req;
        req.shape = runtime::NetworkShape::stacked(64, 128, 2, 20);
        req.mts = 4;
        req.modelHidden = 128;
        core::LayerApproxStats s;
        s.sequences = 10;
        s.links = 190;
        s.breaks = 60;
        s.cells = 200;
        s.skippedRows = 0.4 * 200 * 128;
        req.stats = {s, s};
        return req;
    }

    static std::vector<char> slurp(const std::string &p)
    {
        std::ifstream in(p, std::ios::binary);
        return {std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>()};
    }

    fs::path dir_;
};

TEST_F(SchedPersistTest, IdenticalSearchesProduceByteIdenticalFiles)
{
    const runtime::NetworkExecutor exec(gpu::GpuConfig::tegraX1());
    const TuneRequest req = request();
    const TuneResult res = tune(exec, req);
    const TunedPlanArtifact art =
        makeTunedPlanArtifact(req, kWeightsCrc, exec.config(), res);

    saveTunedPlan(art, path("a.bin"));
    saveTunedPlan(art, path("b.bin"));
    const std::vector<char> a = slurp(path("a.bin"));
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, slurp(path("b.bin")));

    // Re-running the whole search also lands on the same bytes: the
    // determinism the tuner promises extends to the artifact.
    const TuneResult res2 = tune(exec, req);
    saveTunedPlan(
        makeTunedPlanArtifact(req, kWeightsCrc, exec.config(), res2),
        path("c.bin"));
    EXPECT_EQ(a, slurp(path("c.bin")));
}

TEST_F(SchedPersistTest, RoundTripPreservesEverything)
{
    const runtime::NetworkExecutor exec(gpu::GpuConfig::tegraX1());
    const TuneRequest req = request();
    const TuneResult res = tune(exec, req);
    const TunedPlanArtifact art =
        makeTunedPlanArtifact(req, kWeightsCrc, exec.config(), res);
    saveTunedPlan(art, path("t.bin"));

    const TunedPlanArtifact back =
        loadTunedPlan(path("t.bin"), exec.config(), req, kWeightsCrc);
    EXPECT_EQ(back.fingerprint, art.fingerprint);
    EXPECT_EQ(back.shape, art.shape);
    EXPECT_EQ(back.decisions, art.decisions);
    EXPECT_EQ(back.timeUs, art.timeUs);
    EXPECT_EQ(back.dramBytes, art.dramBytes);
    EXPECT_EQ(back.chosenLabel, art.chosenLabel);
    EXPECT_EQ(back.referenceLabel, art.referenceLabel);
    EXPECT_EQ(back.referenceTimeUs, art.referenceTimeUs);
    EXPECT_EQ(back.referenceDramBytes, art.referenceDramBytes);
    EXPECT_EQ(back.layerLabels, art.layerLabels);
    ASSERT_EQ(back.candidates.size(), art.candidates.size());
    for (std::size_t i = 0; i < back.candidates.size(); ++i) {
        EXPECT_EQ(back.candidates[i].label, art.candidates[i].label);
        EXPECT_EQ(back.candidates[i].timeUs, art.candidates[i].timeUs);
    }

    EXPECT_NO_THROW(verifyTunedPlanFile(path("t.bin")));
}

TEST_F(SchedPersistTest, StaleOnEveryFingerprintIngredient)
{
    const runtime::NetworkExecutor exec(gpu::GpuConfig::tegraX1());
    const TuneRequest req = request();
    const TuneResult res = tune(exec, req);
    saveTunedPlan(
        makeTunedPlanArtifact(req, kWeightsCrc, exec.config(), res),
        path("t.bin"));

    auto expectStale = [&](const TuneRequest &r, std::uint32_t crc,
                           const gpu::GpuConfig &gpu) {
        try {
            loadTunedPlan(path("t.bin"), gpu, r, crc);
            FAIL() << "expected Stale";
        } catch (const io::ArtifactError &e) {
            EXPECT_EQ(e.kind(), io::ErrorKind::Stale) << e.what();
        }
    };

    // New model weights.
    expectStale(req, kWeightsCrc + 1, exec.config());

    // New approximation statistics.
    TuneRequest new_stats = req;
    new_stats.stats[0].breaks += 1;
    expectStale(new_stats, kWeightsCrc, exec.config());

    // Different precision / batch / mts points.
    TuneRequest q = req;
    q.quant = quant::QuantMode::Int8;
    expectStale(q, kWeightsCrc, exec.config());
    TuneRequest b = req;
    b.batch = 8;
    expectStale(b, kWeightsCrc, exec.config());
    TuneRequest m = req;
    m.mts = 6;
    expectStale(m, kWeightsCrc, exec.config());

    // A different GPU cannot reuse the plan either.
    gpu::GpuConfig other = exec.config();
    other.dramBandwidthGBs *= 2.0;
    expectStale(req, kWeightsCrc, other);

    // The unmodified expectation still loads.
    EXPECT_NO_THROW(
        loadTunedPlan(path("t.bin"), exec.config(), req, kWeightsCrc));
}

TEST_F(SchedPersistTest, RejectsBitFlipAndTruncation)
{
    const runtime::NetworkExecutor exec(gpu::GpuConfig::tegraX1());
    const TuneRequest req = request();
    const TuneResult res = tune(exec, req);
    saveTunedPlan(
        makeTunedPlanArtifact(req, kWeightsCrc, exec.config(), res),
        path("t.bin"));
    const std::vector<char> good = slurp(path("t.bin"));
    ASSERT_GT(good.size(), 64u);

    // Flip one payload bit.
    std::vector<char> flipped = good;
    flipped[good.size() / 2] ^= 0x20;
    {
        std::ofstream out(path("flip.bin"), std::ios::binary);
        out.write(flipped.data(),
                  static_cast<std::streamsize>(flipped.size()));
    }
    EXPECT_THROW(
        loadTunedPlan(path("flip.bin"), exec.config(), req, kWeightsCrc),
        io::ArtifactError);
    EXPECT_THROW(verifyTunedPlanFile(path("flip.bin")),
                 io::ArtifactError);

    // Drop the tail.
    {
        std::ofstream out(path("trunc.bin"), std::ios::binary);
        out.write(good.data(),
                  static_cast<std::streamsize>(good.size() / 2));
    }
    EXPECT_THROW(
        loadTunedPlan(path("trunc.bin"), exec.config(), req,
                      kWeightsCrc),
        io::ArtifactError);
}

TEST_F(SchedPersistTest, ShapeBeyondMaxDimRejectedBeforeSimulation)
{
    // fsck lowers and simulates the stored shape, so a dimension past
    // the caller's limits must be rejected while parsing.
    const runtime::NetworkExecutor exec(gpu::GpuConfig::tegraX1());
    TuneRequest req = request();
    req.shape = runtime::NetworkShape::stacked(32, 48, 2, 100);
    const TuneResult res = tune(exec, req);
    saveTunedPlan(
        makeTunedPlanArtifact(req, kWeightsCrc, exec.config(), res),
        path("t.bin"));
    EXPECT_NO_THROW(verifyTunedPlanFile(path("t.bin")));

    io::ArtifactLimits limits;
    limits.maxDim = 64;
    try {
        verifyTunedPlanFile(path("t.bin"), limits);
        FAIL() << "layer length 100 accepted under maxDim 64";
    } catch (const io::ArtifactError &e) {
        EXPECT_EQ(e.kind(), io::ErrorKind::LimitExceeded) << e.what();
    }
}

TEST_F(SchedPersistTest, NonBinaryGpuFlagRejected)
{
    // A flag word other than 0 or 1 in an otherwise valid container
    // (every CRC recomputed) is damage, not "true".
    gpu::GpuConfig cfg = gpu::GpuConfig::tegraX1();
    cfg.int8DotUnits = true;
    const runtime::NetworkExecutor exec(cfg);
    const TuneRequest req = request();
    saveTunedPlan(
        makeTunedPlanArtifact(req, kWeightsCrc, cfg, tune(exec, req)),
        path("t.bin"));
    ASSERT_NO_THROW(loadTunedPlan(path("t.bin"), cfg, req, kWeightsCrc));

    std::vector<char> bytes = slurp(path("t.bin"));
    const io::ArtifactReader reader(path("t.bin"), io::kSchemaTunedPlan,
                                    3);
    std::size_t entry = 0;
    while (reader.chunks()[entry].tag != io::fourcc('T', 'G', 'P', 'U'))
        ++entry;
    const io::ChunkInfo gpu_chunk = reader.chunks()[entry];
    // int8DotUnits is the second-to-last u32 of the GpuConfig chunk.
    const std::size_t flag = gpu_chunk.offset + gpu_chunk.length - 8;
    ASSERT_EQ(bytes[flag], 1);
    bytes[flag] = 2;
    const auto put32 = [&](std::size_t at, std::uint32_t v) {
        for (int i = 0; i < 4; ++i)
            bytes[at + i] = static_cast<char>(v >> (8 * i));
    };
    // The chunk's CRC (table entry + 4), then the header CRC (at 28)
    // over the 28-byte header prefix and the whole chunk table.
    put32(32 + 24 * entry + 4,
          io::crc32(bytes.data() + gpu_chunk.offset, gpu_chunk.length));
    const std::size_t table_end = 32 + 24 * reader.chunks().size();
    put32(28, io::crc32(bytes.data() + 32, table_end - 32,
                        io::crc32(bytes.data(), 28)));
    {
        std::ofstream out(path("t.bin"), std::ios::binary | std::ios::trunc);
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }

    try {
        loadTunedPlan(path("t.bin"), cfg, req, kWeightsCrc);
        FAIL() << "GpuConfig flag word 2 accepted";
    } catch (const io::ArtifactError &e) {
        EXPECT_EQ(e.kind(), io::ErrorKind::Malformed) << e.what();
    }
}

TEST_F(SchedPersistTest, TuneCachedMissSavesThenHitsSkippingSearch)
{
    const runtime::NetworkExecutor exec(gpu::GpuConfig::tegraX1());
    const TuneRequest req = request();
    const std::string cache = path("cache.bin");

    const TuneResult fresh =
        tuneCached(exec, req, kWeightsCrc, cache);
    EXPECT_FALSE(fresh.fromCache);
    EXPECT_TRUE(fs::exists(cache));

    const TuneResult hit = tuneCached(exec, req, kWeightsCrc, cache);
    EXPECT_TRUE(hit.fromCache);
    EXPECT_EQ(hit.chosen.plan, fresh.chosen.plan);
    EXPECT_EQ(hit.chosen.timeUs, fresh.chosen.timeUs);
    EXPECT_EQ(hit.referenceLabel, fresh.referenceLabel);
    EXPECT_TRUE(hit.dominatesReference);

    // force ignores (but rewrites) the cache.
    const TuneResult forced =
        tuneCached(exec, req, kWeightsCrc, cache, {}, nullptr,
                   /*force=*/true);
    EXPECT_FALSE(forced.fromCache);
    EXPECT_EQ(forced.chosen.plan, fresh.chosen.plan);
}

TEST_F(SchedPersistTest, TuneCachedQuarantinesCorruptCacheAndRetunes)
{
    const runtime::NetworkExecutor exec(gpu::GpuConfig::tegraX1());
    const TuneRequest req = request();
    const std::string cache = path("cache.bin");
    tuneCached(exec, req, kWeightsCrc, cache);

    // Corrupt the cache in place.
    std::vector<char> bytes = slurp(cache);
    ASSERT_GT(bytes.size(), 64u);
    bytes[bytes.size() / 2] ^= 0x40;
    {
        std::ofstream out(cache, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    }

    const TuneResult res = tuneCached(exec, req, kWeightsCrc, cache);
    EXPECT_FALSE(res.fromCache);  // never trusted, search re-ran
    EXPECT_TRUE(res.dominatesReference);

    // The bad file was quarantined, a good one rewritten in its place.
    bool quarantined = false;
    for (const fs::directory_entry &e : fs::directory_iterator(dir_))
        if (e.path().string().find(".corrupt") != std::string::npos)
            quarantined = true;
    EXPECT_TRUE(quarantined);
    EXPECT_TRUE(fs::exists(cache));
    EXPECT_TRUE(
        tuneCached(exec, req, kWeightsCrc, cache).fromCache);
}

TEST_F(SchedPersistTest, StaleCacheIsRetunedNotServed)
{
    const runtime::NetworkExecutor exec(gpu::GpuConfig::tegraX1());
    const TuneRequest req = request();
    const std::string cache = path("cache.bin");
    tuneCached(exec, req, kWeightsCrc, cache);

    // Same file, new weights: the fingerprint no longer matches.
    const TuneResult res =
        tuneCached(exec, req, kWeightsCrc + 7, cache);
    EXPECT_FALSE(res.fromCache);
    // And the rewritten cache now serves the *new* fingerprint.
    EXPECT_TRUE(
        tuneCached(exec, req, kWeightsCrc + 7, cache).fromCache);
}

} // namespace
} // namespace sched
} // namespace mflstm
