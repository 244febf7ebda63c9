/**
 * @file
 * Tests for the binary model serialization used by the bench cache:
 * round trips over the v2 artifact container, rejection of the retired
 * raw v1 dump, and the corruption matrix — every damaged input must
 * raise a typed io::ArtifactError before any dangerous allocation,
 * never produce a partial model.
 */

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "io/fsck.hh"
#include "nn/serialize.hh"
#include "obs/observer.hh"

namespace {

using namespace mflstm;
using namespace mflstm::nn;

class SerializeTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        // Per-process name: ctest runs test cases concurrently.
        path_ = (std::filesystem::temp_directory_path() /
                 ("mflstm_serialize_test_" +
                  std::to_string(::getpid()) + ".bin"))
                    .string();
    }
    void TearDown() override { std::remove(path_.c_str()); }

    std::string path_;
};

ModelConfig
someConfig()
{
    ModelConfig cfg;
    cfg.task = TaskKind::Classification;
    cfg.vocab = 18;
    cfg.embedSize = 7;
    cfg.hiddenSize = 9;
    cfg.numLayers = 2;
    cfg.numClasses = 3;
    cfg.sigmoid = SigmoidKind::Hard;
    return cfg;
}

TEST_F(SerializeTest, RoundTripPreservesEverything)
{
    const LstmModel original(someConfig(), 99);
    saveModel(original, path_);
    const LstmModel loaded = loadModel(path_);

    // Config round-trips.
    EXPECT_EQ(loaded.config().task, original.config().task);
    EXPECT_EQ(loaded.config().vocab, original.config().vocab);
    EXPECT_EQ(loaded.config().hiddenSize, original.config().hiddenSize);
    EXPECT_EQ(loaded.config().numLayers, original.config().numLayers);
    EXPECT_EQ(loaded.config().numClasses, original.config().numClasses);
    EXPECT_EQ(loaded.config().sigmoid, original.config().sigmoid);

    // Weights round-trip bit-for-bit.
    EXPECT_EQ(loaded.embedding().table, original.embedding().table);
    for (std::size_t l = 0; l < 2; ++l) {
        EXPECT_EQ(loaded.layers()[l].uf, original.layers()[l].uf);
        EXPECT_EQ(loaded.layers()[l].wc, original.layers()[l].wc);
        EXPECT_EQ(loaded.layers()[l].bo, original.layers()[l].bo);
    }
    EXPECT_EQ(loaded.head().w, original.head().w);

    // And therefore outputs are identical.
    const std::int32_t toks[] = {1, 4, 9, 2};
    EXPECT_EQ(loaded.classify(toks), original.classify(toks));
}

TEST_F(SerializeTest, LanguageModelRoundTrip)
{
    ModelConfig cfg;
    cfg.task = TaskKind::LanguageModel;
    cfg.vocab = 12;
    cfg.embedSize = 5;
    cfg.hiddenSize = 6;
    cfg.numLayers = 1;
    const LstmModel original(cfg, 7);
    saveModel(original, path_);
    const LstmModel loaded = loadModel(path_);
    EXPECT_EQ(loaded.config().task, TaskKind::LanguageModel);

    const std::int32_t toks[] = {1, 2, 3};
    const auto a = original.lmLogits(toks);
    const auto b = loaded.lmLogits(toks);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t t = 0; t < a.size(); ++t)
        EXPECT_EQ(a[t], b[t]);
}

TEST_F(SerializeTest, IsModelFileChecksMagic)
{
    EXPECT_FALSE(isModelFile(path_));  // missing

    const LstmModel m(someConfig(), 1);
    saveModel(m, path_);
    EXPECT_TRUE(isModelFile(path_));

    // Corrupt the magic.
    {
        std::FILE *f = std::fopen(path_.c_str(), "r+b");
        ASSERT_NE(f, nullptr);
        const char junk[4] = {0, 0, 0, 0};
        std::fwrite(junk, 1, 4, f);
        std::fclose(f);
    }
    EXPECT_FALSE(isModelFile(path_));
    EXPECT_THROW(loadModel(path_), std::runtime_error);
}

TEST_F(SerializeTest, TruncatedFileRejected)
{
    const LstmModel m(someConfig(), 1);
    saveModel(m, path_);
    std::filesystem::resize_file(path_, 64);
    EXPECT_THROW(loadModel(path_), std::runtime_error);
}

TEST_F(SerializeTest, MissingFileRejected)
{
    EXPECT_THROW(loadModel("/nonexistent/dir/model.bin"),
                 std::runtime_error);
    EXPECT_THROW(saveModel(LstmModel(someConfig(), 1),
                           "/nonexistent/dir/model.bin"),
                 std::runtime_error);
}

// ----------------------------------------------------------------------
// Corruption matrix (v2 container)

io::ErrorKind
loadKind(const std::string &path,
         const io::ArtifactLimits &limits = {})
{
    try {
        (void)loadModel(path, limits);
    } catch (const io::ArtifactError &e) {
        return e.kind();
    }
    ADD_FAILURE() << "corrupt model file " << path << " loaded";
    return io::ErrorKind::Io;
}

TEST_F(SerializeTest, SaveWritesArtifactContainer)
{
    saveModel(LstmModel(someConfig(), 3), path_);
    std::uint32_t kind = 0;
    ASSERT_TRUE(io::isArtifactFile(path_, &kind));
    EXPECT_EQ(kind, io::kSchemaModel);
    EXPECT_NO_THROW(verifyModelFile(path_));
}

TEST_F(SerializeTest, TruncationAtChunkBoundariesRejected)
{
    saveModel(LstmModel(someConfig(), 3), path_);
    const std::uintmax_t full = std::filesystem::file_size(path_);
    // Header edge, chunk-table edge, mid-payload, one byte short.
    for (const std::uintmax_t len :
         {std::uintmax_t(0), std::uintmax_t(12), std::uintmax_t(31),
          std::uintmax_t(32), full / 3, full / 2, full - 1}) {
        saveModel(LstmModel(someConfig(), 3), path_);
        std::filesystem::resize_file(path_, len);
        EXPECT_THROW(loadModel(path_), io::ArtifactError)
            << "truncation to " << len << " bytes parsed";
        EXPECT_THROW(verifyModelFile(path_), io::ArtifactError);
    }
}

TEST_F(SerializeTest, WeightPayloadBitFlipIsChecksumMismatch)
{
    saveModel(LstmModel(someConfig(), 3), path_);
    const std::uintmax_t size = std::filesystem::file_size(path_);
    {
        std::fstream f(path_, std::ios::binary | std::ios::in |
                                  std::ios::out);
        f.seekp(static_cast<std::streamoff>(size - 7));
        char b = 0;
        f.seekg(static_cast<std::streamoff>(size - 7));
        f.read(&b, 1);
        b = static_cast<char>(b ^ 0x10);
        f.seekp(static_cast<std::streamoff>(size - 7));
        f.write(&b, 1);
    }
    EXPECT_EQ(loadKind(path_), io::ErrorKind::ChecksumMismatch);
}

TEST_F(SerializeTest, HugeDimsRejectedBeforeAllocation)
{
    // A handcrafted container whose header demands a petabyte-scale
    // model. The chunk CRCs are valid, so the only defence is the
    // pre-allocation dimension check — if it misses, the test dies
    // trying to allocate.
    io::ArtifactWriter w(io::kSchemaModel, 2);
    io::ByteWriter &c = w.chunk(io::fourcc('M', 'C', 'F', 'G'));
    c.u32(0);                 // task
    c.u64(1ull << 40);        // vocab
    c.u64(1ull << 40);        // embedSize
    c.u64(1ull << 40);        // hiddenSize
    c.u64(4);                 // numLayers
    c.u64(2);                 // numClasses
    c.u32(0);                 // sigmoid
    w.commit(path_);
    EXPECT_EQ(loadKind(path_), io::ErrorKind::LimitExceeded);
}

TEST_F(SerializeTest, ParameterCountOverflowRejected)
{
    // Dims individually under maxDim but whose product overflows the
    // element budget: caught by checked arithmetic, not by wrapping.
    io::ArtifactWriter w(io::kSchemaModel, 2);
    io::ByteWriter &c = w.chunk(io::fourcc('M', 'C', 'F', 'G'));
    c.u32(0);
    c.u64((1ull << 24) - 1);  // vocab, just under maxDim
    c.u64((1ull << 24) - 1);  // embedSize
    c.u64((1ull << 24) - 1);  // hiddenSize
    c.u64((1ull << 24) - 1);  // numLayers
    c.u64(2);
    c.u32(0);
    w.commit(path_);
    EXPECT_EQ(loadKind(path_), io::ErrorKind::LimitExceeded);
}

TEST_F(SerializeTest, BadEnumValuesRejected)
{
    io::ArtifactWriter w(io::kSchemaModel, 2);
    io::ByteWriter &c = w.chunk(io::fourcc('M', 'C', 'F', 'G'));
    c.u32(99);  // no such task
    c.u64(4);
    c.u64(3);
    c.u64(3);
    c.u64(1);
    c.u64(2);
    c.u32(0);
    w.commit(path_);
    EXPECT_EQ(loadKind(path_), io::ErrorKind::Malformed);
}

TEST_F(SerializeTest, UnknownSchemaVersionRejected)
{
    io::ArtifactWriter w(io::kSchemaModel, 3);  // future version
    w.chunk(io::fourcc('M', 'C', 'F', 'G')).u32(0);
    w.commit(path_);
    EXPECT_EQ(loadKind(path_), io::ErrorKind::BadVersion);
}

TEST_F(SerializeTest, WrongTensorSizeRejected)
{
    // Valid container, valid config, but the embedding chunk holds the
    // wrong number of floats.
    const ModelConfig cfg = someConfig();
    io::ArtifactWriter w(io::kSchemaModel, 2);
    io::ByteWriter &c = w.chunk(io::fourcc('M', 'C', 'F', 'G'));
    c.u32(0);
    c.u64(cfg.vocab);
    c.u64(cfg.embedSize);
    c.u64(cfg.hiddenSize);
    c.u64(cfg.numLayers);
    c.u64(cfg.numClasses);
    c.u32(1);
    const std::vector<float> short_tbl(3, 0.5f);
    w.chunk(io::fourcc('M', 'E', 'M', 'B')).f32Array(short_tbl);
    w.commit(path_);
    EXPECT_EQ(loadKind(path_), io::ErrorKind::Malformed);
}

TEST_F(SerializeTest, NanWeightRejectedAndCounted)
{
    LstmModel m(someConfig(), 3);
    m.layers()[0].wf.data()[1] =
        std::numeric_limits<float>::quiet_NaN();
    saveModel(m, path_);

    obs::Observer obs;
    try {
        (void)loadModel(path_, io::ArtifactLimits{}, &obs);
        FAIL() << "NaN weights loaded";
    } catch (const io::ArtifactError &e) {
        EXPECT_EQ(e.kind(), io::ErrorKind::NonFinite);
    }
    EXPECT_EQ(obs.metrics()
                  .counter("artifact_load_rejected_total")
                  .value(),
              1.0);
    EXPECT_EQ(
        obs.metrics()
            .counter(
                "artifact_load_rejected_total{reason=non_finite}")
            .value(),
        1.0);
}

TEST_F(SerializeTest, InfinityWeightRejected)
{
    LstmModel m(someConfig(), 3);
    m.head().b.data()[0] = std::numeric_limits<float>::infinity();
    saveModel(m, path_);
    EXPECT_EQ(loadKind(path_), io::ErrorKind::NonFinite);
}

// ----------------------------------------------------------------------
// The retired raw v1 dump

void
putU32(std::ofstream &os, std::uint32_t v)
{
    const std::uint8_t b[4] = {
        static_cast<std::uint8_t>(v),
        static_cast<std::uint8_t>(v >> 8),
        static_cast<std::uint8_t>(v >> 16),
        static_cast<std::uint8_t>(v >> 24)};
    os.write(reinterpret_cast<const char *>(b), 4);
}

void
putTensor(std::ofstream &os, const float *data, std::size_t n)
{
    os.write(reinterpret_cast<const char *>(data),
             static_cast<std::streamsize>(n * sizeof(float)));
}

/** Emit @p m in the original raw v1 dump format. */
void
writeLegacyV1(const LstmModel &m, const std::string &path)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    const ModelConfig &cfg = m.config();
    putU32(os, 0x4d464c31);  // "MFL1"
    putU32(os, 1);
    putU32(os, cfg.task == TaskKind::LanguageModel ? 1 : 0);
    putU32(os, static_cast<std::uint32_t>(cfg.vocab));
    putU32(os, static_cast<std::uint32_t>(cfg.embedSize));
    putU32(os, static_cast<std::uint32_t>(cfg.hiddenSize));
    putU32(os, static_cast<std::uint32_t>(cfg.numLayers));
    putU32(os, static_cast<std::uint32_t>(cfg.numClasses));
    putU32(os, cfg.sigmoid == SigmoidKind::Hard ? 1 : 0);

    putTensor(os, m.embedding().table.data(),
              m.embedding().table.size());
    for (const LstmLayerParams &p : m.layers()) {
        for (const tensor::Matrix *mat :
             {&p.wf, &p.wi, &p.wc, &p.wo, &p.uf, &p.ui, &p.uc, &p.uo})
            putTensor(os, mat->data(), mat->size());
        for (const tensor::Vector *v : {&p.bf, &p.bi, &p.bc, &p.bo})
            putTensor(os, v->data(), v->size());
    }
    putTensor(os, m.head().w.data(), m.head().w.size());
    putTensor(os, m.head().b.data(), m.head().b.size());
}

TEST_F(SerializeTest, RawV1DumpRejectedAsBadMagic)
{
    // The pre-container raw dump is no longer a model format: both the
    // loader and fsck (with the model deep verifier) see a file without
    // the container magic.
    writeLegacyV1(LstmModel(someConfig(), 21), path_);
    EXPECT_FALSE(isModelFile(path_));
    EXPECT_EQ(loadKind(path_), io::ErrorKind::BadMagic);

    const io::FsckEntry entry = io::fsckFile(
        path_, {}, [](const std::string &p, std::uint32_t) {
            verifyModelFile(p);
        });
    EXPECT_FALSE(entry.ok);
    EXPECT_EQ(entry.kind, io::ErrorKind::BadMagic);
    EXPECT_EQ(entry.format, "unknown");
}

} // namespace
