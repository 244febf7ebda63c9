/**
 * @file
 * Corruption matrix for the crash-safe artifact container (DESIGN.md
 * §11). The contract under test: loading an artifact either succeeds
 * bit-identically or throws a typed ArtifactError — never UB, never an
 * OOM-sized allocation, never a partially parsed result. Every
 * single-bit flip and every truncation length must be rejected.
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "io/artifact.hh"
#include "obs/observer.hh"

namespace {

using namespace mflstm;
using namespace mflstm::io;

class ArtifactTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        dir_ = std::filesystem::temp_directory_path() /
               ("mflstm_artifact_test_" +
                std::to_string(::getpid()));
        std::filesystem::create_directories(dir_);
        path_ = (dir_ / "artifact.bin").string();
    }
    void TearDown() override
    {
        std::error_code ec;
        std::filesystem::remove_all(dir_, ec);
    }

    void writeBytes(const std::vector<std::uint8_t> &bytes)
    {
        std::ofstream os(path_, std::ios::binary | std::ios::trunc);
        os.write(reinterpret_cast<const char *>(bytes.data()),
                 static_cast<std::streamsize>(bytes.size()));
    }

    std::filesystem::path dir_;
    std::string path_;
};

/** A small container with a few chunks of mixed payloads. */
std::vector<std::uint8_t>
sampleContainer()
{
    ArtifactWriter w(kSchemaModel, 7);
    ByteWriter &a = w.chunk(fourcc('A', 'A', 'A', 'A'));
    a.u32(42);
    a.f64(3.25);
    const float weights[] = {1.0f, -2.0f, 0.5f};
    a.f32Array(weights);
    ByteWriter &b = w.chunk(fourcc('B', 'B', 'B', 'B'));
    b.u64(1234567890123ull);
    return w.serialize();
}

TEST_F(ArtifactTest, RoundTripPreservesChunks)
{
    writeBytes(sampleContainer());
    const ArtifactReader r(path_, kSchemaModel, 7);
    EXPECT_EQ(r.schemaKind(), kSchemaModel);
    EXPECT_EQ(r.schemaVersion(), 7u);
    ASSERT_EQ(r.chunks().size(), 2u);
    EXPECT_TRUE(r.has(fourcc('A', 'A', 'A', 'A')));
    EXPECT_FALSE(r.has(fourcc('Z', 'Z', 'Z', 'Z')));

    ByteReader a = r.chunk(fourcc('A', 'A', 'A', 'A'));
    EXPECT_EQ(a.u32(), 42u);
    EXPECT_EQ(a.f64(), 3.25);
    const std::vector<float> weights = a.f32Array();
    ASSERT_EQ(weights.size(), 3u);
    EXPECT_EQ(weights[1], -2.0f);
    a.expectEnd();

    ByteReader b = r.chunk(fourcc('B', 'B', 'B', 'B'));
    EXPECT_EQ(b.u64(), 1234567890123ull);
    b.expectEnd();
}

TEST_F(ArtifactTest, CommitWritesLoadableFile)
{
    ArtifactWriter w(kSchemaCalibration, 1);
    w.chunk(fourcc('C', 'C', 'C', 'C')).u32(9);
    w.commit(path_);

    std::uint32_t kind = 0;
    EXPECT_TRUE(isArtifactFile(path_, &kind));
    EXPECT_EQ(kind, kSchemaCalibration);

    const ArtifactReader r(path_, kSchemaCalibration, 1);
    ByteReader c = r.chunk(fourcc('C', 'C', 'C', 'C'));
    EXPECT_EQ(c.u32(), 9u);

    // No temp residue left behind.
    std::size_t files = 0;
    for (const auto &e : std::filesystem::directory_iterator(dir_)) {
        (void)e;
        ++files;
    }
    EXPECT_EQ(files, 1u);
}

// Every prefix of a valid container must be rejected — no truncation
// length may parse, crash, or allocate absurdly.
TEST_F(ArtifactTest, TruncationAtEveryByteRejected)
{
    const std::vector<std::uint8_t> full = sampleContainer();
    for (std::size_t len = 0; len < full.size(); ++len) {
        writeBytes({full.begin(), full.begin() + len});
        EXPECT_THROW(ArtifactReader(path_, kSchemaModel, 7),
                     ArtifactError)
            << "prefix of " << len << " bytes parsed";
    }
}

// Every byte of the container is covered by either the header CRC or a
// chunk CRC (including the CRC fields themselves), so any single-bit
// flip anywhere must be detected.
TEST_F(ArtifactTest, EverySingleBitFlipRejected)
{
    const std::vector<std::uint8_t> full = sampleContainer();
    for (std::size_t byte = 0; byte < full.size(); ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            std::vector<std::uint8_t> mutated = full;
            mutated[byte] ^= static_cast<std::uint8_t>(1u << bit);
            writeBytes(mutated);
            EXPECT_THROW(ArtifactReader(path_, kSchemaModel, 7),
                         ArtifactError)
                << "bit " << bit << " of byte " << byte
                << " flipped undetected";
        }
    }
}

TEST_F(ArtifactTest, TrailingGarbageRejected)
{
    std::vector<std::uint8_t> full = sampleContainer();
    full.push_back(0xEE);
    writeBytes(full);
    EXPECT_THROW(ArtifactReader(path_, kSchemaModel, 7), ArtifactError);
}

TEST_F(ArtifactTest, WrongSchemaKindRejected)
{
    writeBytes(sampleContainer());
    try {
        ArtifactReader r(path_, kSchemaEngineState, 7);
        FAIL() << "schema mismatch accepted";
    } catch (const ArtifactError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::BadSchema);
    }
    // Kind 0 (fsck wildcard) accepts anything.
    EXPECT_NO_THROW(ArtifactReader(path_, 0, 0));
}

TEST_F(ArtifactTest, OtherSchemaVersionRejected)
{
    writeBytes(sampleContainer());  // schema version 7
    for (std::uint32_t version : {6u, 8u}) {
        try {
            ArtifactReader r(path_, kSchemaModel, version);
            FAIL() << "version 7 read as " << version;
        } catch (const ArtifactError &e) {
            EXPECT_EQ(e.kind(), ErrorKind::BadVersion);
        }
    }
    // Kind 0 (fsck wildcard) skips the version check too.
    EXPECT_EQ(ArtifactReader(path_, 0, 1).schemaVersion(), 7u);
}

enum class Colour : std::uint32_t { Red, Green, Blue };

/** A struct with one field of every wire form a field list knows. */
struct Record
{
    std::uint32_t id = 0;
    std::size_t count = 0;
    double scale = 0.0;
    bool on = false;
    Colour colour = Colour::Red;
    std::string name;
    std::vector<float> gates;
    std::vector<std::size_t> sizes;
    std::vector<std::vector<double>> rows;
    std::vector<std::string> labels;

    bool operator==(const Record &) const = default;
};

template <typename Codec>
void
fields(Codec &c, FieldRef<Codec, Record> r)
{
    c(r.id, r.count, r.scale, r.on, upTo<Colour::Blue>(r.colour), r.name,
      r.gates, r.sizes, r.rows, r.labels);
}

/** Write @p rec's field list as chunk "FLDS" of a fresh container. */
void
writeRecord(const std::string &path, const Record &rec)
{
    ArtifactWriter w(kSchemaModel, 1);
    fields(w.chunk(fourcc('F', 'L', 'D', 'S')), rec);
    w.commit(path);
}

ErrorKind
readRecordKind(const std::string &path)
{
    const ArtifactReader reader(path, kSchemaModel, 1);
    ByteReader r = reader.chunk(fourcc('F', 'L', 'D', 'S'));
    Record back;
    try {
        fields(r, back);
    } catch (const ArtifactError &e) {
        return e.kind();
    }
    ADD_FAILURE() << "damaged record read back";
    return ErrorKind::Io;
}

TEST_F(ArtifactTest, FieldListRoundTripsWithTheRawLayout)
{
    Record rec;
    rec.id = 7;
    rec.count = 1ull << 40;
    rec.scale = -2.5;
    rec.on = true;
    rec.colour = Colour::Green;
    rec.name = "tx1";
    rec.gates = {0.25f, 0.75f};
    rec.sizes = {3, 5};
    rec.rows = {{1.0}, {}, {2.0, 3.0}};
    rec.labels = {"a", ""};
    writeRecord(path_, rec);

    const ArtifactReader reader(path_, kSchemaModel, 1);
    ByteReader r = reader.chunk(fourcc('F', 'L', 'D', 'S'));
    Record back;
    fields(r, back);
    r.expectEnd();
    EXPECT_EQ(back, rec);

    // The same bytes the primitive writes produce, field by field.
    ByteWriter raw;
    raw.u32(7);
    raw.u64(1ull << 40);
    raw.f64(-2.5);
    raw.u32(1);
    raw.u32(1);
    raw.str("tx1");
    raw.f32Array(rec.gates);
    for (std::uint64_t x : {2, 3, 5})  // sizes: count, then values
        raw.u64(x);
    raw.u64(3);  // rows
    raw.u64(1);
    raw.f64(1.0);
    raw.u64(0);
    raw.u64(2);
    raw.f64(2.0);
    raw.f64(3.0);
    raw.u64(2);  // labels
    raw.str("a");
    raw.str("");
    ByteWriter listed;
    fields(listed, rec);
    EXPECT_EQ(listed.bytes(), raw.bytes());
}

/** A FLDS chunk holding Record's first five fields as raw words. */
void
writeRecordHead(const std::string &path, std::uint32_t on,
                std::uint32_t colour)
{
    ArtifactWriter w(kSchemaModel, 1);
    ByteWriter &c = w.chunk(fourcc('F', 'L', 'D', 'S'));
    c.u32(0);
    c.u64(0);
    c.f64(0.0);
    c.u32(on);
    c.u32(colour);
    w.commit(path);
}

TEST_F(ArtifactTest, FieldListRejectsOutOfDomainValues)
{
    writeRecordHead(path_, 2, 0);  // only 0 and 1 are bools
    EXPECT_EQ(readRecordKind(path_), ErrorKind::Malformed);
    writeRecordHead(path_, 1, 3);  // one past Colour::Blue
    EXPECT_EQ(readRecordKind(path_), ErrorKind::Malformed);

    Record nan;
    nan.scale = std::numeric_limits<double>::quiet_NaN();
    writeRecord(path_, nan);
    EXPECT_EQ(readRecordKind(path_), ErrorKind::NonFinite);

    Record inf_gate;
    inf_gate.gates = {1.0f, std::numeric_limits<float>::infinity()};
    writeRecord(path_, inf_gate);
    EXPECT_EQ(readRecordKind(path_), ErrorKind::NonFinite);

    // A vector count is bounded by the bytes behind it before anything
    // is allocated.
    ArtifactWriter w(kSchemaModel, 1);
    ByteWriter &c = w.chunk(fourcc('F', 'L', 'D', 'S'));
    c.u32(0);
    c.u64(0);
    c.f64(0.0);
    c.u32(0);
    c.u32(0);
    c.str("x");
    c.u64(0);           // gates
    c.u64(0);           // sizes
    c.u64(1000);        // rows: far more than the chunk holds
    w.commit(path_);
    EXPECT_EQ(readRecordKind(path_), ErrorKind::Truncated);
}

TEST_F(ArtifactTest, MissingFileIsIoError)
{
    try {
        ArtifactReader r((dir_ / "nope.bin").string(), kSchemaModel, 7);
        FAIL() << "missing file accepted";
    } catch (const ArtifactError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::Io);
    }
}

TEST_F(ArtifactTest, NotAnArtifactIsBadMagic)
{
    writeBytes({'h', 'e', 'l', 'l', 'o', ' ', 'w', 'o', 'r', 'l', 'd',
                '!', '!', '!', '!', '!', '!', '!', '!', '!', '!', '!',
                '!', '!', '!', '!', '!', '!', '!', '!', '!', '!'});
    try {
        ArtifactReader r(path_, kSchemaModel, 7);
        FAIL() << "non-artifact accepted";
    } catch (const ArtifactError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::BadMagic);
    }
    EXPECT_FALSE(isArtifactFile(path_));
}

TEST_F(ArtifactTest, TightenedLimitsRejectBeforeAllocation)
{
    writeBytes(sampleContainer());

    ArtifactLimits tiny;
    tiny.maxFileBytes = 16;  // smaller than any valid container
    try {
        ArtifactReader r(path_, kSchemaModel, 7, tiny);
        FAIL() << "oversized file accepted";
    } catch (const ArtifactError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::LimitExceeded);
    }

    ArtifactLimits no_chunks;
    no_chunks.maxChunks = 1;
    try {
        ArtifactReader r(path_, kSchemaModel, 7, no_chunks);
        FAIL() << "over-chunked file accepted";
    } catch (const ArtifactError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::LimitExceeded);
    }

    // maxElements gates array reads before the vector is allocated.
    ArtifactLimits two_elems;
    two_elems.maxElements = 2;
    const ArtifactReader r(path_, kSchemaModel, 7, two_elems);
    ByteReader a = r.chunk(fourcc('A', 'A', 'A', 'A'));
    a.u32();
    a.f64();
    try {
        a.f32Array();  // declares 3 elements
        FAIL() << "array over maxElements allocated";
    } catch (const ArtifactError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::LimitExceeded);
    }
}

TEST_F(ArtifactTest, ReaderArrayCountBoundedByPayload)
{
    // A chunk that declares a huge array count but has no bytes behind
    // it must be rejected as Truncated without allocating.
    ArtifactWriter w(kSchemaModel, 1);
    w.chunk(fourcc('H', 'U', 'G', 'E')).u64(1ull << 60);
    writeBytes(w.serialize());
    const ArtifactReader r(path_, kSchemaModel, 1);
    ByteReader huge = r.chunk(fourcc('H', 'U', 'G', 'E'));
    EXPECT_THROW(huge.f32Array(), ArtifactError);
}

TEST_F(ArtifactTest, ByteReaderExpectEndCatchesTrailingBytes)
{
    ArtifactWriter w(kSchemaModel, 1);
    ByteWriter &c = w.chunk(fourcc('T', 'A', 'I', 'L'));
    c.u32(1);
    c.u32(2);
    writeBytes(w.serialize());
    const ArtifactReader r(path_, kSchemaModel, 1);
    ByteReader t = r.chunk(fourcc('T', 'A', 'I', 'L'));
    t.u32();
    EXPECT_THROW(t.expectEnd(), ArtifactError);
    t.u32();
    EXPECT_NO_THROW(t.expectEnd());
    EXPECT_THROW(t.u32(), ArtifactError);  // reading past the end
}

TEST_F(ArtifactTest, DuplicateChunkTagsRejected)
{
    ArtifactWriter w(kSchemaModel, 1);
    w.chunk(fourcc('D', 'U', 'P', 'E'));
    EXPECT_THROW(w.chunk(fourcc('D', 'U', 'P', 'E')), ArtifactError);
}

TEST_F(ArtifactTest, MissingChunkIsMalformed)
{
    writeBytes(sampleContainer());
    const ArtifactReader r(path_, kSchemaModel, 7);
    try {
        r.chunk(fourcc('N', 'O', 'P', 'E'));
        FAIL() << "missing chunk handed out";
    } catch (const ArtifactError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::Malformed);
    }
}

TEST_F(ArtifactTest, CheckedArithmeticOverflowThrows)
{
    EXPECT_EQ(checkedMul(3, 4, "t"), 12u);
    EXPECT_EQ(checkedAdd(3, 4, "t"), 7u);
    EXPECT_THROW(checkedMul(1ull << 40, 1ull << 40, "t"),
                 ArtifactError);
    EXPECT_THROW(checkedAdd(~0ull, 1, "t"), ArtifactError);
    EXPECT_THROW(indexedTag('L', 'Y', 1 << 16), ArtifactError);
}

TEST_F(ArtifactTest, QuarantineNamesDoNotCollide)
{
    writeBytes(sampleContainer());
    const std::string first = quarantine(path_);
    EXPECT_EQ(first, path_ + ".corrupt");
    writeBytes(sampleContainer());
    const std::string second = quarantine(path_);
    EXPECT_EQ(second, path_ + ".corrupt.1");
    EXPECT_TRUE(std::filesystem::exists(first));
    EXPECT_TRUE(std::filesystem::exists(second));
    EXPECT_FALSE(std::filesystem::exists(path_));

    // Quarantining a missing file fails quietly, never throws.
    EXPECT_EQ(quarantine(path_), "");
}

// Crash simulation: a stray temp file from an interrupted earlier
// write must neither confuse a later commit nor survive as a readable
// artifact, and commit over an existing file must replace it whole.
TEST_F(ArtifactTest, AtomicCommitSurvivesStrayTempAndReplaces)
{
    {
        std::ofstream os((dir_ / "artifact.bin.tmp.123").string(),
                         std::ios::binary);
        os << "partial garbage from a crashed writer";
    }

    ArtifactWriter v1(kSchemaModel, 1);
    v1.chunk(fourcc('G', 'E', 'N', '1')).u32(1);
    v1.commit(path_);

    ArtifactWriter v2(kSchemaModel, 1);
    v2.chunk(fourcc('G', 'E', 'N', '2')).u32(2);
    v2.commit(path_);

    const ArtifactReader r(path_, kSchemaModel, 1);
    EXPECT_FALSE(r.has(fourcc('G', 'E', 'N', '1')));
    ByteReader g2 = r.chunk(fourcc('G', 'E', 'N', '2'));
    EXPECT_EQ(g2.u32(), 2u);
}

TEST_F(ArtifactTest, CommitToUnwritableDirectoryThrowsIo)
{
    ArtifactWriter w(kSchemaModel, 1);
    w.chunk(fourcc('X', 'X', 'X', 'X')).u32(1);
    try {
        w.commit("/nonexistent_dir_mflstm/artifact.bin");
        FAIL() << "commit to missing directory succeeded";
    } catch (const ArtifactError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::Io);
    }
}

TEST_F(ArtifactTest, RecordRejectionBumpsReasonCounter)
{
    obs::Observer obs;
    recordRejection(&obs, ErrorKind::ChecksumMismatch);
    recordRejection(&obs, ErrorKind::ChecksumMismatch);
    recordRejection(&obs, ErrorKind::Stale);
    recordRejection(nullptr, ErrorKind::Io);  // no-op, no crash

    EXPECT_EQ(obs.metrics()
                  .counter("artifact_load_rejected_total")
                  .value(),
              3.0);
    EXPECT_EQ(obs.metrics()
                  .counter("artifact_load_rejected_total"
                           "{reason=checksum_mismatch}")
                  .value(),
              2.0);
    EXPECT_EQ(obs.metrics()
                  .counter("artifact_load_rejected_total{reason=stale}")
                  .value(),
              1.0);
}

TEST_F(ArtifactTest, Crc32MatchesKnownVector)
{
    // Standard check value for the IEEE 802.3 polynomial.
    const char data[] = "123456789";
    EXPECT_EQ(crc32(data, 9), 0xCBF43926u);
    EXPECT_EQ(crc32(data, 0), 0u);
}

TEST_F(ArtifactTest, ErrorKindLabelsAreStable)
{
    EXPECT_STREQ(toString(ErrorKind::ChecksumMismatch),
                 "checksum_mismatch");
    EXPECT_STREQ(toString(ErrorKind::LimitExceeded), "limit_exceeded");
    EXPECT_STREQ(toString(ErrorKind::NonFinite), "non_finite");
    EXPECT_STREQ(toString(ErrorKind::Stale), "stale");
}

} // namespace
