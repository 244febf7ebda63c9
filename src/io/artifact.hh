/**
 * @file
 * Crash-safe artifact container (DESIGN.md §11). Every persisted
 * artifact of the system — cached accuracy models, calibration results,
 * serving-engine warm-start state — is stored in one chunked, versioned,
 * CRC32-checksummed file format:
 *
 *   [FileHeader][ChunkTable][payload ...]
 *
 * The header carries the container version, a schema kind/version pair
 * identifying what the payload means, the total file size and a CRC
 * over header + chunk table; every chunk table entry carries a CRC over
 * its payload. Readers parse with strict bounds checks: every declared
 * size is validated against configurable ArtifactLimits and against the
 * actual file size *before* any allocation, so a corrupt or adversarial
 * header can neither OOM the process nor index out of bounds.
 *
 * Writes are atomic: the container is serialized in memory, written to
 * a temp file in the destination directory, fsync'd, and renamed over
 * the target, so a crash at any point leaves either the old file or the
 * new one — never a partial artifact.
 *
 * Failures are typed (ArtifactError::Kind); callers implement the
 * recovery policy (quarantine + recompute) rather than aborting.
 */

#ifndef MFLSTM_IO_ARTIFACT_HH
#define MFLSTM_IO_ARTIFACT_HH

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace mflstm {
namespace obs {
class Observer;
} // namespace obs

namespace io {

/** CRC-32 (IEEE 802.3, the zlib polynomial) of @p n bytes. */
std::uint32_t crc32(const void *data, std::size_t n,
                    std::uint32_t seed = 0);

/** Why an artifact was rejected (the quarantine/metrics reason label). */
enum class ErrorKind {
    Io,                ///< open/read/write/rename failed
    BadMagic,          ///< not an artifact file at all
    BadVersion,        ///< container version newer than this reader
    BadSchema,         ///< schema kind does not match the expectation
    BadHeader,         ///< header fields inconsistent with the file
    Truncated,         ///< declared data extends past the bytes present
    ChecksumMismatch,  ///< stored CRC does not match the bytes
    LimitExceeded,     ///< a declared size is over ArtifactLimits
    NonFinite,         ///< payload tensors contain NaN/Inf
    Malformed,         ///< chunk/field structure is wrong
    Stale,             ///< valid file, but for a different model/config
};

/** Stable lower-snake reason label (metrics, fsck output). */
const char *toString(ErrorKind kind);

/** Typed artifact failure; every loader throws exactly this. */
class ArtifactError : public std::runtime_error
{
  public:
    ArtifactError(ErrorKind kind, const std::string &message)
        : std::runtime_error(message), kind_(kind)
    {}

    ErrorKind kind() const { return kind_; }

  private:
    ErrorKind kind_;
};

/**
 * Parser limits, checked before any allocation. The defaults are far
 * above anything the repo writes but far below anything that could
 * OOM; tests tighten them to exercise the rejection paths.
 */
struct ArtifactLimits
{
    std::uint64_t maxFileBytes = 1ull << 30;   ///< whole-file cap (1 GiB)
    std::uint64_t maxChunkBytes = 1ull << 30;  ///< per-chunk cap
    std::uint32_t maxChunks = 4096;
    std::uint64_t maxDim = 1ull << 24;         ///< any single dimension
    std::uint64_t maxElements = 1ull << 28;    ///< any one array/tensor
};

/** Schema kinds carried by the container (what the chunks mean). */
constexpr std::uint32_t kSchemaModel = 1;        ///< nn::LstmModel
constexpr std::uint32_t kSchemaCalibration = 2;  ///< core calibration
constexpr std::uint32_t kSchemaEngineState = 3;  ///< serve warm state
// Schema kind 4 (a quantized-model artifact) is retired; never reuse it.
constexpr std::uint32_t kSchemaTunedPlan = 5;    ///< sched tuned plan

/** Four-character chunk/file tag as a little-endian u32. */
constexpr std::uint32_t
fourcc(char a, char b, char c, char d)
{
    return static_cast<std::uint32_t>(static_cast<unsigned char>(a)) |
           static_cast<std::uint32_t>(static_cast<unsigned char>(b)) << 8 |
           static_cast<std::uint32_t>(static_cast<unsigned char>(c)) << 16 |
           static_cast<std::uint32_t>(static_cast<unsigned char>(d)) << 24;
}

/**
 * Indexed chunk tag: two tag characters plus a 16-bit index, for
 * per-layer chunks ("LY" 0, "LY" 1, ...). Throws LimitExceeded when
 * @p index does not fit.
 */
std::uint32_t indexedTag(char a, char b, std::size_t index);

/** a * b, throwing ArtifactError(LimitExceeded) on u64 overflow. */
std::uint64_t checkedMul(std::uint64_t a, std::uint64_t b,
                         const char *what);

/** a + b, throwing ArtifactError(LimitExceeded) on u64 overflow. */
std::uint64_t checkedAdd(std::uint64_t a, std::uint64_t b,
                         const char *what);

/** Little-endian append-only buffer for chunk payloads. */
class ByteWriter
{
  public:
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    void f32(float v);
    void f64(double v);
    /** u64 count followed by the raw values. */
    void f32Array(std::span<const float> v);
    void f64Array(std::span<const double> v);
    void u64Array(std::span<const std::uint64_t> v);
    /** u64 count followed by the raw bytes. */
    void u8Array(std::span<const std::int8_t> v);

    const std::vector<std::uint8_t> &bytes() const { return bytes_; }

  private:
    void raw(const void *p, std::size_t n);

    std::vector<std::uint8_t> bytes_;
};

/**
 * Bounds-checked little-endian cursor over one chunk's payload. Every
 * read validates the bytes are present (Truncated otherwise); array
 * reads validate the declared count against the remaining bytes and
 * ArtifactLimits::maxElements *before* allocating.
 */
class ByteReader
{
  public:
    ByteReader(std::span<const std::uint8_t> data, std::string context,
               std::uint64_t max_elements);

    std::uint32_t u32();
    std::uint64_t u64();
    float f32();
    double f64();
    std::vector<float> f32Array();
    std::vector<double> f64Array();
    std::vector<std::uint64_t> u64Array();
    std::vector<std::int8_t> u8Array();

    std::size_t remaining() const { return data_.size() - pos_; }

    /** Throws Malformed unless every byte has been consumed. */
    void expectEnd() const;

  private:
    void need(std::size_t n) const;
    std::uint64_t arrayCount(std::size_t elem_size);

    std::span<const std::uint8_t> data_;
    std::size_t pos_ = 0;
    std::string context_;
    std::uint64_t maxElements_;
};

/** Builds a container in memory and commits it atomically. */
class ArtifactWriter
{
  public:
    ArtifactWriter(std::uint32_t schema_kind,
                   std::uint32_t schema_version);

    /** Start a new chunk; returns the payload writer. Tags are unique. */
    ByteWriter &chunk(std::uint32_t tag);

    /** Serialize the container. */
    std::vector<std::uint8_t> serialize() const;

    /** serialize() + atomic write (temp + fsync + rename) to @p path. */
    void commit(const std::string &path) const;

  private:
    std::uint32_t schemaKind_;
    std::uint32_t schemaVersion_;
    std::vector<std::pair<std::uint32_t, ByteWriter>> chunks_;
};

/** One validated chunk-table entry. */
struct ChunkInfo
{
    std::uint32_t tag = 0;
    std::uint64_t offset = 0;
    std::uint64_t length = 0;
    std::uint32_t crc = 0;
};

/**
 * Opens, fully validates (header, chunk table bounds, every chunk CRC)
 * and holds one container. All validation happens in the constructor;
 * chunk() afterwards only hands out bounds-checked readers.
 */
class ArtifactReader
{
  public:
    /**
     * @throws ArtifactError on any I/O, structural or checksum problem.
     * @param expect_schema_kind 0 accepts any schema (fsck).
     */
    ArtifactReader(const std::string &path,
                   std::uint32_t expect_schema_kind,
                   const ArtifactLimits &limits = {});

    std::uint32_t schemaKind() const { return schemaKind_; }
    std::uint32_t schemaVersion() const { return schemaVersion_; }
    const std::vector<ChunkInfo> &chunks() const { return chunks_; }

    bool has(std::uint32_t tag) const;

    /** Payload reader for @p tag; throws Malformed when missing. */
    ByteReader chunk(std::uint32_t tag) const;

  private:
    std::string path_;
    ArtifactLimits limits_;
    std::uint32_t schemaKind_ = 0;
    std::uint32_t schemaVersion_ = 0;
    std::vector<ChunkInfo> chunks_;
    std::vector<std::uint8_t> bytes_;
};

/**
 * Atomic file replacement: write to a temp file in @p path's directory,
 * fsync, rename over @p path, fsync the directory. A crash at any point
 * leaves the previous file (or nothing), never a partial write.
 */
void atomicWriteFile(const std::string &path,
                     std::span<const std::uint8_t> bytes);

/**
 * Move a rejected artifact out of the way: rename @p path to
 * "<path>.corrupt" (or ".corrupt.N" when taken). Best-effort — returns
 * the quarantine path, or "" when the rename failed; never throws.
 */
std::string quarantine(const std::string &path) noexcept;

/** Does @p path start with the container magic? (No validation.) */
bool isArtifactFile(const std::string &path,
                    std::uint32_t *schema_kind = nullptr);

/**
 * Bump the artifact rejection counters on @p obs (no-op when null):
 * artifact_load_rejected_total and its per-reason sibling
 * artifact_load_rejected_total{reason=<kind>}.
 */
void recordRejection(obs::Observer *obs, ErrorKind kind);

} // namespace io
} // namespace mflstm

#endif // MFLSTM_IO_ARTIFACT_HH
