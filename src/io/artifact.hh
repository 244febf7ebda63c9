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
 * Failures are typed (ArtifactError::Kind). Every cache site applies
 * the one recovery policy, loadOrRebuild: count, quarantine, rebuild.
 */

#ifndef MFLSTM_IO_ARTIFACT_HH
#define MFLSTM_IO_ARTIFACT_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
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
    BadVersion,        ///< container or schema version not this reader's
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

/**
 * Field lists (DESIGN.md §11). A persisted struct's byte layout is
 * written down once, as a template both directions instantiate:
 *
 *   template <typename Codec>
 *   void fields(Codec &c, io::FieldRef<Codec, Foo> foo)
 *   {
 *       c(foo.count, foo.scale, foo.name, io::upTo<Kind::Last>(foo.kind));
 *   }
 *
 * With a ByteWriter it writes the fields in order; with a ByteReader it
 * reads them back in the same order. The C++ type of each field picks
 * its wire form: 4-byte unsigned integers, bools and enums are u32;
 * 8-byte unsigned integers (std::size_t, std::uint64_t) are u64; float
 * and double are f32 and f64; std::string is ByteWriter::str; a
 * std::vector is a u64 count followed by its elements. Reading applies
 * each type's rule: a bool must be 0 or 1, an enum (wrapped in upTo) at
 * most its Max, every float and double finite, and a vector's count is
 * bounded by maxElements and the bytes left before anything is
 * allocated.
 */

/** An enum field: a u32 on the wire, rejected above Max when read. */
template <auto Max, typename E>
struct EnumField
{
    static constexpr auto max = Max;
    E &value;
};

/** Wrap enum member @p value for a field list; Max is its last value. */
template <auto Max, typename E>
EnumField<Max, E>
upTo(E &value)
{
    static_assert(std::is_same_v<std::remove_const_t<E>, decltype(Max)>,
                  "upTo: Max must be a value of the field's enum");
    return {value};
}

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
    /** u64 length followed by the raw characters. */
    void str(std::string_view s);
    /** A bool as a u32 0 or 1. */
    void boolean(bool v) { u32(v ? 1 : 0); }

    /** Write @p fields in order, each in its type's wire form. */
    template <typename... T>
    void operator()(const T &...fields)
    {
        (put(fields), ...);
    }

    const std::vector<std::uint8_t> &bytes() const { return bytes_; }

  private:
    void raw(const void *p, std::size_t n);
    template <typename T>
    void put(const T &v);

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
               const ArtifactLimits &limits);

    std::uint32_t u32();
    std::uint64_t u64();
    float f32();
    double f64();
    /** f64 that must be finite (NonFinite otherwise). */
    double finiteF64();
    /** What ByteWriter::str wrote. */
    std::string str();
    /** u32 that must be 0 or 1 (Malformed otherwise). */
    bool boolean();

    /** u32 enum value; Malformed above @p max. */
    template <typename E>
    E enumU32(E max)
    {
        const std::uint32_t v = u32();
        if (v > static_cast<std::uint32_t>(max))
            fail(ErrorKind::Malformed,
                 "enum value " + std::to_string(v) + " above " +
                     std::to_string(static_cast<std::uint32_t>(max)));
        return static_cast<E>(v);
    }

    /** Read @p fields in order, each in its type's wire form. */
    template <typename... T>
    void operator()(T &&...fields)
    {
        (get(fields), ...);
    }

    std::size_t remaining() const { return data_.size() - pos_; }
    const ArtifactLimits &limits() const { return limits_; }

    /** Throws Malformed unless every byte has been consumed. */
    void expectEnd() const;

    /** Throw ArtifactError(@p kind) naming this chunk. */
    [[noreturn]] void fail(ErrorKind kind, const std::string &what) const;

  private:
    void need(std::size_t n) const;
    std::uint64_t arrayCount(std::size_t elem_size);
    float finiteF32();
    template <typename T>
    void get(T &v);

    std::span<const std::uint8_t> data_;
    std::size_t pos_ = 0;
    std::string context_;
    ArtifactLimits limits_;
};

/** The value type a field list visits: const when writing. */
template <typename Codec, typename T>
using FieldRef =
    std::conditional_t<std::is_same_v<Codec, ByteWriter>, const T &, T &>;

namespace detail {

template <typename T>
struct IsEnumField : std::false_type
{};
template <auto Max, typename E>
struct IsEnumField<EnumField<Max, E>> : std::true_type
{};

template <typename T>
constexpr bool isU32 = std::is_unsigned_v<T> && sizeof(T) == 4;
template <typename T>
constexpr bool isU64 = std::is_unsigned_v<T> && sizeof(T) == 8;

template <typename T>
struct IsVector : std::false_type
{};
template <typename T>
struct IsVector<std::vector<T>> : std::true_type
{};

/** Fewest wire bytes one field of type T occupies (array bounds). */
template <typename T>
constexpr std::size_t
wireBytes()
{
    if constexpr (std::is_same_v<T, bool> || isU32<T> ||
                  std::is_same_v<T, float> || IsEnumField<T>::value)
        return 4;
    else
        return 8;  // u64, f64, and the u64 count of a string or array
}

template <typename T>
constexpr bool kNoWireForm = false;

} // namespace detail

template <typename T>
void
ByteWriter::put(const T &v)
{
    if constexpr (std::is_same_v<T, bool>) {
        boolean(v);
    } else if constexpr (detail::isU32<T>) {
        u32(v);
    } else if constexpr (detail::isU64<T>) {
        u64(v);
    } else if constexpr (std::is_same_v<T, float>) {
        f32(v);
    } else if constexpr (std::is_same_v<T, double>) {
        f64(v);
    } else if constexpr (std::is_same_v<T, std::string>) {
        str(v);
    } else if constexpr (detail::IsEnumField<T>::value) {
        u32(static_cast<std::uint32_t>(v.value));
    } else if constexpr (detail::IsVector<T>::value) {
        u64(v.size());
        for (const auto &x : v)
            put(x);
    } else {
        static_assert(detail::kNoWireForm<T>,
                      "no wire form for this field type");
    }
}

template <typename T>
void
ByteReader::get(T &v)
{
    if constexpr (std::is_same_v<T, bool>) {
        v = boolean();
    } else if constexpr (detail::isU32<T>) {
        v = u32();
    } else if constexpr (detail::isU64<T>) {
        v = static_cast<T>(u64());
    } else if constexpr (std::is_same_v<T, float>) {
        v = finiteF32();
    } else if constexpr (std::is_same_v<T, double>) {
        v = finiteF64();
    } else if constexpr (std::is_same_v<T, std::string>) {
        v = str();
    } else if constexpr (detail::IsEnumField<T>::value) {
        v.value = enumU32(T::max);
    } else if constexpr (detail::IsVector<T>::value) {
        using Elem = typename T::value_type;
        v.resize(static_cast<std::size_t>(
            arrayCount(detail::wireBytes<Elem>())));
        for (Elem &x : v)
            get(x);
    } else {
        static_assert(detail::kNoWireForm<T>,
                      "no wire form for this field type");
    }
}

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
     * @throws ArtifactError on any I/O, structural or checksum problem;
     * BadSchema for another schema kind and BadVersion for any schema
     * version but @p expect_schema_version (each loader reads exactly
     * one). @p expect_schema_kind 0 accepts any kind and version (fsck).
     */
    ArtifactReader(const std::string &path,
                   std::uint32_t expect_schema_kind,
                   std::uint32_t expect_schema_version,
                   const ArtifactLimits &limits = {});

    std::uint32_t schemaKind() const { return schemaKind_; }
    std::uint32_t schemaVersion() const { return schemaVersion_; }
    const std::vector<ChunkInfo> &chunks() const { return chunks_; }

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

/** Why loadOrRebuild is rebuilding; its rebuild step receives it. */
struct LoadReport
{
    /// the load step's error; empty when the file was absent
    std::optional<ArtifactError> error;
    /// where the rejected file went; "" when it stayed in place (an Io
    /// error, or the rename failed)
    std::string quarantinedTo;
};

/**
 * The recovery policy for a cached artifact at @p path (DESIGN.md
 * §11). A missing file is absent. Otherwise @p load runs; when it
 * returns, the artifact is loaded and nothing else happens. When it
 * throws ArtifactError the file is rejected: the rejection is counted
 * on @p obs (no-op when null) in artifact_load_rejected_total and
 * artifact_load_rejected_total{reason=<kind>}, and the file is
 * quarantined unless the error is an Io one (an unreadable file is not
 * known to be damaged). Absent or rejected, @p rebuild then runs with
 * the report to recompute and save the artifact. Other exceptions,
 * from either step, propagate.
 */
void loadOrRebuild(
    const std::string &path, obs::Observer *obs,
    const std::function<void()> &load,
    const std::function<void(const LoadReport &)> &rebuild);

} // namespace io
} // namespace mflstm

#endif // MFLSTM_IO_ARTIFACT_HH
