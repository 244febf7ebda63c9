#include "io/artifact.hh"

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>

#include <fcntl.h>
#include <unistd.h>

#include "obs/observer.hh"

namespace mflstm {
namespace io {

namespace {

constexpr std::uint32_t kMagic = fourcc('M', 'F', 'L', 'A');
constexpr std::uint32_t kContainerVersion = 1;
constexpr std::size_t kHeaderBytes = 32;   ///< fixed header size
constexpr std::size_t kHeaderCrcAt = 28;   ///< headerCrc field offset
constexpr std::size_t kChunkEntryBytes = 24;

[[noreturn]] void
fail(ErrorKind kind, const std::string &message)
{
    throw ArtifactError(kind, message);
}

std::uint32_t
loadU32(const std::uint8_t *p)
{
    return static_cast<std::uint32_t>(p[0]) |
           static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 |
           static_cast<std::uint32_t>(p[3]) << 24;
}

std::uint64_t
loadU64(const std::uint8_t *p)
{
    return static_cast<std::uint64_t>(loadU32(p)) |
           static_cast<std::uint64_t>(loadU32(p + 4)) << 32;
}

void
storeU32(std::uint8_t *p, std::uint32_t v)
{
    p[0] = static_cast<std::uint8_t>(v);
    p[1] = static_cast<std::uint8_t>(v >> 8);
    p[2] = static_cast<std::uint8_t>(v >> 16);
    p[3] = static_cast<std::uint8_t>(v >> 24);
}

void
storeU64(std::uint8_t *p, std::uint64_t v)
{
    storeU32(p, static_cast<std::uint32_t>(v));
    storeU32(p + 4, static_cast<std::uint32_t>(v >> 32));
}

} // anonymous namespace

std::uint32_t
crc32(const void *data, std::size_t n, std::uint32_t seed)
{
    static const std::array<std::uint32_t, 256> table = [] {
        std::array<std::uint32_t, 256> t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();

    std::uint32_t c = seed ^ 0xffffffffu;
    const auto *p = static_cast<const std::uint8_t *>(data);
    for (std::size_t i = 0; i < n; ++i)
        c = table[(c ^ p[i]) & 0xffu] ^ (c >> 8);
    return c ^ 0xffffffffu;
}

const char *
toString(ErrorKind kind)
{
    switch (kind) {
    case ErrorKind::Io: return "io_error";
    case ErrorKind::BadMagic: return "bad_magic";
    case ErrorKind::BadVersion: return "bad_version";
    case ErrorKind::BadSchema: return "bad_schema";
    case ErrorKind::BadHeader: return "bad_header";
    case ErrorKind::Truncated: return "truncated";
    case ErrorKind::ChecksumMismatch: return "checksum_mismatch";
    case ErrorKind::LimitExceeded: return "limit_exceeded";
    case ErrorKind::NonFinite: return "non_finite";
    case ErrorKind::Malformed: return "malformed";
    case ErrorKind::Stale: return "stale";
    }
    return "unknown";
}

std::uint32_t
indexedTag(char a, char b, std::size_t index)
{
    if (index > 0xffff)
        fail(ErrorKind::LimitExceeded,
             "indexedTag: index " + std::to_string(index) +
                 " does not fit in 16 bits");
    return fourcc(a, b, static_cast<char>(index & 0xff),
                  static_cast<char>((index >> 8) & 0xff));
}

std::uint64_t
checkedMul(std::uint64_t a, std::uint64_t b, const char *what)
{
    if (a != 0 && b > UINT64_MAX / a)
        fail(ErrorKind::LimitExceeded,
             std::string(what) + ": size multiplication overflows");
    return a * b;
}

std::uint64_t
checkedAdd(std::uint64_t a, std::uint64_t b, const char *what)
{
    if (b > UINT64_MAX - a)
        fail(ErrorKind::LimitExceeded,
             std::string(what) + ": size addition overflows");
    return a + b;
}

// --- ByteWriter ---------------------------------------------------------

void
ByteWriter::raw(const void *p, std::size_t n)
{
    const auto *b = static_cast<const std::uint8_t *>(p);
    bytes_.insert(bytes_.end(), b, b + n);
}

void
ByteWriter::u32(std::uint32_t v)
{
    std::uint8_t b[4];
    storeU32(b, v);
    raw(b, sizeof(b));
}

void
ByteWriter::u64(std::uint64_t v)
{
    std::uint8_t b[8];
    storeU64(b, v);
    raw(b, sizeof(b));
}

void
ByteWriter::f32(float v)
{
    std::uint32_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    u32(bits);
}

void
ByteWriter::f64(double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
}

void
ByteWriter::f32Array(std::span<const float> v)
{
    u64(v.size());
    for (float x : v)
        f32(x);
}

void
ByteWriter::str(std::string_view s)
{
    u64(s.size());
    raw(s.data(), s.size());
}

// --- ByteReader ---------------------------------------------------------

ByteReader::ByteReader(std::span<const std::uint8_t> data,
                       std::string context, const ArtifactLimits &limits)
    : data_(data), context_(std::move(context)), limits_(limits)
{}

void
ByteReader::fail(ErrorKind kind, const std::string &what) const
{
    io::fail(kind, context_ + ": " + what);
}

void
ByteReader::need(std::size_t n) const
{
    if (n > remaining())
        fail(ErrorKind::Truncated,
             "need " + std::to_string(n) + " bytes, have " +
                 std::to_string(remaining()));
}

std::uint32_t
ByteReader::u32()
{
    need(4);
    const std::uint32_t v = loadU32(data_.data() + pos_);
    pos_ += 4;
    return v;
}

std::uint64_t
ByteReader::u64()
{
    need(8);
    const std::uint64_t v = loadU64(data_.data() + pos_);
    pos_ += 8;
    return v;
}

float
ByteReader::f32()
{
    const std::uint32_t bits = u32();
    float v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

double
ByteReader::f64()
{
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

float
ByteReader::finiteF32()
{
    const float v = f32();
    if (!std::isfinite(v))
        fail(ErrorKind::NonFinite, "non-finite value");
    return v;
}

double
ByteReader::finiteF64()
{
    const double v = f64();
    if (!std::isfinite(v))
        fail(ErrorKind::NonFinite, "non-finite value");
    return v;
}

std::uint64_t
ByteReader::arrayCount(std::size_t elem_size)
{
    const std::uint64_t count = u64();
    if (count > limits_.maxElements)
        fail(ErrorKind::LimitExceeded,
             "array of " + std::to_string(count) +
                 " elements exceeds the limit of " +
                 std::to_string(limits_.maxElements));
    // Validate against the bytes actually present BEFORE allocating.
    const std::uint64_t bytes =
        checkedMul(count, elem_size, context_.c_str());
    if (bytes > remaining())
        fail(ErrorKind::Truncated,
             "array of " + std::to_string(count) +
                 " elements extends past the chunk payload");
    return count;
}

std::vector<float>
ByteReader::f32Array()
{
    const std::uint64_t count = arrayCount(4);
    std::vector<float> v(static_cast<std::size_t>(count));
    for (auto &x : v)
        x = f32();
    return v;
}

std::string
ByteReader::str()
{
    const auto count = static_cast<std::size_t>(arrayCount(1));
    std::string s(reinterpret_cast<const char *>(data_.data() + pos_),
                  count);
    pos_ += count;
    return s;
}

bool
ByteReader::boolean()
{
    const std::uint32_t v = u32();
    if (v > 1)
        fail(ErrorKind::Malformed,
             "bool field holds " + std::to_string(v));
    return v != 0;
}

void
ByteReader::expectEnd() const
{
    if (remaining() != 0)
        fail(ErrorKind::Malformed,
             std::to_string(remaining()) +
                 " trailing bytes after the last field");
}

// --- ArtifactWriter -----------------------------------------------------

ArtifactWriter::ArtifactWriter(std::uint32_t schema_kind,
                               std::uint32_t schema_version)
    : schemaKind_(schema_kind), schemaVersion_(schema_version)
{}

ByteWriter &
ArtifactWriter::chunk(std::uint32_t tag)
{
    for (const auto &[t, w] : chunks_)
        if (t == tag)
            fail(ErrorKind::Malformed,
                 "ArtifactWriter: duplicate chunk tag");
    chunks_.emplace_back(tag, ByteWriter{});
    return chunks_.back().second;
}

std::vector<std::uint8_t>
ArtifactWriter::serialize() const
{
    const std::size_t table_end =
        kHeaderBytes + kChunkEntryBytes * chunks_.size();
    std::size_t total = table_end;
    for (const auto &[tag, w] : chunks_)
        total += w.bytes().size();

    std::vector<std::uint8_t> out(total);

    // Header (headerCrc patched below).
    storeU32(out.data() + 0, kMagic);
    storeU32(out.data() + 4, kContainerVersion);
    storeU32(out.data() + 8, schemaKind_);
    storeU32(out.data() + 12, schemaVersion_);
    storeU64(out.data() + 16, total);
    storeU32(out.data() + 24,
             static_cast<std::uint32_t>(chunks_.size()));

    // Chunk table + payloads.
    std::size_t offset = table_end;
    for (std::size_t i = 0; i < chunks_.size(); ++i) {
        const auto &[tag, w] = chunks_[i];
        std::uint8_t *entry =
            out.data() + kHeaderBytes + kChunkEntryBytes * i;
        storeU32(entry + 0, tag);
        storeU32(entry + 4,
                 crc32(w.bytes().data(), w.bytes().size()));
        storeU64(entry + 8, offset);
        storeU64(entry + 16, w.bytes().size());
        std::copy(w.bytes().begin(), w.bytes().end(),
                  out.begin() + static_cast<std::ptrdiff_t>(offset));
        offset += w.bytes().size();
    }

    // headerCrc covers the header prefix and the whole chunk table, so
    // a bit flip anywhere in the metadata is caught before any entry
    // is trusted.
    std::uint32_t hcrc = crc32(out.data(), kHeaderCrcAt);
    hcrc = crc32(out.data() + kHeaderBytes, table_end - kHeaderBytes,
                 hcrc);
    storeU32(out.data() + kHeaderCrcAt, hcrc);
    return out;
}

void
ArtifactWriter::commit(const std::string &path) const
{
    const std::vector<std::uint8_t> bytes = serialize();
    atomicWriteFile(path, bytes);
}

// --- ArtifactReader -----------------------------------------------------

ArtifactReader::ArtifactReader(const std::string &path,
                               std::uint32_t expect_schema_kind,
                               std::uint32_t expect_schema_version,
                               const ArtifactLimits &limits)
    : path_(path), limits_(limits)
{
    std::error_code ec;
    const std::uintmax_t size = std::filesystem::file_size(path, ec);
    if (ec)
        fail(ErrorKind::Io, "artifact: cannot stat " + path + ": " +
                                ec.message());
    if (size > limits_.maxFileBytes)
        fail(ErrorKind::LimitExceeded,
             "artifact: " + path + " is " + std::to_string(size) +
                 " bytes, over the " +
                 std::to_string(limits_.maxFileBytes) + " byte limit");

    std::ifstream is(path, std::ios::binary);
    if (!is)
        fail(ErrorKind::Io, "artifact: cannot open " + path);
    bytes_.resize(static_cast<std::size_t>(size));
    is.read(reinterpret_cast<char *>(bytes_.data()),
            static_cast<std::streamsize>(bytes_.size()));
    if (!is || static_cast<std::uintmax_t>(is.gcount()) != size)
        fail(ErrorKind::Io, "artifact: short read on " + path);

    if (bytes_.size() < kHeaderBytes)
        fail(ErrorKind::Truncated,
             "artifact: " + path + " is smaller than the header");
    if (loadU32(bytes_.data()) != kMagic)
        fail(ErrorKind::BadMagic, "artifact: bad magic in " + path);
    if (loadU32(bytes_.data() + 4) != kContainerVersion)
        fail(ErrorKind::BadVersion,
             "artifact: unsupported container version " +
                 std::to_string(loadU32(bytes_.data() + 4)) + " in " +
                 path);

    schemaKind_ = loadU32(bytes_.data() + 8);
    schemaVersion_ = loadU32(bytes_.data() + 12);
    const std::uint64_t declared_size = loadU64(bytes_.data() + 16);
    const std::uint32_t chunk_count = loadU32(bytes_.data() + 24);

    if (declared_size != bytes_.size())
        fail(ErrorKind::BadHeader,
             "artifact: " + path + " declares " +
                 std::to_string(declared_size) + " bytes but holds " +
                 std::to_string(bytes_.size()));
    if (chunk_count > limits_.maxChunks)
        fail(ErrorKind::LimitExceeded,
             "artifact: " + path + " declares " +
                 std::to_string(chunk_count) + " chunks, over the " +
                 std::to_string(limits_.maxChunks) + " chunk limit");

    const std::uint64_t table_end = checkedAdd(
        kHeaderBytes,
        checkedMul(kChunkEntryBytes, chunk_count, "artifact table"),
        "artifact table");
    if (table_end > bytes_.size())
        fail(ErrorKind::Truncated,
             "artifact: chunk table of " + path +
                 " extends past the end of the file");

    // Metadata integrity before trusting any table entry.
    std::uint32_t hcrc = crc32(bytes_.data(), kHeaderCrcAt);
    hcrc = crc32(bytes_.data() + kHeaderBytes,
                 static_cast<std::size_t>(table_end) - kHeaderBytes,
                 hcrc);
    if (hcrc != loadU32(bytes_.data() + kHeaderCrcAt))
        fail(ErrorKind::ChecksumMismatch,
             "artifact: header/table checksum mismatch in " + path);

    if (expect_schema_kind != 0 && schemaKind_ != expect_schema_kind)
        fail(ErrorKind::BadSchema,
             "artifact: " + path + " holds schema kind " +
                 std::to_string(schemaKind_) + ", expected " +
                 std::to_string(expect_schema_kind));
    if (expect_schema_kind != 0 &&
        schemaVersion_ != expect_schema_version)
        fail(ErrorKind::BadVersion,
             "artifact: " + path + " holds schema version " +
                 std::to_string(schemaVersion_) + ", this build reads " +
                 std::to_string(expect_schema_version));

    chunks_.reserve(chunk_count);
    for (std::uint32_t i = 0; i < chunk_count; ++i) {
        const std::uint8_t *entry =
            bytes_.data() + kHeaderBytes + kChunkEntryBytes * i;
        ChunkInfo info;
        info.tag = loadU32(entry + 0);
        info.crc = loadU32(entry + 4);
        info.offset = loadU64(entry + 8);
        info.length = loadU64(entry + 16);

        if (info.length > limits_.maxChunkBytes)
            fail(ErrorKind::LimitExceeded,
                 "artifact: chunk " + std::to_string(i) + " of " +
                     path + " declares " +
                     std::to_string(info.length) + " bytes");
        if (info.offset < table_end ||
            checkedAdd(info.offset, info.length, "artifact chunk") >
                bytes_.size())
            fail(ErrorKind::Truncated,
                 "artifact: chunk " + std::to_string(i) + " of " +
                     path + " extends past the end of the file");
        for (const ChunkInfo &prev : chunks_)
            if (prev.tag == info.tag)
                fail(ErrorKind::Malformed,
                     "artifact: duplicate chunk tag in " + path);

        if (crc32(bytes_.data() + info.offset,
                  static_cast<std::size_t>(info.length)) != info.crc)
            fail(ErrorKind::ChecksumMismatch,
                 "artifact: chunk " + std::to_string(i) + " of " +
                     path + " fails its CRC check");
        chunks_.push_back(info);
    }
}

bool
ArtifactReader::has(std::uint32_t tag) const
{
    for (const ChunkInfo &c : chunks_)
        if (c.tag == tag)
            return true;
    return false;
}

ByteReader
ArtifactReader::chunk(std::uint32_t tag) const
{
    for (const ChunkInfo &c : chunks_) {
        if (c.tag == tag) {
            return ByteReader(
                {bytes_.data() + c.offset,
                 static_cast<std::size_t>(c.length)},
                path_ + ": chunk " + std::to_string(tag), limits_);
        }
    }
    fail(ErrorKind::Malformed, "artifact: " + path_ +
                                   " is missing required chunk " +
                                   std::to_string(tag));
}

// --- filesystem helpers -------------------------------------------------

void
atomicWriteFile(const std::string &path,
                std::span<const std::uint8_t> bytes)
{
    namespace fs = std::filesystem;
    const fs::path target(path);
    fs::path dir = target.parent_path();
    if (dir.empty())
        dir = ".";

    const std::string tmp =
        path + ".tmp." + std::to_string(::getpid());
    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                          0644);
    if (fd < 0)
        fail(ErrorKind::Io, "atomicWriteFile: cannot create " + tmp +
                                ": " + std::strerror(errno));

    std::size_t written = 0;
    while (written < bytes.size()) {
        const ssize_t n = ::write(fd, bytes.data() + written,
                                  bytes.size() - written);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            const int err = errno;
            ::close(fd);
            ::unlink(tmp.c_str());
            fail(ErrorKind::Io, "atomicWriteFile: write to " + tmp +
                                    " failed: " + std::strerror(err));
        }
        written += static_cast<std::size_t>(n);
    }
    if (::fsync(fd) != 0) {
        const int err = errno;
        ::close(fd);
        ::unlink(tmp.c_str());
        fail(ErrorKind::Io, "atomicWriteFile: fsync of " + tmp +
                                " failed: " + std::strerror(err));
    }
    ::close(fd);

    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        const int err = errno;
        ::unlink(tmp.c_str());
        fail(ErrorKind::Io, "atomicWriteFile: rename to " + path +
                                " failed: " + std::strerror(err));
    }

    // Persist the directory entry; failure here is not fatal to the
    // data (the rename is already durable-or-absent).
    const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (dfd >= 0) {
        ::fsync(dfd);
        ::close(dfd);
    }
}

std::string
quarantine(const std::string &path) noexcept
{
    namespace fs = std::filesystem;
    std::error_code ec;
    std::string dest = path + ".corrupt";
    for (int i = 1; fs::exists(dest, ec) && i < 100; ++i)
        dest = path + ".corrupt." + std::to_string(i);
    fs::rename(path, dest, ec);
    return ec ? std::string() : dest;
}

bool
isArtifactFile(const std::string &path, std::uint32_t *schema_kind)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return false;
    std::uint8_t head[12];
    is.read(reinterpret_cast<char *>(head), sizeof(head));
    if (!is || loadU32(head) != kMagic)
        return false;
    if (schema_kind)
        *schema_kind = loadU32(head + 8);
    return true;
}

void
recordRejection(obs::Observer *obs, ErrorKind kind)
{
    if (!obs)
        return;
    obs->metrics().counter("artifact_load_rejected_total").add();
    obs->metrics()
        .counter(std::string("artifact_load_rejected_total{reason=") +
                 toString(kind) + "}")
        .add();
}

} // namespace io
} // namespace mflstm
