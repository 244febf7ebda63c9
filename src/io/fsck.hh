/**
 * @file
 * Artifact cache verification (the engine behind `mflstm fsck`).
 * Container-level checks live here (header, chunk table, every CRC);
 * schema-aware deep verification (actually decoding a model or a
 * calibration) is layered on top by the caller through a DeepVerifier,
 * keeping src/io independent of the domain libraries.
 */

#ifndef MFLSTM_IO_FSCK_HH
#define MFLSTM_IO_FSCK_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "io/artifact.hh"

namespace mflstm {
namespace io {

/** Verification outcome for one file. */
struct FsckEntry
{
    std::string path;
    /// "container/<schema>" or "unknown"
    std::string format = "unknown";
    bool ok = false;
    /// chunk count for containers (diagnostic)
    std::size_t chunks = 0;
    /// rejection reason when !ok
    std::string detail;
    /// typed reason when !ok (metrics label)
    ErrorKind kind = ErrorKind::Malformed;
};

/** Verification outcome for a whole cache directory. */
struct FsckReport
{
    std::vector<FsckEntry> entries;

    std::size_t corruptCount() const;
    bool allOk() const { return corruptCount() == 0; }
};

/**
 * Schema-aware deep check invoked after the container structure
 * validated. Receives the file path and its schema kind; throws
 * ArtifactError (or any std::exception) to report corruption. May
 * ignore unknown schemas.
 */
using DeepVerifier =
    std::function<void(const std::string &path, std::uint32_t schema)>;

/**
 * Verify one file: container structure + every chunk CRC, then the
 * optional @p deep check. Files without the container magic are
 * classified "unknown" and report ok=false with BadMagic.
 */
FsckEntry fsckFile(const std::string &path,
                   const ArtifactLimits &limits = {},
                   const DeepVerifier &deep = nullptr);

/**
 * fsckFile over every regular file in @p dir (non-recursive, skipping
 * `.corrupt` quarantine leftovers and `.tmp.*` atomic-write residue,
 * which are reported as skipped entries with ok=true). A missing
 * directory yields an empty report.
 */
FsckReport fsckDirectory(const std::string &dir,
                         const ArtifactLimits &limits = {},
                         const DeepVerifier &deep = nullptr);

} // namespace io
} // namespace mflstm

#endif // MFLSTM_IO_FSCK_HH
