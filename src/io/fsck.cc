#include "io/fsck.hh"

#include <algorithm>
#include <filesystem>

namespace mflstm {
namespace io {

namespace {

const char *
schemaName(std::uint32_t kind)
{
    switch (kind) {
    case kSchemaModel: return "container/model";
    case kSchemaCalibration: return "container/calibration";
    case kSchemaEngineState: return "container/engine-state";
    case kSchemaTunedPlan: return "container/tuned-plan";
    default: return "container/unknown-schema";
    }
}

bool
isResidue(const std::string &name)
{
    return name.find(".corrupt") != std::string::npos ||
           name.find(".tmp.") != std::string::npos;
}

} // anonymous namespace

std::size_t
FsckReport::corruptCount() const
{
    return static_cast<std::size_t>(
        std::count_if(entries.begin(), entries.end(),
                      [](const FsckEntry &e) { return !e.ok; }));
}

FsckEntry
fsckFile(const std::string &path, const ArtifactLimits &limits,
         const DeepVerifier &deep)
{
    FsckEntry entry;
    entry.path = path;

    std::uint32_t schema = 0;
    if (isArtifactFile(path, &schema)) {
        entry.format = schemaName(schema);
        try {
            const ArtifactReader reader(path, /*any schema*/ 0, limits);
            entry.chunks = reader.chunks().size();
            if (deep)
                deep(path, reader.schemaKind());
            entry.ok = true;
        } catch (const ArtifactError &e) {
            entry.detail = e.what();
            entry.kind = e.kind();
        } catch (const std::exception &e) {
            entry.detail = e.what();
            entry.kind = ErrorKind::Malformed;
        }
        return entry;
    }

    entry.detail = "not an artifact container";
    entry.kind = ErrorKind::BadMagic;
    return entry;
}

FsckReport
fsckDirectory(const std::string &dir, const ArtifactLimits &limits,
              const DeepVerifier &deep)
{
    namespace fs = std::filesystem;
    FsckReport report;

    std::error_code ec;
    fs::directory_iterator it(dir, ec);
    if (ec)
        return report;

    std::vector<std::string> paths;
    for (const fs::directory_entry &e : it)
        if (e.is_regular_file(ec))
            paths.push_back(e.path().string());
    std::sort(paths.begin(), paths.end());

    for (const std::string &path : paths) {
        const std::string name = fs::path(path).filename().string();
        if (isResidue(name)) {
            FsckEntry skipped;
            skipped.path = path;
            skipped.format = "skipped";
            skipped.ok = true;
            skipped.detail = "quarantine/temp residue";
            report.entries.push_back(std::move(skipped));
            continue;
        }
        report.entries.push_back(fsckFile(path, limits, deep));
    }
    return report;
}

} // namespace io
} // namespace mflstm
