#include "io/store.hh"

#include <cerrno>
#include <cstring>
#include <filesystem>

#include <fcntl.h>
#include <unistd.h>

namespace mflstm {
namespace io {

namespace fs = std::filesystem;

namespace {

constexpr const char *kLockSuffix = ".lock";

} // anonymous namespace

ArtifactStore::ArtifactStore(std::string dir) : dir_(std::move(dir))
{
    if (dir_.empty())
        throw ArtifactError(ErrorKind::Malformed,
                            "ArtifactStore: empty directory");
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec || !fs::is_directory(dir_))
        throw ArtifactError(ErrorKind::Io,
                            "ArtifactStore: cannot create directory " +
                                dir_ + ": " + ec.message());
}

std::string
ArtifactStore::path(const std::string &name) const
{
    if (name.empty() || name.find('/') != std::string::npos ||
        name.find("..") != std::string::npos)
        throw ArtifactError(ErrorKind::Malformed,
                            "ArtifactStore: bad artifact name \"" +
                                name + "\"");
    return dir_ + "/" + name;
}

std::string
ArtifactStore::lockPath(const std::string &name) const
{
    return path(name) + kLockSuffix;
}

ArtifactStore::WriteLock::WriteLock(std::string lock_path)
    : lockPath_(std::move(lock_path))
{}

ArtifactStore::WriteLock::~WriteLock()
{
    ::unlink(lockPath_.c_str());
}

ArtifactStore::WriteLock
ArtifactStore::lockForWrite(const std::string &name) const
{
    const std::string lock = lockPath(name);
    // O_EXCL makes create-if-absent atomic: exactly one contender
    // gets the fd, everyone else sees EEXIST.
    const int fd =
        ::open(lock.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
    if (fd < 0) {
        const int err = errno;
        throw ArtifactError(
            ErrorKind::Io,
            err == EEXIST
                ? "ArtifactStore: \"" + name +
                      "\" is locked by another writer (" + lock + ")"
                : "ArtifactStore: cannot create lock " + lock + ": " +
                      std::strerror(err));
    }
    ::close(fd);
    return WriteLock(lock);
}

} // namespace io
} // namespace mflstm
