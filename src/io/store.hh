/**
 * @file
 * Shared model-artifact store (DESIGN.md §16): one directory of named
 * artifact-container files shared by every engine replica in a fleet.
 * Readers open freely (the containers are self-validating, §11);
 * writers must hold the per-artifact single-writer lock so two
 * replicas recovering at once cannot interleave a save.
 *
 * The lock is a sidecar file `<name>.lock` created with
 * O_CREAT|O_EXCL — the atomic create either succeeds (lock acquired)
 * or fails (someone else is writing), with no in-process state, so it
 * also excludes writers in other processes sharing the directory.
 * WriteLock is RAII: destruction unlinks the sidecar. A crashed
 * writer's stale lock is surfaced as ArtifactError(Io) naming the
 * sidecar, never silently stolen: an operator removes a stale
 * `<name>.lock` by hand, and no restart path does.
 */

#ifndef MFLSTM_IO_STORE_HH
#define MFLSTM_IO_STORE_HH

#include <string>

#include "io/artifact.hh"

namespace mflstm {
namespace io {

class ArtifactStore
{
  public:
    /**
     * Opens (creating if needed) the store directory.
     * @throws ArtifactError(Io) when the directory cannot be created.
     */
    explicit ArtifactStore(std::string dir);

    const std::string &dir() const { return dir_; }

    /**
     * Absolute path of artifact @p name inside the store.
     * @throws ArtifactError(Malformed) on an empty name or one that
     *         escapes the directory ('/', "..").
     */
    std::string path(const std::string &name) const;

    /** Holds the single-writer lock for one artifact until destroyed. */
    class WriteLock
    {
      public:
        WriteLock(const WriteLock &) = delete;
        WriteLock &operator=(const WriteLock &) = delete;
        ~WriteLock();

        const std::string &lockPath() const { return lockPath_; }

      private:
        friend class ArtifactStore;
        explicit WriteLock(std::string lock_path);

        std::string lockPath_;
    };

    /**
     * Acquire the single-writer lock for artifact @p name.
     * @throws ArtifactError(Io) when another writer already holds it
     *         (the message names the sidecar file).
     */
    WriteLock lockForWrite(const std::string &name) const;

  private:
    std::string lockPath(const std::string &name) const;

    std::string dir_;
};

} // namespace io
} // namespace mflstm

#endif // MFLSTM_IO_STORE_HH
