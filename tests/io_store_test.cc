/**
 * @file
 * Shared artifact store tests (DESIGN.md §16). The contract: the
 * per-artifact write lock is exclusive (O_CREAT|O_EXCL sidecar —
 * second acquisition throws ArtifactError(Io)), released exactly when
 * the RAII WriteLock dies, and a stale lock left by a crashed writer
 * is never silently stolen — only an operator removing the sidecar by
 * hand clears it. Artifact names must not escape the store directory.
 */

#include <filesystem>
#include <fstream>

#include <unistd.h>

#include <gtest/gtest.h>

#include "io/store.hh"

namespace {

using namespace mflstm;
using namespace mflstm::io;

class StoreTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        dir_ = std::filesystem::temp_directory_path() /
               ("mflstm_store_test_" + std::to_string(::getpid()));
        std::filesystem::create_directories(dir_);
    }
    void TearDown() override
    {
        std::error_code ec;
        std::filesystem::remove_all(dir_, ec);
    }

    std::filesystem::path dir_;
};

/** Is the write lock of @p name held: does its sidecar exist? */
bool
lockHeld(const ArtifactStore &store, const std::string &name)
{
    return std::filesystem::exists(store.path(name) + ".lock");
}

TEST_F(StoreTest, CreatesDirectoryAndResolvesPaths)
{
    const std::string sub = (dir_ / "nested" / "store").string();
    ArtifactStore store(sub);
    EXPECT_TRUE(std::filesystem::is_directory(sub));
    EXPECT_EQ(store.path("model.bin"),
              (std::filesystem::path(sub) / "model.bin").string());
    EXPECT_FALSE(std::filesystem::exists(store.path("model.bin")));
}

TEST_F(StoreTest, RejectsNamesThatEscapeTheDirectory)
{
    ArtifactStore store(dir_.string());
    for (const std::string bad :
         {"", "a/b", "../evil", "..", "sub/../../evil"}) {
        try {
            store.path(bad);
            FAIL() << "accepted \"" << bad << "\"";
        } catch (const ArtifactError &e) {
            EXPECT_EQ(e.kind(), ErrorKind::Malformed) << bad;
        }
    }
}

TEST_F(StoreTest, WriteLockIsExclusive)
{
    ArtifactStore store(dir_.string());
    {
        const ArtifactStore::WriteLock lock =
            store.lockForWrite("state.bin");
        EXPECT_TRUE(lockHeld(store, "state.bin"));

        // A second writer (same or another process — the sidecar is
        // the only state) must fail with a typed Io error, not block
        // or steal.
        try {
            store.lockForWrite("state.bin");
            FAIL() << "double acquisition succeeded";
        } catch (const ArtifactError &e) {
            EXPECT_EQ(e.kind(), ErrorKind::Io);
            EXPECT_NE(std::string(e.what()).find("state.bin.lock"),
                      std::string::npos);
        }

        // Unrelated artifacts lock independently.
        const ArtifactStore::WriteLock other =
            store.lockForWrite("other.bin");
        EXPECT_TRUE(lockHeld(store, "other.bin"));
    }  // RAII release
    EXPECT_FALSE(lockHeld(store, "state.bin"));
    EXPECT_FALSE(lockHeld(store, "other.bin"));
    EXPECT_NO_THROW(store.lockForWrite("state.bin"));
}

TEST_F(StoreTest, StaleLockSurfacesUntilBroken)
{
    ArtifactStore store(dir_.string());
    // Simulate a crashed writer: the sidecar exists with no owner.
    std::ofstream(store.path("state.bin") + ".lock").put('\n');
    EXPECT_THROW(store.lockForWrite("state.bin"), ArtifactError);
    EXPECT_TRUE(lockHeld(store, "state.bin"));  // a writer never steals

    // Recovery is an operator removing the sidecar by hand.
    std::filesystem::remove(store.path("state.bin") + ".lock");
    EXPECT_NO_THROW(store.lockForWrite("state.bin"));
}

} // namespace
