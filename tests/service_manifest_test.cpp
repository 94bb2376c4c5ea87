// Manifest durability semantics: round-trip, torn-tail tolerance,
// duplicate tolerance, and corruption detection — the exact damage
// model an interrupted writer can produce, and nothing laxer.

#include <gtest/gtest.h>

#include <filesystem>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "src/service/manifest.h"
#include "src/support/file_lock.h"

namespace dynbcast {
namespace {

class ServiceManifestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One directory per test: ctest runs the cases as parallel
    // processes, and a shared one would be removed under a sibling.
    dir_ = ::testing::TempDir() + "dynbcast_manifest_test_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);  // stale state from prior runs
    makeDirectories(dir_);
  }

  [[nodiscard]] std::string path(const std::string& name) const {
    return dir_ + "/" + name;
  }

  std::string dir_;
};

constexpr char kRequest[] = "seed=1 seeds=2 sizes=4,8";

TEST_F(ServiceManifestTest, MissingFileIsNullopt) {
  EXPECT_FALSE(loadManifest(path("absent.manifest")).has_value());
}

TEST_F(ServiceManifestTest, HeaderAndRecordsRoundTrip) {
  const std::string manifest = path("roundtrip.manifest");
  initManifest(manifest, kRequest, 4);

  auto fresh = loadManifest(manifest);
  ASSERT_TRUE(fresh.has_value());
  EXPECT_EQ(fresh->canonicalRequest, kRequest);
  EXPECT_EQ(fresh->taskCount, 4u);
  EXPECT_EQ(fresh->doneCount, 0u);
  EXPECT_FALSE(fresh->complete());
  EXPECT_EQ(fresh->pending(0, 4), (std::vector<std::size_t>{0, 1, 2, 3}));

  appendTaskRecord(manifest, {2, 17, true});
  appendTaskRecord(manifest, {0, 5, false});

  auto partial = loadManifest(manifest);
  ASSERT_TRUE(partial.has_value());
  EXPECT_EQ(partial->doneCount, 2u);
  ASSERT_TRUE(partial->records[2].has_value());
  EXPECT_EQ(partial->records[2]->rounds, 17u);
  EXPECT_TRUE(partial->records[2]->completed);
  ASSERT_TRUE(partial->records[0].has_value());
  EXPECT_EQ(partial->records[0]->rounds, 5u);
  EXPECT_FALSE(partial->records[0]->completed);
  EXPECT_EQ(partial->pending(0, 4), (std::vector<std::size_t>{1, 3}));
  // Range views clamp and restrict.
  EXPECT_EQ(partial->pending(2, 100), (std::vector<std::size_t>{3}));

  appendTaskRecord(manifest, {1, 3, true});
  appendTaskRecord(manifest, {3, 9, true});
  auto done = loadManifest(manifest);
  ASSERT_TRUE(done.has_value());
  EXPECT_TRUE(done->complete());
}

TEST_F(ServiceManifestTest, TornTailLineIsSkipped) {
  const std::string manifest = path("torn.manifest");
  initManifest(manifest, kRequest, 3);
  appendTaskRecord(manifest, {0, 7, true});

  // A writer killed mid-write leaves a partial final line with no
  // terminator; the record must simply not count.
  auto content = readFileIfExists(manifest);
  ASSERT_TRUE(content.has_value());
  writeFileDurable(manifest, *content + "done 1 4");

  auto state = loadManifest(manifest);
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(state->doneCount, 1u);
  EXPECT_FALSE(state->records[1].has_value());
  EXPECT_EQ(state->pending(0, 3), (std::vector<std::size_t>{1, 2}));
}

TEST_F(ServiceManifestTest, DuplicateAndOutOfRangeRecordsAreTolerated) {
  const std::string manifest = path("dup.manifest");
  initManifest(manifest, kRequest, 2);
  appendTaskRecord(manifest, {1, 6, true});
  appendTaskRecord(manifest, {1, 6, true});   // duplicate (idempotent)
  appendTaskRecord(manifest, {9, 1, true});   // out of range → ignored

  auto state = loadManifest(manifest);
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(state->doneCount, 1u);
  ASSERT_TRUE(state->records[1].has_value());
  EXPECT_EQ(state->records[1]->rounds, 6u);
}

TEST_F(ServiceManifestTest, CorruptHeaderThrows) {
  const std::string wrongVersion = path("wrong_version.manifest");
  writeFileDurable(wrongVersion, "DYNBCAST-MANIFEST/99\nrequest x\ntasks 1\n");
  EXPECT_THROW((void)loadManifest(wrongVersion), std::runtime_error);

  const std::string truncated = path("truncated.manifest");
  writeFileDurable(truncated, std::string(kManifestVersion) + "\n");
  EXPECT_THROW((void)loadManifest(truncated), std::runtime_error);
}

TEST_F(ServiceManifestTest, InitTruncatesAnExistingManifest) {
  const std::string manifest = path("reinit.manifest");
  initManifest(manifest, kRequest, 2);
  appendTaskRecord(manifest, {0, 4, true});
  initManifest(manifest, kRequest, 2);  // fresh job, same identity

  auto state = loadManifest(manifest);
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(state->doneCount, 0u);
}

}  // namespace
}  // namespace dynbcast
