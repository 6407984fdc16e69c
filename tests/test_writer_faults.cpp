// Fault-injection tests for the sharded result writers (§4.2): damaged
// shards — missing, truncated, bit-flipped — must be *reported*, never
// silently dropped; the append-mode stream must salvage its valid prefix;
// and the stochastic fault injector must reproduce the §4.3 failure table.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>

#include "io/model_artifact.h"
#include "screen/cluster.h"
#include "screen/writer.h"

namespace df::screen {
namespace {

namespace fs = std::filesystem;

class WriterFaultsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("df_writer_faults_" +
            std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const std::string& name) const { return (dir_ / name).string(); }

  fs::path dir_;
};

void flip_byte(const std::string& path, std::streamoff offset_from_end) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.is_open());
  f.seekg(0, std::ios::end);
  const std::streamoff size = f.tellg();
  ASSERT_GT(size, offset_from_end);
  f.seekg(size - offset_from_end);
  char b;
  f.read(&b, 1);
  b = static_cast<char>(b ^ 0x5a);
  f.seekp(size - offset_from_end);
  f.write(&b, 1);
}

ShardBlock make_block(uint64_t unit, int64_t base, size_t rows) {
  ShardBlock b;
  b.unit_id = unit;
  for (size_t i = 0; i < rows; ++i) {
    b.compound_ids.push_back(base + static_cast<int64_t>(i));
    b.target_ids.push_back(static_cast<int64_t>(unit % 4));
    b.pose_ids.push_back(static_cast<int64_t>(i));
    b.predictions.push_back(static_cast<float>(base) + 0.25f * static_cast<float>(i));
  }
  return b;
}

// --- one-shot h5lite shards -----------------------------------------------

TEST_F(WriterFaultsTest, HealthyShardsReadComplete) {
  std::vector<int64_t> c{1, 2, 3, 4, 5}, t{0, 0, 1, 1, 2}, p{0, 1, 0, 1, 0};
  std::vector<float> y{1.f, 2.f, 3.f, 4.f, 5.f};
  const auto files = write_sharded_results(path("job"), 3, c, t, p, y);
  const GatheredResults g = read_sharded_results(files);
  EXPECT_TRUE(g.complete());
  EXPECT_EQ(g.predictions.size(), 5u);
}

TEST_F(WriterFaultsTest, MissingShardReported) {
  std::vector<int64_t> c{1, 2, 3, 4}, t{0, 0, 0, 0}, p{0, 1, 2, 3};
  std::vector<float> y{1.f, 2.f, 3.f, 4.f};
  const auto files = write_sharded_results(path("job"), 2, c, t, p, y);
  fs::remove(files[1]);
  const GatheredResults g = read_sharded_results(files);
  EXPECT_FALSE(g.complete());
  ASSERT_EQ(g.damage.size(), 1u);
  EXPECT_EQ(g.damage[0].kind, ShardDamageKind::MissingFile);
  EXPECT_EQ(g.damage[0].file, files[1]);
  EXPECT_EQ(g.predictions.size(), 2u);  // healthy shard still read
}

TEST_F(WriterFaultsTest, TruncatedShardReported) {
  std::vector<int64_t> c(64), t(64), p(64);
  std::vector<float> y(64, 1.0f);
  for (int i = 0; i < 64; ++i) c[static_cast<size_t>(i)] = i;
  const auto files = write_sharded_results(path("job"), 2, c, t, p, y);
  fs::resize_file(files[0], fs::file_size(files[0]) / 2);
  const GatheredResults g = read_sharded_results(files);
  ASSERT_EQ(g.damage.size(), 1u);
  EXPECT_EQ(g.damage[0].kind, ShardDamageKind::TruncatedBlock);
  EXPECT_EQ(g.predictions.size(), 32u);
}

TEST_F(WriterFaultsTest, CorruptShardReportedAsCrcMismatch) {
  std::vector<int64_t> c{1, 2, 3, 4}, t{0, 0, 0, 0}, p{0, 1, 2, 3};
  std::vector<float> y{1.f, 2.f, 3.f, 4.f};
  const auto files = write_sharded_results(path("job"), 2, c, t, p, y);
  flip_byte(files[0], 9);  // inside the float payload, not the trailing CRC
  const GatheredResults g = read_sharded_results(files);
  ASSERT_EQ(g.damage.size(), 1u);
  EXPECT_EQ(g.damage[0].kind, ShardDamageKind::CrcMismatch);
  EXPECT_EQ(g.predictions.size(), 2u);
}

TEST_F(WriterFaultsTest, GarbageFileReportedAsBadHeader) {
  std::ofstream(path("garbage.h5lt")) << "not an h5lite file";
  const GatheredResults g = read_sharded_results({path("garbage.h5lt")});
  ASSERT_EQ(g.damage.size(), 1u);
  EXPECT_EQ(g.damage[0].kind, ShardDamageKind::BadHeader);
}

// --- append-mode campaign shards ------------------------------------------

TEST_F(WriterFaultsTest, ShardStreamRoundTrip) {
  const std::string p = shard_stream_path(path("camp"), 0);
  {
    ShardStream s(p);
    s.append(make_block(0, 100, 5));
    s.append(make_block(2, 200, 3));
  }
  {
    ShardStream s(p);  // reopen appends, does not rewrite
    s.append(make_block(4, 300, 4));
  }
  const ShardScan scan = scan_shard_stream(p);
  EXPECT_TRUE(scan.damage.empty());
  ASSERT_EQ(scan.blocks.size(), 3u);
  EXPECT_EQ(scan.blocks[0].unit_id, 0u);
  EXPECT_EQ(scan.blocks[1].unit_id, 2u);
  EXPECT_EQ(scan.blocks[2].unit_id, 4u);
  EXPECT_EQ(scan.rows(), 12);
  EXPECT_FLOAT_EQ(scan.blocks[1].predictions[2], 200.5f);
  EXPECT_EQ(scan.blocks[2].compound_ids[3], 303);
}

TEST_F(WriterFaultsTest, TornTailSalvagesValidPrefix) {
  const std::string p = shard_stream_path(path("camp"), 0);
  {
    ShardStream s(p);
    s.append(make_block(0, 100, 5));
    s.append(make_block(1, 200, 5));
  }
  tear_shard_tail(p, 7);  // crash mid-append of block 1
  const ShardScan scan = scan_shard_stream(p);
  ASSERT_EQ(scan.damage.size(), 1u);
  EXPECT_EQ(scan.damage[0].kind, ShardDamageKind::TruncatedBlock);
  EXPECT_EQ(scan.damage[0].rows_recovered, 5);
  ASSERT_EQ(scan.blocks.size(), 1u);
  EXPECT_EQ(scan.blocks[0].unit_id, 0u);
}

TEST_F(WriterFaultsTest, BitFlipStopsScanWithCrcMismatch) {
  const std::string p = shard_stream_path(path("camp"), 0);
  {
    ShardStream s(p);
    s.append(make_block(0, 100, 5));
    s.append(make_block(1, 200, 5));
  }
  flip_byte(p, 20);  // inside block 1's payload
  const ShardScan scan = scan_shard_stream(p);
  ASSERT_EQ(scan.damage.size(), 1u);
  EXPECT_EQ(scan.damage[0].kind, ShardDamageKind::CrcMismatch);
  ASSERT_EQ(scan.blocks.size(), 1u);
}

TEST_F(WriterFaultsTest, MissingStreamReported) {
  const ShardScan scan = scan_shard_stream(path("nope.dfsh"));
  ASSERT_EQ(scan.damage.size(), 1u);
  EXPECT_EQ(scan.damage[0].kind, ShardDamageKind::MissingFile);
}

TEST_F(WriterFaultsTest, CompactDropsUnvouchedAndDamagedBlocks) {
  const std::string p = shard_stream_path(path("camp"), 0);
  {
    ShardStream s(p);
    s.append(make_block(0, 100, 4));
    s.append(make_block(1, 200, 4));
    s.append(make_block(2, 300, 4));
  }
  tear_shard_tail(p, 5);  // block 2 torn
  compact_shard_stream(p, [](uint64_t unit) { return unit != 1; });  // drop block 1
  const ShardScan scan = scan_shard_stream(p);
  EXPECT_TRUE(scan.damage.empty());
  ASSERT_EQ(scan.blocks.size(), 1u);
  EXPECT_EQ(scan.blocks[0].unit_id, 0u);
  // Appending after compaction continues the stream.
  {
    ShardStream s(p);
    s.append(make_block(7, 700, 2));
  }
  EXPECT_EQ(scan_shard_stream(p).blocks.size(), 2u);
}

TEST_F(WriterFaultsTest, CompactKeepsEachUnitsLastBlockInAppendOrder) {
  // Unit 0 ran, unit 1 ran, then unit 0 ran again with other predictions
  // (its first block outlived a kill): the re-run's block is the one kept,
  // after unit 1's, as the resume scan would read them.
  const std::string p = shard_stream_path(path("camp"), 0);
  {
    ShardStream s(p);
    s.append(make_block(0, 100, 3));
    s.append(make_block(1, 200, 2));
    s.append(make_block(0, 500, 3));
  }
  compact_shard_stream(p, [](uint64_t) { return true; });
  const ShardScan scan = scan_shard_stream(p);
  EXPECT_TRUE(scan.damage.empty());
  ASSERT_EQ(scan.blocks.size(), 2u);
  EXPECT_EQ(scan.blocks[0].unit_id, 1u);
  EXPECT_EQ(scan.blocks[0].predictions, make_block(1, 200, 2).predictions);
  EXPECT_EQ(scan.blocks[1].unit_id, 0u);
  EXPECT_EQ(scan.blocks[1].predictions, make_block(0, 500, 3).predictions);
  EXPECT_EQ(scan.blocks[1].compound_ids, make_block(0, 500, 3).compound_ids);
}

TEST_F(WriterFaultsTest, ManifestDetectsPostRunDamage) {
  const std::string prefix = path("camp");
  {
    ShardStream a(shard_stream_path(prefix, 0));
    a.append(make_block(0, 100, 4));
    ShardStream b(shard_stream_path(prefix, 1));
    b.append(make_block(1, 200, 4));
  }
  write_shard_manifest(prefix, 2);
  EXPECT_TRUE(verify_shard_manifest(prefix).empty());

  flip_byte(shard_stream_path(prefix, 0), 10);
  auto damage = verify_shard_manifest(prefix);
  ASSERT_EQ(damage.size(), 1u);
  EXPECT_EQ(damage[0].kind, ShardDamageKind::CrcMismatch);

  fs::remove(shard_stream_path(prefix, 1));
  damage = verify_shard_manifest(prefix);
  ASSERT_EQ(damage.size(), 2u);
  EXPECT_EQ(damage[1].kind, ShardDamageKind::MissingFile);
}

TEST_F(WriterFaultsTest, ManifestItselfProtected) {
  const std::string prefix = path("camp");
  ShardStream(shard_stream_path(prefix, 0)).close();
  write_shard_manifest(prefix, 1);
  flip_byte(shard_manifest_path(prefix), 6);
  const auto damage = verify_shard_manifest(prefix);
  ASSERT_EQ(damage.size(), 1u);
  EXPECT_EQ(damage[0].file, shard_manifest_path(prefix));
}

// --- §4.3 failure statistics ----------------------------------------------

TEST(FaultInjector, StochasticRatesMatchPaperTable) {
  // Empirical failure rate over many independent (unit, attempt) draws must
  // track the §4.3 table: ~2% at 1-2 nodes, ~3% at 4, ~20% at 8. Tolerance
  // is ~4 sigma of the binomial at n=6000.
  StochasticFaultInjector inj;
  const int n = 6000;
  for (const int nodes : {1, 2, 4, 8}) {
    const int ranks = nodes * 4;
    int failures = 0;
    for (int u = 0; u < n; ++u) {
      const int rank = inj.doomed_rank(/*campaign_seed=*/2021, static_cast<uint32_t>(u),
                                       /*attempt=*/0, nodes, ranks);
      if (rank >= 0) {
        ++failures;
        EXPECT_LT(rank, ranks);
      }
    }
    const double p = job_failure_probability(nodes);
    const double rate = static_cast<double>(failures) / n;
    const double tol = 4.0 * std::sqrt(p * (1.0 - p) / n);
    EXPECT_NEAR(rate, p, tol) << "nodes=" << nodes;
  }
}

TEST(FaultInjector, DecisionsAreReplayable) {
  StochasticFaultInjector inj;
  for (uint32_t u = 0; u < 200; ++u) {
    for (int attempt = 0; attempt < 3; ++attempt) {
      const int a = inj.doomed_rank(7, u, attempt, 8, 8);
      const int b = inj.doomed_rank(7, u, attempt, 8, 8);
      EXPECT_EQ(a, b);
    }
  }
}

TEST(FaultInjector, ScriptedKillsExactlyWhatItWasTold) {
  ScriptedFaultInjector inj;
  inj.doom(3, 0, 2);
  inj.doom(3, 1, 0);
  EXPECT_EQ(inj.doomed_rank(1, 3, 0, 4, 16), 2);
  EXPECT_EQ(inj.doomed_rank(1, 3, 1, 4, 16), 0);
  EXPECT_EQ(inj.doomed_rank(1, 3, 2, 4, 16), -1);
  EXPECT_EQ(inj.doomed_rank(1, 4, 0, 4, 16), -1);
}

}  // namespace
}  // namespace df::screen
