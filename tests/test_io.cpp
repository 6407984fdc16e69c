#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>

#include "io/csv.h"
#include "io/log.h"
#include "io/model_artifact.h"

namespace df::io {
namespace {

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

void expect_kind(const std::function<void()>& fn, H5LiteError::Kind kind, const char* what) {
  try {
    fn();
    ADD_FAILURE() << what << ": no H5LiteError";
  } catch (const H5LiteError& e) {
    EXPECT_EQ(e.kind(), kind) << what << ": " << e.what();
  }
}

TEST(Container, RoundTripFloatAndIntSections) {
  const std::vector<float> pred = {1.5f, 2.5f, 3.5f, 4.5f};
  const std::vector<int64_t> ids = {10, 20, 30, 40};
  ArtifactWriter w;
  w.add_floats("pred", {2, 2}, pred.data());
  w.add_ints("ids", {4}, ids.data());
  const std::string path = temp_path("df_container_rt.dfca");
  w.save(path);

  const auto r = ArtifactReader::open(path);
  ASSERT_TRUE(r->has("pred"));
  ASSERT_TRUE(r->has("ids"));
  EXPECT_EQ(r->section("pred").dims, (std::vector<int64_t>{2, 2}));
  EXPECT_FLOAT_EQ(r->floats("pred", 4)[3], 4.5f);
  EXPECT_EQ(r->ints("ids", 4)[2], 30);
  // Sized reads check the element count as well as the dtype.
  expect_kind([&] { r->floats("pred", 3); }, H5LiteError::Kind::Format, "short float read");
  expect_kind([&] { r->ints("ids", 5); }, H5LiteError::Kind::Format, "long int read");
  expect_kind([&] { r->ints("pred", 4); }, H5LiteError::Kind::Format, "mistyped read");
  expect_kind([&] { r->scalar("ids"); }, H5LiteError::Kind::Format, "vector as scalar");
  std::filesystem::remove(path);
}

TEST(Container, MissingSectionThrowsFormat) {
  const std::string path = temp_path("df_container_missing.dfca");
  ArtifactWriter().save(path);
  const auto r = ArtifactReader::open(path);
  EXPECT_FALSE(r->has("nope"));
  expect_kind([&] { r->section("nope"); }, H5LiteError::Kind::Format, "missing section");
  expect_kind([&] { r->floats("nope", 1); }, H5LiteError::Kind::Format, "missing sized read");
  std::filesystem::remove(path);
}

TEST(Container, BadMagicRejected) {
  const std::string path = temp_path("df_container_bad.dfca");
  std::ofstream(path) << "this is not a container file at all";
  expect_kind([&] { ArtifactReader::open(path); }, H5LiteError::Kind::Format, "bad magic");
  std::filesystem::remove(path);
}

TEST(Container, TruncatedFileRejected) {
  const std::vector<float> x(100, 1.0f);
  ArtifactWriter w;
  w.add_floats("x", {100}, x.data());
  const std::string path = temp_path("df_container_trunc.dfca");
  w.save(path);
  std::filesystem::resize_file(path, 40);  // chop the payload
  expect_kind([&] { ArtifactReader::open(path); }, H5LiteError::Kind::Truncated, "truncation");
  std::filesystem::remove(path);
}

TEST(Container, NonexistentPathThrowsOpen) {
  expect_kind([] { ArtifactReader::open("/nonexistent/dir/x.dfca"); }, H5LiteError::Kind::Open,
              "read");
  expect_kind([] { ArtifactWriter().save("/nonexistent/dir/x.dfca"); }, H5LiteError::Kind::Open,
              "write");
}

TEST(Container, DtypesOtherThanFloatAndInt64RejectedAsFormat) {
  // The container holds float32 (dtype 0) and int64 (1) sections only.
  // A directory naming the old int8 (2) or int32 (3) dtype is Format at
  // open, even under a valid CRC. The section is empty, so its byte length
  // fits any dtype and only the dtype check can reject it.
  const std::string path = temp_path("df_container_dtype.dfca");
  ArtifactWriter w;
  w.add_floats("x", {0}, nullptr);
  // Header (16 bytes), then the section count, the name length and "x".
  constexpr size_t kDtypeAt = 16 + 4 + 4 + 1;
  for (const char dtype : {2, 3}) {
    w.save(path);
    std::string bytes;
    {
      std::ifstream f(path, std::ios::binary);
      bytes.assign(std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>());
    }
    ASSERT_EQ(bytes[kDtypeAt], 0);
    bytes[kDtypeAt] = dtype;
    // The CRC covers the payload: everything between the header and itself.
    const uint32_t crc = crc32(bytes.data() + 16, bytes.size() - 16 - 4);
    std::memcpy(bytes.data() + bytes.size() - 4, &crc, sizeof(crc));
    std::ofstream(path, std::ios::binary).write(bytes.data(),
                                                static_cast<std::streamsize>(bytes.size()));
    expect_kind([&] { ArtifactReader::open(path); }, H5LiteError::Kind::Format,
                dtype == 2 ? "int8 dtype" : "int32 dtype");
  }
  std::filesystem::remove(path);
}

TEST(Container, EmptyFileRoundTrips) {
  const std::string path = temp_path("df_container_empty.dfca");
  ArtifactWriter().save(path);
  EXPECT_TRUE(ArtifactReader::open(path)->sections().empty());
  std::filesystem::remove(path);
}

TEST(Container, SaveLeavesNoTempFile) {
  const float v[] = {1.0f, 2.0f};
  ArtifactWriter w;
  w.add_floats("w", {2}, v);
  const std::string path = temp_path("df_container_atomic.dfca");
  w.save(path);
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_FLOAT_EQ(ArtifactReader::open(path)->floats("w", 2)[1], 2.0f);
  std::filesystem::remove(path);
}

TEST(Container, StaleTempNeitherShadowsTheFileNorBlocksASave) {
  // A process killed between writing `path.tmp` and the rename leaves the
  // temp behind. It must never shadow the committed file, and a retried
  // save must still commit.
  const float v[] = {1.0f, 2.0f};
  ArtifactWriter w;
  w.add_floats("w", {2}, v);
  const std::string path = temp_path("df_container_stale.dfca");
  w.save(path);
  std::ofstream(path + ".tmp") << "torn write from a killed saver";

  EXPECT_FLOAT_EQ(ArtifactReader::open(path)->floats("w", 2)[0], 1.0f);
  // Opening leaves the temp alone: it may belong to a concurrent save of
  // the same path, whose rename would fail if a reader deleted it.
  EXPECT_TRUE(std::filesystem::exists(path + ".tmp"));

  w.save(path);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_FLOAT_EQ(ArtifactReader::open(path)->floats("w", 2)[1], 2.0f);
  std::filesystem::remove(path);
}

TEST(Csv, WritesHeaderAndRows) {
  const std::string path = temp_path("df_test.csv");
  {
    CsvWriter w(path, {"a", "b"});
    w.row({"1", "hello"});
    w.row_values({2.5, 3.5});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1,hello");
  std::getline(in, line);
  EXPECT_EQ(line, "2.5,3.5");
  std::filesystem::remove(path);
}

TEST(Csv, ColumnCountEnforced) {
  const std::string path = temp_path("df_test2.csv");
  CsvWriter w(path, {"a", "b"});
  EXPECT_THROW(w.row({"only one"}), std::invalid_argument);
  std::filesystem::remove(path);
}

TEST(Csv, EscapesSpecialCharacters) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Log, LevelFiltering) {
  set_log_level(LogLevel::Error);
  EXPECT_EQ(log_level(), LogLevel::Error);
  log_debug("should be suppressed");  // visually verified by absence
  set_log_level(LogLevel::Warn);
}

}  // namespace
}  // namespace df::io
