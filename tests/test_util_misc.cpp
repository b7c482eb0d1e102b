// Covers string helpers, the CSV writer, the FIFO ring and the thread
// pool.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>

#include "util/csv.hpp"
#include "util/fifo_ring.hpp"
#include "util/string_util.hpp"
#include "util/thread_pool.hpp"

namespace eevfs {
namespace {

TEST(StringUtil, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtil, SplitSingleToken) {
  const auto parts = split("hello", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "hello");
}

TEST(StringUtil, TrimRemovesWhitespaceBothEnds) {
  EXPECT_EQ(trim("  x y \t\r\n"), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t "), "");
}

TEST(StringUtil, StartsWith) {
  EXPECT_TRUE(starts_with("#eevfs-trace v1", "#eevfs"));
  EXPECT_FALSE(starts_with("abc", "abcd"));
  EXPECT_TRUE(starts_with("abc", ""));
}

TEST(StringUtil, FormatBehavesLikePrintf) {
  EXPECT_EQ(format("%d-%s-%.2f", 7, "x", 1.5), "7-x-1.50");
  EXPECT_EQ(format("%s", ""), "");
}

TEST(StringUtil, HumanBytes) {
  EXPECT_EQ(human_bytes(999.0), "999.0 B");
  EXPECT_EQ(human_bytes(10e6), "10.0 MB");
  EXPECT_EQ(human_bytes(1.5e9), "1.5 GB");
}

TEST(Csv, WritesHeaderAndRowsWithEscaping) {
  const auto path =
      (std::filesystem::temp_directory_path() / "eevfs_csv_test.csv").string();
  {
    CsvWriter csv(path, {"a", "b"});
    csv.row({"1", "plain"});
    csv.row({"2", "needs,quote"});
    csv.row({"3", "has \"quotes\""});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1,plain");
  std::getline(in, line);
  EXPECT_EQ(line, "2,\"needs,quote\"");
  std::getline(in, line);
  EXPECT_EQ(line, "3,\"has \"\"quotes\"\"\"");
  std::filesystem::remove(path);
}

TEST(Csv, RejectsWidthMismatch) {
  const auto path =
      (std::filesystem::temp_directory_path() / "eevfs_csv_test2.csv").string();
  CsvWriter csv(path, {"a", "b"});
  EXPECT_THROW(csv.row({"only-one"}), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(Csv, CellFormatsRoundTrip) {
  EXPECT_EQ(CsvWriter::cell(std::int64_t{-42}), "-42");
  EXPECT_EQ(CsvWriter::cell(std::uint64_t{42}), "42");
  EXPECT_EQ(std::stod(CsvWriter::cell(0.1)), 0.1);
}

TEST(FifoRing, KeepsOrderAcrossWrapAroundAndGrowth) {
  // A move-only payload.  Each round pushes one more element than it
  // pops, so the front walks around the buffer and the ring grows while
  // wrapped (capacity 1, 2, 4, 8, 16).
  FifoRing<std::unique_ptr<int>> ring;
  EXPECT_TRUE(ring.empty());
  int pushed = 0;
  int popped = 0;
  for (int round = 0; round < 8; ++round) {
    for (int i = 0; i <= round + 1; ++i) {
      ring.push_back(std::make_unique<int>(pushed++));
    }
    for (int i = 0; i <= round; ++i) {
      ASSERT_EQ(*ring.front(), popped++);
      ring.pop_front();
    }
    EXPECT_EQ(ring.size(), static_cast<std::size_t>(pushed - popped));
  }
  // Moving hands the elements over in order and leaves the source empty.
  FifoRing<std::unique_ptr<int>> moved = std::move(ring);
  EXPECT_TRUE(ring.empty());  // NOLINT(bugprone-use-after-move)
  while (!moved.empty()) {
    EXPECT_EQ(*moved.front(), popped++);
    moved.pop_front();
  }
  EXPECT_EQ(popped, pushed);
}

TEST(FifoRing, DestroyingANonEmptyRingDestroysWhatItHolds) {
  // Heap-held payloads: a ring that dropped them would also leak, which
  // the sanitizer build reports.
  struct Counted {
    explicit Counted(int* count) : destroyed(count) {}
    Counted(const Counted&) = delete;
    Counted& operator=(const Counted&) = delete;
    ~Counted() { ++*destroyed; }
    int* destroyed;
  };
  int destroyed = 0;
  {
    FifoRing<std::unique_ptr<Counted>> ring;
    for (int i = 0; i < 5; ++i) {
      ring.push_back(std::make_unique<Counted>(&destroyed));
    }
    ring.pop_front();
    ring.push_back(std::make_unique<Counted>(&destroyed));  // wraps
    EXPECT_EQ(destroyed, 1);
  }
  EXPECT_EQ(destroyed, 6);
}

TEST(ThreadPool, MapIndexedPreservesOrder) {
  ThreadPool pool(4);
  const auto out = pool.map_indexed(100, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ThreadPool, RunsTasksConcurrentlyEnough) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 32);
}

TEST(ThreadPool, ExceptionsPropagateThroughFutures) {
  ThreadPool pool(1);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, ZeroMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

}  // namespace
}  // namespace eevfs
