// Trace container, popularity analysis, text IO, and the append-only
// access log.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "trace/access_log.hpp"
#include "trace/io.hpp"
#include "trace/trace.hpp"
#include "workload/synthetic.hpp"
#include "workload/webtrace.hpp"

namespace eevfs::trace {
namespace {

Trace make_trace() {
  Trace t;
  t.append({seconds_to_ticks(0), 10 * kMB, 5, 0, Op::kRead});
  t.append({seconds_to_ticks(1), 5 * kMB, 3, 1, Op::kRead});
  t.append({seconds_to_ticks(2), 10 * kMB, 5, 0, Op::kRead});
  t.append({seconds_to_ticks(4), 10 * kMB, 5, 2, Op::kWrite});
  t.append({seconds_to_ticks(5), 1 * kMB, 7, 0, Op::kRead});
  return t;
}

TEST(Trace, AppendMaintainsCountsAndTotals) {
  const Trace t = make_trace();
  EXPECT_EQ(t.size(), 5u);
  EXPECT_EQ(t.unique_files(), 3u);
  const PopularityAnalyzer a(t);
  EXPECT_EQ(a.ranked()[a.rank(5)].accesses, 3u);
  EXPECT_EQ(a.ranked()[a.rank(3)].accesses, 1u);
  EXPECT_EQ(t.total_bytes(), 36 * kMB);
  EXPECT_EQ(t.duration(), seconds_to_ticks(5));
}

// A loaded trace may name any id; nothing per file is sized by the
// largest one.
TEST(Trace, SparseFileIds) {
  constexpr FileId kFar = 4'000'000'000u;
  Trace t;
  t.append({0, kMB, 3, 0, Op::kRead});
  t.append({1, 2 * kMB, kFar, 1, Op::kRead});
  t.append({2, kMB, 3, 0, Op::kRead});
  EXPECT_EQ(t.unique_files(), 2u);
  const PopularityAnalyzer a(t);
  ASSERT_EQ(a.ranked().size(), 2u);
  EXPECT_EQ(a.ranked()[0].file, 3u);
  EXPECT_EQ(a.ranked()[1].file, kFar);
  EXPECT_EQ(a.ranked()[1].bytes, 2 * kMB);
  EXPECT_EQ(a.rank(kFar), 1u);
}

TEST(Trace, RejectsOutOfOrderArrivals) {
  Trace t;
  t.append({100, 1, 1, 0, Op::kRead});
  EXPECT_THROW(t.append({99, 1, 1, 0, Op::kRead}), std::invalid_argument);
  t.append({100, 1, 2, 0, Op::kRead});  // equal arrivals are fine
}

TEST(Trace, EmptyTraceBasics) {
  const Trace t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.duration(), 0);
  EXPECT_EQ(t.unique_files(), 0u);
}

TEST(PopularityAnalyzer, RanksByCountThenId) {
  const Trace t = make_trace();
  const PopularityAnalyzer a(t);
  ASSERT_EQ(a.ranked().size(), 3u);
  EXPECT_EQ(a.ranked()[0].file, 5u);
  EXPECT_EQ(a.ranked()[0].accesses, 3u);
  // Files 3 and 7 tie on one access; the lower id ranks first.
  EXPECT_EQ(a.ranked()[1].file, 3u);
  EXPECT_EQ(a.ranked()[2].file, 7u);
  EXPECT_EQ(a.rank(5), 0u);
  EXPECT_EQ(a.rank(7), 2u);
  EXPECT_EQ(a.rank(999), PopularityAnalyzer::npos);
}

TEST(PopularityAnalyzer, TopAndCoverage) {
  const Trace t = make_trace();
  const PopularityAnalyzer a(t);
  EXPECT_EQ(a.top(1), (std::vector<FileId>{5}));
  EXPECT_EQ(a.top(10).size(), 3u);
  EXPECT_DOUBLE_EQ(a.coverage(1), 3.0 / 5.0);
  EXPECT_DOUBLE_EQ(a.coverage(3), 1.0);
  EXPECT_DOUBLE_EQ(a.coverage(0), 0.0);
}

TEST(PopularityAnalyzer, RankingKeepsOnlyAccessedFiles) {
  // One summary per file, as a run folds them; ten files are accessed.
  std::vector<FilePopularity> summaries(10'000);
  std::size_t total = 0;
  for (FileId f = 0; f < 10; ++f) {
    const FileId file = f * 1'000 + 7;
    summaries[file].add({seconds_to_ticks(f), kMB, file, 0, Op::kRead});
    ++total;
  }
  const PopularityAnalyzer a(std::move(summaries), total);
  EXPECT_EQ(a.ranked().size(), 10u);
  EXPECT_EQ(a.ranked().capacity(), 10u);
  EXPECT_EQ(a.ranked()[0].file, 7u);
}

// The trace constructor's hashed fold ranks exactly what the dense fold
// of Cluster::build hands the aggregate constructor.
void expect_folds_agree(const workload::Workload& w) {
  std::vector<FilePopularity> dense(w.num_files());
  for (const TraceRecord& r : w.requests.records()) dense.at(r.file).add(r);
  const PopularityAnalyzer hashed(w.requests);
  const PopularityAnalyzer aggregate(std::move(dense), w.requests.size());
  ASSERT_EQ(hashed.ranked().size(), aggregate.ranked().size());
  for (std::size_t i = 0; i < hashed.ranked().size(); ++i) {
    const FilePopularity& h = hashed.ranked()[i];
    const FilePopularity& d = aggregate.ranked()[i];
    EXPECT_EQ(h.file, d.file) << "rank " << i;
    EXPECT_EQ(h.accesses, d.accesses) << "rank " << i;
    EXPECT_EQ(h.bytes, d.bytes) << "rank " << i;
    EXPECT_EQ(h.first_access, d.first_access) << "rank " << i;
    EXPECT_EQ(h.last_access, d.last_access) << "rank " << i;
    EXPECT_EQ(h.mean_gap, d.mean_gap) << "rank " << i;
  }
  EXPECT_EQ(hashed.coverage(70), aggregate.coverage(70));
}

TEST(PopularityAnalyzer, TraceFoldMatchesAggregateFold) {
  workload::SyntheticConfig synthetic;
  synthetic.num_requests = 20'000;
  synthetic.size_sigma = 0.5;
  synthetic.inter_arrival_jitter = 1.0;
  expect_folds_agree(workload::generate_synthetic(synthetic));
  workload::WebTraceConfig web;
  web.num_requests = 20'000;
  expect_folds_agree(workload::generate_webtrace(web));
}

TEST(PopularityAnalyzer, MeanGapAndAccessTimes) {
  Trace t = make_trace();
  // File 9's gaps differ: 1 s and 3 s.
  t.append({seconds_to_ticks(6), 1 * kMB, 9, 1, Op::kRead});
  t.append({seconds_to_ticks(7), 1 * kMB, 9, 1, Op::kRead});
  t.append({seconds_to_ticks(10), 1 * kMB, 9, 1, Op::kRead});
  const PopularityAnalyzer a(t);
  const FilePopularity& hot = a.ranked()[a.rank(5)];
  EXPECT_EQ(hot.first_access, 0);
  EXPECT_EQ(hot.last_access, seconds_to_ticks(4));
  EXPECT_EQ(hot.mean_gap, seconds_to_ticks(2));  // gaps 2 s and 2 s
  const FilePopularity& uneven = a.ranked()[a.rank(9)];
  EXPECT_EQ(uneven.first_access, seconds_to_ticks(6));
  EXPECT_EQ(uneven.last_access, seconds_to_ticks(10));
  EXPECT_EQ(uneven.mean_gap, seconds_to_ticks(2));  // gaps 1 s and 3 s
  EXPECT_EQ(a.ranked()[a.rank(3)].mean_gap, 0);     // single access
}

TEST(TraceIo, RoundTripsThroughText) {
  const Trace t = make_trace();
  std::stringstream ss;
  write_trace(ss, t);
  const Trace back = read_trace(ss);
  ASSERT_EQ(back.size(), t.size());
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(back[i], t[i]) << "record " << i;
  }
}

TEST(TraceIo, AcceptsCommentsAndBlankLines) {
  std::stringstream ss;
  ss << kTraceMagic << "\n\n# a comment\n100 1 1000 r 0\n";
  const Trace t = read_trace(ss);
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t[0].file, 1u);
  EXPECT_EQ(t[0].op, Op::kRead);
}

TEST(TraceIo, RejectsMissingMagic) {
  std::stringstream ss("100 1 1000 r 0\n");
  EXPECT_THROW(read_trace(ss), std::runtime_error);
}

TEST(TraceIo, RejectsBadFieldCount) {
  std::stringstream ss;
  ss << kTraceMagic << "\n100 1 1000 r\n";
  EXPECT_THROW(read_trace(ss), std::runtime_error);
}

TEST(TraceIo, RejectsBadOp) {
  std::stringstream ss;
  ss << kTraceMagic << "\n100 1 1000 x 0\n";
  EXPECT_THROW(read_trace(ss), std::runtime_error);
}

TEST(TraceIo, RejectsBadNumber) {
  std::stringstream ss;
  ss << kTraceMagic << "\nabc 1 1000 r 0\n";
  EXPECT_THROW(read_trace(ss), std::runtime_error);
}

// Client ids are 16-bit: a wider one is refused, naming its line, rather
// than truncated.
TEST(TraceIo, RejectsClientIdPast16Bits) {
  std::stringstream ss;
  ss << kTraceMagic << "\n100 1 1000 r 65535\n200 1 1000 r 65536\n";
  try {
    (void)read_trace(ss);
    FAIL() << "client id 65536 was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

TEST(TraceIo, RejectsEmptyInput) {
  std::stringstream ss("");
  EXPECT_THROW(read_trace(ss), std::runtime_error);
}

TEST(TraceIo, FileRoundTrip) {
  const std::string path = "/tmp/eevfs_trace_test.trace";
  write_trace_file(path, make_trace());
  const Trace back = read_trace_file(path);
  EXPECT_EQ(back.size(), 5u);
  EXPECT_THROW(read_trace_file("/nonexistent/nope.trace"),
               std::runtime_error);
}

TEST(AccessLog, CountsAndRanks) {
  AccessLog log(3);
  log.append(1, 0);
  log.append(2, 10);
  log.append(1, 20);
  log.append(1, 30);
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.accesses(1), 3u);
  EXPECT_EQ(log.accesses(2), 1u);
  EXPECT_EQ(log.accesses(99), 0u);
  EXPECT_EQ(log.ranked(), (std::vector<FileId>{1, 2}));
  // Ties rank by id: file 0 and file 2 both have one access.
  log.append(0, 40);
  EXPECT_EQ(log.ranked(), (std::vector<FileId>{1, 0, 2}));
  // The log covers files 0..2 only.
  EXPECT_THROW(log.append(3, 50), std::out_of_range);
  EXPECT_EQ(log.size(), 5u);
}

TEST(AccessLog, RejectsTimeTravel) {
  AccessLog log(3);
  log.append(1, 100);
  EXPECT_THROW(log.append(2, 50), std::invalid_argument);
}

}  // namespace
}  // namespace eevfs::trace
