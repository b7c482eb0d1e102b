// bench::with_writes, the write mix of the write-path benches and of the
// repository benchmark's ec_write_crash workload.
#include <gtest/gtest.h>

#include <cstddef>
#include <limits>
#include <stdexcept>

#include "harness.hpp"
#include "trace/record.hpp"

namespace eevfs::bench {
namespace {

workload::Workload base_workload() {
  return paper_workload(Defaults::kDataMb, Defaults::kMu,
                        Defaults::kInterArrivalMs, 100);
}

std::size_t writes_in(const workload::Workload& w) {
  std::size_t writes = 0;
  for (const trace::TraceRecord& r : w.requests.records()) {
    if (r.op == trace::Op::kWrite) ++writes;
  }
  return writes;
}

TEST(WithWrites, MarksEveryFloorOfOneOverFthRequest) {
  // 0.3: ⌊1/0.3⌋ = 3, so one request in three, the third of each run.
  const workload::Workload w = with_writes(base_workload(), 0.3);
  for (std::size_t i = 0; i < w.requests.size(); ++i) {
    EXPECT_EQ(w.requests[i].op,
              (i + 1) % 3 == 0 ? trace::Op::kWrite : trace::Op::kRead)
        << "request " << i;
  }
  EXPECT_EQ(writes_in(w), 33u);
  EXPECT_EQ(writes_in(with_writes(base_workload(), 0.25)), 25u);
}

TEST(WithWrites, ChangesNothingButTheOperation) {
  const workload::Workload base = base_workload();
  const workload::Workload w = with_writes(base, 0.5);
  EXPECT_EQ(w.name, base.name + "+writes");
  EXPECT_EQ(w.file_sizes, base.file_sizes);
  EXPECT_EQ(w.requests.total_bytes(), base.requests.total_bytes());
  ASSERT_EQ(w.requests.size(), base.requests.size());
  for (std::size_t i = 0; i < w.requests.size(); ++i) {
    trace::TraceRecord r = w.requests[i];
    r.op = base.requests[i].op;
    EXPECT_EQ(r, base.requests[i]) << "request " << i;
  }
}

TEST(WithWrites, ZeroMarksNoneAndOneMarksAll) {
  EXPECT_EQ(writes_in(with_writes(base_workload(), 0.0)), 0u);
  EXPECT_EQ(writes_in(with_writes(base_workload(), 1.0)), 100u);
  // A period longer than the trace marks nothing.
  EXPECT_EQ(writes_in(with_writes(base_workload(), 1e-300)), 0u);
}

TEST(WithWrites, RejectsFractionsOutsideZeroToOne) {
  for (const double f : {-0.1, 1.5, std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW((void)with_writes(base_workload(), f), std::invalid_argument)
        << f;
  }
}

}  // namespace
}  // namespace eevfs::bench
