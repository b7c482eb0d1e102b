// bench::with_writes, the write mix of the write-path benches and of the
// repository benchmark's ec_write_crash workload, and bench::table2_points,
// the sweeps of Figs. 3-5.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

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

/// Panels whose paper values name their point ("b2" is MU = 10), with
/// `per_panel[p]` values in panel p.
std::array<PanelText, 4> panels(const std::array<std::size_t, 4>& per_panel) {
  static const char* const kNames[4][4] = {{"a1", "a2", "a3", "a4"},
                                           {"b1", "b2", "b3", "b4"},
                                           {"c1", "c2", "c3", "c4"},
                                           {"d1", "d2", "d3", "d4"}};
  std::array<PanelText, 4> out{};
  for (std::size_t p = 0; p < out.size(); ++p) {
    out[p] = {"", "", "", {kNames[p], kNames[p] + per_panel[p]}};
  }
  return out;
}

TEST(Table2Points, EachPanelSweepsOneParameter) {
  const std::vector<SweepPoint> points = table2_points(panels({4, 4, 4, 4}));
  std::vector<std::string> xs;
  for (const SweepPoint& point : points) xs.push_back(point.x);
  EXPECT_EQ(xs, (std::vector<std::string>{
                    "1", "10", "25", "50",          // data size, MB
                    "1", "10", "100", "1000",       // MU
                    "0", "350", "700", "1000",      // inter-arrival, ms
                    "10", "40", "70", "100"}));     // K
  EXPECT_STREQ(points[5].paper_note, "b2");
  EXPECT_EQ(points[0].workload.name,
            "synthetic[size=1MB mu=1000 ia=700ms n=1000]");
  EXPECT_EQ(points[5].workload.name,
            "synthetic[size=10MB mu=10 ia=700ms n=1000]");
  EXPECT_EQ(points[9].workload.name,
            "synthetic[size=10MB mu=1000 ia=350ms n=1000]");
  // K changes the cluster only.
  EXPECT_EQ(points[13].workload.name, paper_workload().name);
  EXPECT_EQ(points[13].config.prefetch_file_count, 40u);
  EXPECT_EQ(points[9].config.prefetch_file_count, Defaults::kPrefetch);
}

TEST(Table2Points, APanelWithFewerPaperValuesStopsEarly) {
  // Fig. 5(a) omits the 50 MB point.
  const std::vector<SweepPoint> points = table2_points(panels({3, 4, 4, 4}));
  ASSERT_EQ(points.size(), 15u);
  EXPECT_EQ(points[2].x, "25");
  EXPECT_STREQ(points[3].paper_note, "b1");
  std::array<PanelText, 4> too_many = panels({4, 4, 4, 4});
  too_many[2].paper.push_back("c5");
  EXPECT_THROW((void)table2_points(too_many), std::invalid_argument);
}

}  // namespace
}  // namespace eevfs::bench
