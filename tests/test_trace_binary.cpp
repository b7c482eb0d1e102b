// Binary trace format: round trips, format sniffing, corruption handling.
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "trace/io.hpp"
#include "util/rng.hpp"
#include "workload/synthetic.hpp"

namespace eevfs::trace {
namespace {

Trace random_trace(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  Trace t;
  Tick at = 0;
  for (std::size_t i = 0; i < n; ++i) {
    TraceRecord r;
    r.arrival = at;
    r.file = static_cast<FileId>(rng.next_below(5000));
    r.bytes = rng.next_below(100 * kMB) + 1;
    r.op = rng.next_below(2) ? Op::kWrite : Op::kRead;
    r.client = static_cast<ClientId>(rng.next_below(16));
    t.append(r);
    at += static_cast<Tick>(rng.next_below(kTicksPerSecond));
  }
  return t;
}

TEST(BinaryTrace, RoundTripsExactly) {
  const Trace t = random_trace(1, 500);
  std::stringstream ss;
  write_trace_binary(ss, t);
  const Trace back = read_trace_binary(ss);
  ASSERT_EQ(back.size(), t.size());
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(back[i], t[i]) << "record " << i;
  }
}

TEST(BinaryTrace, EmptyTraceRoundTrips) {
  std::stringstream ss;
  write_trace_binary(ss, Trace{});
  EXPECT_EQ(read_trace_binary(ss).size(), 0u);
}

TEST(BinaryTrace, IsSmallerThanText) {
  const Trace t = random_trace(2, 2000);
  std::stringstream text, binary;
  write_trace(text, t);
  write_trace_binary(binary, t);
  EXPECT_LT(binary.str().size(), text.str().size());
  // Fixed 25-byte records + 16-byte header.
  EXPECT_EQ(binary.str().size(), 16u + 25u * t.size());
}

TEST(BinaryTrace, RejectsBadMagic) {
  std::stringstream ss("NOPE-and-some-more-bytes");
  EXPECT_THROW(read_trace_binary(ss), std::runtime_error);
}

TEST(BinaryTrace, RejectsTruncatedInput) {
  const Trace t = random_trace(3, 50);
  std::stringstream ss;
  write_trace_binary(ss, t);
  const std::string whole = ss.str();
  for (const std::size_t cut : {whole.size() - 1, whole.size() / 2,
                                std::size_t{17}, std::size_t{5}}) {
    std::stringstream trunc(whole.substr(0, cut));
    EXPECT_THROW(read_trace_binary(trunc), std::runtime_error)
        << "cut at " << cut;
  }
}

TEST(BinaryTrace, RejectsBadOpByte) {
  std::stringstream ss;
  Trace t;
  t.append({0, 2, 1, 3, Op::kRead});
  write_trace_binary(ss, t);
  std::string s = ss.str();
  s[16 + 8 + 4 + 8] = 7;  // op byte of record 0
  std::stringstream bad(s);
  EXPECT_THROW(read_trace_binary(bad), std::runtime_error);
}

// The record's client field stays 32 bits wide; an id that does not fit
// the 16-bit ClientId is refused instead of truncated.
TEST(BinaryTrace, RejectsClientIdPast16Bits) {
  std::stringstream ss;
  Trace t;
  TraceRecord r;
  r.client = 3;
  t.append(r);
  write_trace_binary(ss, t);
  std::string s = ss.str();
  s[16 + 8 + 4 + 8 + 1 + 2] = 1;  // record 0's client becomes 0x10003
  std::stringstream bad(s);
  EXPECT_THROW(read_trace_binary(bad), std::runtime_error);
}

TEST(BinaryTrace, RejectsWrongVersion) {
  std::stringstream ss;
  write_trace_binary(ss, Trace{});
  std::string s = ss.str();
  s[4] = 99;  // version LSB
  std::stringstream bad(s);
  EXPECT_THROW(read_trace_binary(bad), std::runtime_error);
}

TEST(BinaryTrace, FileSniffingPicksTheRightFormat) {
  const auto dir = std::filesystem::temp_directory_path();
  const Trace t = random_trace(4, 100);

  const auto bin_path = (dir / "eevfs_sniff.bin").string();
  write_trace_binary_file(bin_path, t);
  const Trace from_bin = read_trace_file(bin_path);
  EXPECT_EQ(from_bin.size(), t.size());

  const auto txt_path = (dir / "eevfs_sniff.txt").string();
  write_trace_file(txt_path, t);
  const Trace from_txt = read_trace_file(txt_path);
  EXPECT_EQ(from_txt.size(), t.size());
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(from_bin[i], from_txt[i]);
  }
  std::filesystem::remove(bin_path);
  std::filesystem::remove(txt_path);
}

TEST(BinaryTrace, WorkloadScaleRoundTrip) {
  workload::SyntheticConfig cfg;
  cfg.num_requests = 5000;
  const auto w = workload::generate_synthetic(cfg);
  std::stringstream ss;
  write_trace_binary(ss, w.requests);
  const Trace back = read_trace_binary(ss);
  ASSERT_EQ(back.size(), w.requests.size());
  EXPECT_EQ(back.total_bytes(), w.requests.total_bytes());
  for (std::size_t i = 0; i < back.size(); ++i) {
    ASSERT_EQ(back[i], w.requests[i]) << "record " << i;
  }
}

}  // namespace
}  // namespace eevfs::trace
