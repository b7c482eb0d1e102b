#include "trace/io.hpp"

#include <charconv>
#include <cstring>
#include <fstream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "util/string_util.hpp"

namespace eevfs::trace {

namespace {

template <typename T>
T parse_number(std::string_view token, std::size_t line_no) {
  T value{};
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  if (ec != std::errc{} || ptr != token.data() + token.size()) {
    throw std::runtime_error("trace parse error on line " +
                             std::to_string(line_no) + ": bad number '" +
                             std::string(token) + "'");
  }
  return value;
}

}  // namespace

void write_trace(std::ostream& out, const Trace& trace) {
  out << kTraceMagic << '\n';
  for (const TraceRecord& r : trace.records()) {
    out << r.arrival << ' ' << r.file << ' ' << r.bytes << ' '
        << (r.op == Op::kRead ? 'r' : 'w') << ' ' << r.client << '\n';
  }
}

void write_trace_file(const std::string& path, const Trace& trace) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open trace file for write: " + path);
  write_trace(out, trace);
}

Trace read_trace(std::istream& in) {
  Trace trace;
  std::string line;
  std::size_t line_no = 0;
  bool saw_magic = false;
  while (std::getline(in, line)) {
    ++line_no;
    const std::string_view body = trim(line);
    if (body.empty()) continue;
    if (body.front() == '#') {
      if (line_no == 1 && body == kTraceMagic) saw_magic = true;
      continue;
    }
    if (!saw_magic) {
      throw std::runtime_error("trace parse error: missing '" +
                               std::string(kTraceMagic) + "' header");
    }
    std::istringstream fields{std::string(body)};
    std::string arrival, file, bytes, op, client;
    if (!(fields >> arrival >> file >> bytes >> op >> client)) {
      throw std::runtime_error("trace parse error on line " +
                               std::to_string(line_no) +
                               ": expected 5 fields");
    }
    TraceRecord r;
    r.arrival = parse_number<Tick>(arrival, line_no);
    r.file = parse_number<FileId>(file, line_no);
    r.bytes = parse_number<Bytes>(bytes, line_no);
    if (op == "r") {
      r.op = Op::kRead;
    } else if (op == "w") {
      r.op = Op::kWrite;
    } else {
      throw std::runtime_error("trace parse error on line " +
                               std::to_string(line_no) + ": op must be r|w");
    }
    // A client id past ClientId's range fails here as a bad number.
    r.client = parse_number<ClientId>(client, line_no);
    trace.append(r);
  }
  if (!saw_magic && trace.empty()) {
    throw std::runtime_error("trace parse error: empty input");
  }
  return trace;
}

namespace {

template <typename T>
void put_le(std::ostream& out, T value) {
  unsigned char buf[sizeof(T)];
  auto v = static_cast<std::make_unsigned_t<T>>(value);
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    buf[i] = static_cast<unsigned char>(v >> (8 * i));
  }
  out.write(reinterpret_cast<const char*>(buf), sizeof(T));
}

template <typename T>
T get_le(std::istream& in) {
  unsigned char buf[sizeof(T)];
  in.read(reinterpret_cast<char*>(buf), sizeof(T));
  if (!in) throw std::runtime_error("binary trace: truncated input");
  // Accumulate in a wide register: |= on a sub-int type would promote to
  // int and warn on the narrowing assignment under -Wconversion.
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    v |= static_cast<std::uint64_t>(buf[i]) << (8 * i);
  }
  return static_cast<T>(static_cast<std::make_unsigned_t<T>>(v));
}

}  // namespace

void write_trace_binary(std::ostream& out, const Trace& trace) {
  out.write(kBinaryMagic, sizeof(kBinaryMagic));
  put_le<std::uint32_t>(out, kBinaryVersion);
  put_le<std::uint64_t>(out, trace.size());
  for (const TraceRecord& r : trace.records()) {
    put_le<std::int64_t>(out, r.arrival);
    put_le<std::uint32_t>(out, r.file);
    put_le<std::uint64_t>(out, r.bytes);
    put_le<std::uint8_t>(out, static_cast<std::uint8_t>(r.op));
    put_le<std::uint32_t>(out, r.client);
  }
}

Trace read_trace_binary(std::istream& in) {
  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kBinaryMagic, sizeof(magic)) != 0) {
    throw std::runtime_error("binary trace: bad magic");
  }
  const auto version = get_le<std::uint32_t>(in);
  if (version != kBinaryVersion) {
    throw std::runtime_error("binary trace: unsupported version " +
                             std::to_string(version));
  }
  const auto count = get_le<std::uint64_t>(in);
  Trace trace;
  for (std::uint64_t i = 0; i < count; ++i) {
    TraceRecord r;
    r.arrival = get_le<std::int64_t>(in);
    r.file = get_le<std::uint32_t>(in);
    r.bytes = get_le<std::uint64_t>(in);
    const auto op = get_le<std::uint8_t>(in);
    if (op > 1) throw std::runtime_error("binary trace: bad op byte");
    r.op = static_cast<Op>(op);
    const auto client = get_le<std::uint32_t>(in);
    if (client > std::numeric_limits<ClientId>::max()) {
      throw std::runtime_error("binary trace: client id " +
                               std::to_string(client) + " in record " +
                               std::to_string(i) + " does not fit 16 bits");
    }
    r.client = static_cast<ClientId>(client);
    trace.append(r);
  }
  return trace;
}

void write_trace_binary_file(const std::string& path, const Trace& trace) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open trace file for write: " + path);
  write_trace_binary(out, trace);
}

Trace read_trace_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open trace file: " + path);
  char magic[4] = {};
  in.read(magic, sizeof(magic));
  in.clear();
  in.seekg(0);
  if (std::memcmp(magic, kBinaryMagic, sizeof(magic)) == 0) {
    return read_trace_binary(in);
  }
  return read_trace(in);
}

}  // namespace eevfs::trace
