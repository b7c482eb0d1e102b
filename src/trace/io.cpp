#include "trace/io.hpp"

#include <charconv>
#include <fstream>
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

Trace read_trace_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open trace file: " + path);
  return read_trace(in);
}

}  // namespace eevfs::trace
