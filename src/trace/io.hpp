// Text serialisation of traces, the one trace file format.
//
// Format (one record per line, '#' comments allowed):
//
//     #eevfs-trace v1
//     <arrival_us> <file_id> <bytes> <r|w> <client_id>
//
// Client ids are 16-bit (at most 65,535).
//
// The format mirrors the paper's append-only request log (§IV: "an
// append-only log of requests").
#pragma once

#include <iosfwd>
#include <string>

#include "trace/trace.hpp"

namespace eevfs::trace {

inline constexpr const char* kTraceMagic = "#eevfs-trace v1";

void write_trace(std::ostream& out, const Trace& trace);
void write_trace_file(const std::string& path, const Trace& trace);

/// Parses a text trace; throws std::runtime_error with a line number on
/// malformed input, a client id above 65,535 included.
Trace read_trace(std::istream& in);

/// read_trace over the file at `path`; throws std::runtime_error when it
/// cannot be opened.
Trace read_trace_file(const std::string& path);

}  // namespace eevfs::trace
