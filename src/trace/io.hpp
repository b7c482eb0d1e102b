// Text serialisation of traces.
//
// Format (one record per line, '#' comments allowed):
//
//     #eevfs-trace v1
//     <arrival_us> <file_id> <bytes> <r|w> <client_id>
//
// Client ids are 16-bit (at most 65,535) in both formats.
//
// The format mirrors the paper's append-only request log (§IV: "an
// append-only log of requests").
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "trace/trace.hpp"

namespace eevfs::trace {

inline constexpr const char* kTraceMagic = "#eevfs-trace v1";
/// Binary format magic (first four bytes of the file).
inline constexpr char kBinaryMagic[4] = {'E', 'E', 'V', 'T'};
inline constexpr std::uint32_t kBinaryVersion = 1;

void write_trace(std::ostream& out, const Trace& trace);
void write_trace_file(const std::string& path, const Trace& trace);

/// Parses a text trace; throws std::runtime_error with a line number on
/// malformed input, a client id above 65,535 included.
Trace read_trace(std::istream& in);

/// Compact binary serialisation (fixed-width little-endian records):
/// 4-byte magic, u32 version, u64 record count, then per record
/// {i64 arrival, u32 file, u64 bytes, u8 op, u32 client}.  The client
/// field stays 32 bits wide; read_trace_binary throws std::runtime_error
/// on a client id above 65,535 instead of truncating it.
void write_trace_binary(std::ostream& out, const Trace& trace);
Trace read_trace_binary(std::istream& in);
void write_trace_binary_file(const std::string& path, const Trace& trace);

/// Reads either format, sniffing the binary magic.
Trace read_trace_file(const std::string& path);

}  // namespace eevfs::trace
