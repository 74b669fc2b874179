// Minimal RFC-4180-style CSV writer plus whole-file read/write helpers, used
// by the trace module and the benchmark harness. Parsing lives in
// trace/stream_csv.h.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace grefar {

/// Serializes rows to CSV. Fields containing the separator, quotes or
/// newlines are quoted; embedded quotes are doubled.
class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& out, char sep = ',') : out_(out), sep_(sep) {}

  /// Writes one row; flushes a trailing '\n'.
  void write_row(const std::vector<std::string>& fields);

  /// Convenience: writes a row of doubles formatted with `precision`.
  void write_row(const std::vector<double>& fields, int precision = 6);

 private:
  std::string escape(const std::string& field) const;

  std::ostream& out_;
  char sep_;
};

/// Reads an entire file into a string.
Result<std::string> read_file(const std::string& path);

/// Writes `content` to `path`, replacing any existing file.
Status write_file(const std::string& path, std::string_view content);

}  // namespace grefar
