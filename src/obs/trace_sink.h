// TraceSink: where structured slot records go.
//
// One sink serves a whole run (or a whole sweep): records are serialized as
// compact single-line JSON and appended to a JSONL file. Writes are
// mutex-guarded — several engines may share a sink — and serialization
// happens outside the lock.
#pragma once

#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>

#include "util/json.h"

namespace grefar::obs {

class TraceSink {
 public:
  struct Options {
    /// JSONL output path (required).
    std::string path;
  };

  explicit TraceSink(Options options);
  ~TraceSink();

  /// Serializes `record` (compact) and appends it as one JSONL line.
  void write(const JsonValue& record);

  std::uint64_t records_written() const;

  /// Flushes the file stream (called by the destructor too).
  void flush();

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  mutable std::mutex mutex_;
  std::ofstream file_;
  std::uint64_t records_written_ = 0;
};

}  // namespace grefar::obs
