// StreamCsvParser: the repo's one CSV parser — an incremental, SAX-style
// state machine modeled on the libcsv callback design (SNIPPETS.md §2–3).
//
// One lenient dialect: ',' separates fields; a field starting with '"' is
// RFC-4180-quoted (separators and newlines literal inside, the quote itself
// doubled); bytes after a closing quote are concatenated ("a"x is ax);
// outside quotes every '\r' is dropped, so CRLF and LF files parse alike.
//
// Bytes are *fed* in arbitrary chunks (a 64 KiB file read, a whole
// materialized string, one byte at a time — the row stream is identical,
// property-fuzzed in tests/fuzz/fuzz_stream_csv.cc); completed rows are
// handed to a callback as they finish, so a trace file far larger than RAM
// parses in O(one row) memory. The materializing readers
// (trace/job_trace.h, trace/price_trace.h) are thin wrappers over this
// parser; there is deliberately no second CSV implementation to drift.
//
// Error discipline: every failure carries the absolute byte offset plus
// 1-based line/column of the offending byte ("unterminated quoted field
// opened at byte 57 (line 3, col 9)"), and hard resource limits — max field
// bytes, max fields per row, max rows — turn pathological inputs into
// diagnostics instead of memory exhaustion.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace grefar {

/// Hard resource limits: parsing fails (with the offending position) instead
/// of growing unboundedly. Zero disables an individual limit.
struct CsvLimits {
  std::uint64_t max_field_bytes = 1u << 20;   // 1 MiB per field
  std::uint64_t max_fields_per_row = 1u << 16;
  std::uint64_t max_rows = 0;                 // 0 = unlimited
};

/// A position in the byte stream: absolute offset plus 1-based line/column
/// (both counted in bytes; column resets after every row terminator).
struct CsvPosition {
  std::uint64_t byte = 0;
  std::uint64_t line = 1;
  std::uint64_t column = 1;

  /// "byte 57 (line 3, col 9)" — the form every diagnostic embeds.
  std::string to_string() const;
};

class StreamCsvParser {
 public:
  /// Called once per completed row with the decoded fields and the position
  /// of the row's first byte; `row_index` is 0-based in emission order.
  /// The field storage is parser-owned and reused — copy what you keep.
  /// Returning a non-ok Status aborts parsing and surfaces through
  /// feed()/finish() unchanged.
  using RowCallback = std::function<Status(
      const std::vector<std::string>& fields, std::uint64_t row_index,
      const CsvPosition& row_start)>;

  explicit StreamCsvParser(RowCallback on_row, CsvLimits limits = {});

  /// Feeds one chunk; emits every row completed within it. After an error
  /// (from the machine or the callback) the parser is poisoned: further
  /// feed()/finish() calls return the same error.
  Status feed(std::string_view chunk);

  /// Ends the stream: emits the final unterminated row (no trailing
  /// newline), fails on an unterminated quoted field.
  Status finish();

  /// Position of the next unconsumed byte.
  const CsvPosition& position() const { return pos_; }
  std::uint64_t rows_emitted() const { return rows_emitted_; }

 private:
  enum class State : unsigned char {
    kRowStart,    // nothing consumed for the current row
    kFieldStart,  // just after a separator
    kUnquoted,    // inside an unquoted field
    kQuoted,      // inside a quoted section
    kQuoteEnd,    // just closed a quoted section
  };

  Status fail(std::string message);          // poison + build Error
  Status append_field_byte(char c);          // limit-checked
  Status end_field();
  Status end_row();

  RowCallback on_row_;
  CsvLimits limits_;

  State state_ = State::kRowStart;
  CsvPosition pos_;              // next byte to consume
  CsvPosition row_start_;        // first byte of the current row
  CsvPosition quote_open_;       // where the current quoted section opened
  std::string field_;            // reused current-field buffer
  std::vector<std::string> row_;  // reused fields of the current row
  std::size_t row_width_ = 0;    // fields completed in the current row
  std::uint64_t rows_emitted_ = 0;
  bool finished_ = false;
  bool failed_ = false;
  std::string error_;            // sticky first error
};

/// Convenience: runs `text` through a StreamCsvParser in one feed + finish.
/// The callback contract is identical; chunking never changes the row stream.
Status parse_csv(std::string_view text, const StreamCsvParser::RowCallback& on_row,
                 CsvLimits limits = {});

}  // namespace grefar
