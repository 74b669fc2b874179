#include "trace/stream_csv.h"

#include <utility>

#include "util/check.h"

namespace grefar {

std::string CsvPosition::to_string() const {
  return "byte " + std::to_string(byte) + " (line " + std::to_string(line) +
         ", col " + std::to_string(column) + ")";
}

StreamCsvParser::StreamCsvParser(RowCallback on_row, CsvLimits limits)
    : on_row_(std::move(on_row)), limits_(limits) {
  GREFAR_CHECK(static_cast<bool>(on_row_));
}

Status StreamCsvParser::fail(std::string message) {
  failed_ = true;
  error_ = std::move(message);
  return Error::make(error_);
}

Status StreamCsvParser::append_field_byte(char c) {
  if (limits_.max_field_bytes != 0 &&
      field_.size() >= limits_.max_field_bytes) {
    return fail("CSV field exceeds max_field_bytes=" +
                std::to_string(limits_.max_field_bytes) + " at " +
                pos_.to_string());
  }
  field_.push_back(c);
  return {};
}

Status StreamCsvParser::end_field() {
  if (limits_.max_fields_per_row != 0 &&
      row_width_ >= limits_.max_fields_per_row) {
    return fail("CSV row exceeds max_fields_per_row=" +
                std::to_string(limits_.max_fields_per_row) + " at " +
                pos_.to_string());
  }
  if (row_width_ < row_.size()) {
    row_[row_width_].swap(field_);
  } else {
    row_.push_back(std::move(field_));
  }
  field_.clear();
  ++row_width_;
  return {};
}

Status StreamCsvParser::end_row() {
  if (Status st = end_field(); !st.ok()) return st;
  if (limits_.max_rows != 0 && rows_emitted_ >= limits_.max_rows) {
    return fail("CSV document exceeds max_rows=" +
                std::to_string(limits_.max_rows) + " at " + pos_.to_string());
  }
  row_.resize(row_width_);
  if (Status st = on_row_(row_, rows_emitted_, row_start_); !st.ok()) {
    failed_ = true;
    error_ = st.error().message;
    return st;
  }
  ++rows_emitted_;
  row_width_ = 0;
  state_ = State::kRowStart;
  return {};
}

Status StreamCsvParser::feed(std::string_view chunk) {
  if (failed_) return Error::make(error_);
  if (finished_) return fail("StreamCsvParser::feed() after finish()");

  // advance() consumes the current byte's position; every byte of the input
  // passes through it exactly once, so byte/line/column stay exact across
  // arbitrary chunk boundaries.
  auto advance = [this](char c) {
    ++pos_.byte;
    if (c == '\n') {
      ++pos_.line;
      pos_.column = 1;
    } else {
      ++pos_.column;
    }
  };

  for (std::size_t i = 0; i < chunk.size(); ++i) {
    const char c = chunk[i];
    if (state_ == State::kRowStart) row_start_ = pos_;

    // Outside quotes a '\r' is dropped wherever it appears (CRLF and stray
    // carriage returns alike) and never makes a row dirty.
    switch (state_) {
      case State::kRowStart:
      case State::kFieldStart:
        if (c == '"') {
          quote_open_ = pos_;
          state_ = State::kQuoted;
        } else if (c == ',') {
          if (Status st = end_field(); !st.ok()) return st;
          state_ = State::kFieldStart;
        } else if (c == '\n') {
          if (Status st = end_row(); !st.ok()) return st;
        } else if (c != '\r') {
          if (Status st = append_field_byte(c); !st.ok()) return st;
          state_ = State::kUnquoted;
        }
        break;

      case State::kUnquoted:
        if (c == ',') {
          if (Status st = end_field(); !st.ok()) return st;
          state_ = State::kFieldStart;
        } else if (c == '\n') {
          if (Status st = end_row(); !st.ok()) return st;
        } else if (c != '\r') {
          if (Status st = append_field_byte(c); !st.ok()) return st;
        }
        break;

      case State::kQuoted:
        if (c == '"') {
          state_ = State::kQuoteEnd;
        } else {
          if (Status st = append_field_byte(c); !st.ok()) return st;
        }
        break;

      case State::kQuoteEnd:
        if (c == '"') {
          // Doubled quote: one literal quote byte, still inside the section.
          if (Status st = append_field_byte(c); !st.ok()) return st;
          state_ = State::kQuoted;
        } else if (c == ',') {
          if (Status st = end_field(); !st.ok()) return st;
          state_ = State::kFieldStart;
        } else if (c == '\n') {
          if (Status st = end_row(); !st.ok()) return st;
        } else if (c != '\r') {
          // Lenient concatenation: "a"x parses as the field ax.
          if (Status st = append_field_byte(c); !st.ok()) return st;
          state_ = State::kUnquoted;
        }
        break;
    }
    advance(c);
  }
  return {};
}

Status StreamCsvParser::finish() {
  if (failed_) return Error::make(error_);
  if (finished_) return {};
  finished_ = true;

  if (state_ == State::kQuoted) {
    return fail("unterminated quoted field opened at " +
                quote_open_.to_string());
  }
  // A final row without a trailing newline is emitted iff it consumed any
  // bytes (kRowStart means nothing since the last terminator).
  if (state_ != State::kRowStart) {
    if (Status st = end_row(); !st.ok()) return st;
  }
  return {};
}

Status parse_csv(std::string_view text,
                 const StreamCsvParser::RowCallback& on_row, CsvLimits limits) {
  StreamCsvParser parser(on_row, limits);
  if (Status st = parser.feed(text); !st.ok()) return st;
  return parser.finish();
}

}  // namespace grefar
