#include "trace/stream_source.h"

#include <algorithm>
#include <fstream>
#include <utility>

#include "trace/trace_schema.h"
#include "util/check.h"

namespace grefar {

// ---------------------------------------------------------------------------
// StreamingJobTraceSource

StreamingJobTraceSource::StreamingJobTraceSource(
    std::unique_ptr<std::istream> in, std::size_t num_types,
    StreamSourceOptions options)
    : in_(std::move(in)), num_types_(num_types), options_(options) {
  GREFAR_CHECK(in_ != nullptr);
  GREFAR_CHECK(options_.reorder_window >= 0);
  GREFAR_CHECK(options_.chunk_bytes > 0);
  chunk_.resize(options_.chunk_bytes);
  parser_ = std::make_unique<StreamCsvParser>(
      [this](const std::vector<std::string>& fields, std::uint64_t row_index,
             const CsvPosition& row_start) {
        return on_row(fields, row_index, row_start);
      },
      options_.limits);
  // Prime far enough to classify the header so schema() works immediately;
  // any error found here stays sticky and surfaces from the first pull.
  while (!eof_ && rows_total_ == 0 && !error_) {
    if (Status st = pump_chunk(); !st.ok()) {
      error_ = std::make_unique<Error>(st.error());
    }
  }
}

StreamingJobTraceSource::StreamingJobTraceSource(const std::string& path,
                                                 std::size_t num_types,
                                                 StreamSourceOptions options)
    : StreamingJobTraceSource(
          std::make_unique<std::ifstream>(path, std::ios::binary), num_types,
          options) {
  // The delegated constructor already primed the header, possibly reading a
  // small file to EOF (which sets failbit) — only a failed open is an error.
  if (!static_cast<std::ifstream*>(in_.get())->is_open()) {
    error_ = std::make_unique<Error>(Error::make("cannot open file: " + path));
  }
}

Status StreamingJobTraceSource::on_row(const std::vector<std::string>& fields,
                                       std::uint64_t row_index,
                                       const CsvPosition& row_start) {
  ++rows_total_;
  if (row_index == 0) {
    auto schema = detect_job_trace_header(fields, row_start);
    if (!schema.ok()) return schema.error();
    schema_ = schema.value();
    return {};
  }
  std::int64_t slot = 0;
  ArrivalBatch batch;
  if (schema_ == JobTraceSchema::kValued) {
    auto row = decode_valued_job_trace_row(fields, num_types_, row_index,
                                           row_start);
    if (!row.ok()) return row.error();
    slot = row.value().slot;
    batch.type = row.value().type;
    batch.count = row.value().count;
    batch.value = row.value().value;
    batch.decay_rate = row.value().decay;
    batch.deadline = row.value().deadline < 0 ? kNoDeadline : row.value().deadline;
  } else {
    auto row = decode_job_trace_row(fields, num_types_, row_index, row_start);
    if (!row.ok()) return row.error();
    slot = row.value().slot;
    batch.type = row.value().type;
    batch.count = row.value().count;
    // Annotations keep their "defer to the JobType" sentinels.
  }
  if (slot < next_) {
    return Error::make(
        "job trace row " + std::to_string(row_index) + " at " +
        row_start.to_string() + " is outside the reorder window (slot " +
        std::to_string(slot) + " already emitted, window " +
        std::to_string(options_.reorder_window) + ")");
  }
  max_seen_ = std::max(max_seen_, slot);
  auto [it, inserted] = pending_.try_emplace(slot);
  it->second.push_back(batch);
  if (inserted) high_water_ = std::max(high_water_, pending_.size());
  ++data_rows_;
  return {};
}

Status StreamingJobTraceSource::pump_chunk() {
  in_->read(chunk_.data(), static_cast<std::streamsize>(chunk_.size()));
  const std::streamsize got = in_->gcount();
  if (got > 0) {
    if (Status st = parser_->feed(
            std::string_view(chunk_.data(), static_cast<std::size_t>(got)));
        !st.ok()) {
      return st;
    }
  }
  if (in_->eof() || got == 0) {
    eof_ = true;
    return parser_->finish();
  }
  if (in_->bad()) return Error::make("read error in job trace stream");
  return {};
}

Result<bool> StreamingJobTraceSource::advance_to_next_slot() {
  if (error_) return *error_;
  // Pull bytes until slot `next_` is provably complete (a row beyond
  // next_ + window has been seen) or the input ends.
  while (!eof_ && max_seen_ <= next_ + options_.reorder_window) {
    if (Status st = pump_chunk(); !st.ok()) {
      error_ = std::make_unique<Error>(st.error());
      return *error_;
    }
  }
  if (eof_ && data_rows_ == 0) {
    error_ = std::make_unique<Error>(
        rows_total_ == 0 ? Error::make("empty job trace")
                         : Error::make("job trace has no data rows"));
    return *error_;
  }
  if (next_ > max_seen_) return false;  // clean end of stream
  return true;
}

Result<bool> StreamingJobTraceSource::next_slot_into(
    std::vector<std::int64_t>& counts) {
  GREFAR_CHECK_MSG(emit_style_ != EmitStyle::kBatches,
                   "cannot mix next_slot_into with next_slot_batches_into");
  emit_style_ = EmitStyle::kCounts;
  auto ready = advance_to_next_slot();
  if (!ready.ok() || !ready.value()) return ready;
  counts.assign(num_types_, 0);
  auto it = pending_.begin();
  if (it != pending_.end() && it->first == next_) {
    // Densify: duplicate (slot, type) rows accumulate, matching the
    // materializing reader bit-for-bit.
    for (const ArrivalBatch& b : it->second) counts[b.type] += b.count;
    pending_.erase(it);
  }
  ++next_;
  return true;
}

Result<bool> StreamingJobTraceSource::next_slot_batches_into(
    std::vector<ArrivalBatch>& batches) {
  GREFAR_CHECK_MSG(emit_style_ != EmitStyle::kCounts,
                   "cannot mix next_slot_batches_into with next_slot_into");
  emit_style_ = EmitStyle::kBatches;
  auto ready = advance_to_next_slot();
  if (!ready.ok() || !ready.value()) return ready;
  batches.clear();
  auto it = pending_.begin();
  if (it != pending_.end() && it->first == next_) {
    batches.assign(it->second.begin(), it->second.end());
    pending_.erase(it);
  }
  ++next_;
  return true;
}

// ---------------------------------------------------------------------------
// StreamingPriceTraceSource

StreamingPriceTraceSource::StreamingPriceTraceSource(
    std::unique_ptr<std::istream> in, std::size_t num_dcs,
    StreamSourceOptions options)
    : in_(std::move(in)), num_dcs_(num_dcs), options_(options) {
  GREFAR_CHECK(in_ != nullptr);
  GREFAR_CHECK(options_.reorder_window >= 0);
  GREFAR_CHECK(options_.chunk_bytes > 0);
  chunk_.resize(options_.chunk_bytes);
  parser_ = std::make_unique<StreamCsvParser>(
      [this](const std::vector<std::string>& fields, std::uint64_t row_index,
             const CsvPosition& row_start) {
        return on_row(fields, row_index, row_start);
      },
      options_.limits);
}

StreamingPriceTraceSource::StreamingPriceTraceSource(
    const std::string& path, std::size_t num_dcs, StreamSourceOptions options)
    : StreamingPriceTraceSource(
          std::make_unique<std::ifstream>(path, std::ios::binary), num_dcs,
          options) {
  if (!*static_cast<std::ifstream*>(in_.get())) {
    error_ = std::make_unique<Error>(Error::make("cannot open file: " + path));
  }
}

Status StreamingPriceTraceSource::on_row(
    const std::vector<std::string>& fields, std::uint64_t row_index,
    const CsvPosition& row_start) {
  ++rows_total_;
  if (row_index == 0) return check_price_trace_header(fields, row_start);
  auto row = decode_price_trace_row(fields, num_dcs_, row_index, row_start);
  if (!row.ok()) return row.error();
  const std::int64_t slot = row.value().slot;
  if (slot < next_) {
    return Error::make(
        "price trace row " + std::to_string(row_index) + " at " +
        row_start.to_string() + " is outside the reorder window (slot " +
        std::to_string(slot) + " already emitted, window " +
        std::to_string(options_.reorder_window) + ")");
  }
  max_seen_ = std::max(max_seen_, slot);
  auto [it, inserted] = pending_.try_emplace(slot);
  if (inserted) {
    it->second.prices.assign(num_dcs_, 0.0);
    it->second.seen.assign(num_dcs_, false);
    high_water_ = std::max(high_water_, pending_.size());
  }
  const std::size_t d = row.value().dc;
  it->second.prices[d] = row.value().price;  // duplicates: last wins
  if (!it->second.seen[d]) {
    it->second.seen[d] = true;
    ++it->second.seen_count;
  }
  ++data_rows_;
  return {};
}

Status StreamingPriceTraceSource::pump_chunk() {
  in_->read(chunk_.data(), static_cast<std::streamsize>(chunk_.size()));
  const std::streamsize got = in_->gcount();
  if (got > 0) {
    if (Status st = parser_->feed(
            std::string_view(chunk_.data(), static_cast<std::size_t>(got)));
        !st.ok()) {
      return st;
    }
  }
  if (in_->eof() || got == 0) {
    eof_ = true;
    return parser_->finish();
  }
  if (in_->bad()) return Error::make("read error in price trace stream");
  return {};
}

Result<bool> StreamingPriceTraceSource::next_slot_into(
    std::vector<double>& prices) {
  if (error_) return *error_;
  while (!eof_ && max_seen_ <= next_ + options_.reorder_window) {
    if (Status st = pump_chunk(); !st.ok()) {
      error_ = std::make_unique<Error>(st.error());
      return *error_;
    }
  }
  if (eof_ && data_rows_ == 0 && num_dcs_ > 0) {
    error_ = std::make_unique<Error>(
        rows_total_ == 0
            ? Error::make("empty price trace")
            : Error::make("price trace missing data for dc 0"));
    return *error_;
  }
  if (next_ > max_seen_) return false;  // clean end of stream
  auto it = pending_.begin();
  if (it == pending_.end() || it->first != next_ ||
      it->second.seen_count != num_dcs_) {
    std::size_t missing_dc = 0;
    if (it != pending_.end() && it->first == next_) {
      while (missing_dc < num_dcs_ && it->second.seen[missing_dc]) {
        ++missing_dc;
      }
    }
    error_ = std::make_unique<Error>(Error::make(
        "price trace has a gap at slot " + std::to_string(next_) +
        " for dc " + std::to_string(missing_dc)));
    return *error_;
  }
  prices.assign(num_dcs_, 0.0);
  std::copy(it->second.prices.begin(), it->second.prices.end(),
            prices.begin());
  pending_.erase(it);
  ++next_;
  return true;
}

}  // namespace grefar
