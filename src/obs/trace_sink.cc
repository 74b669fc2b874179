#include "obs/trace_sink.h"

#include "util/check.h"

namespace grefar::obs {

TraceSink::TraceSink(Options options) : path_(std::move(options.path)) {
  GREFAR_CHECK_MSG(!path_.empty(), "TraceSink needs an output path");
  file_.open(path_, std::ios::out | std::ios::trunc);
  GREFAR_CHECK_MSG(file_.is_open(), "cannot open trace file '" << path_ << "' for writing");
}

TraceSink::~TraceSink() { flush(); }

void TraceSink::write(const JsonValue& record) {
  const std::string line = record.dump();  // serialize outside the lock
  std::lock_guard<std::mutex> lock(mutex_);
  file_ << line << '\n';
  ++records_written_;
}

std::uint64_t TraceSink::records_written() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_written_;
}

void TraceSink::flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  file_.flush();
}

}  // namespace grefar::obs
