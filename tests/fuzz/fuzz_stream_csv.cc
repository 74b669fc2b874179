// Differential fuzz harness for the streaming CSV parser: the same document
// parsed whole and parsed in chunks (split points derived from the input
// bytes themselves, so the fuzzer controls where chunk boundaries land) must
// produce the identical row stream, positions and error. The first input
// byte picks the chunking; the second is unused but still skipped, so the
// checked-in seed corpus keeps its meaning; the rest is the CSV text.
//
// grefar::ContractViolation is the defined failure mode for contract-checked
// construction and is caught; a divergence aborts (the finding), and
// sanitizer reports are findings as usual.
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "trace/stream_csv.h"
#include "util/check.h"

namespace {

struct Outcome {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::uint64_t> row_bytes;  // byte offset of each row start
  bool ok = false;
  std::string error;

  bool operator==(const Outcome& other) const {
    return ok == other.ok && error == other.error && rows == other.rows &&
           row_bytes == other.row_bytes;
  }
};

Outcome parse(std::string_view text, std::size_t chunk,
              const grefar::CsvLimits& limits) {
  Outcome out;
  grefar::StreamCsvParser parser(
      [&out](const std::vector<std::string>& fields, std::uint64_t,
             const grefar::CsvPosition& row_start) -> grefar::Status {
        out.rows.push_back(fields);
        out.row_bytes.push_back(row_start.byte);
        return {};
      },
      limits);
  grefar::Status st;
  if (chunk == 0) {
    st = parser.feed(text);
  } else {
    for (std::size_t i = 0; st.ok() && i < text.size(); i += chunk) {
      st = parser.feed(text.substr(i, chunk));
    }
  }
  if (st.ok()) st = parser.finish();
  out.ok = st.ok();
  if (!st.ok()) out.error = st.error().message;
  return out;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size < 2) return 0;
  // Byte 0: chunk size 1..64. Byte 1: unused.
  const std::size_t chunk = 1 + data[0] % 64;
  grefar::CsvLimits limits;
  limits.max_field_bytes = 1 << 10;
  limits.max_fields_per_row = 64;
  limits.max_rows = 4096;
  const std::string_view text(reinterpret_cast<const char*>(data + 2),
                              size - 2);
  try {
    const Outcome whole = parse(text, 0, limits);
    const Outcome chunked = parse(text, chunk, limits);
    if (!(whole == chunked)) {
      std::abort();  // chunk-boundary divergence: the bug class we hunt
    }
  } catch (const grefar::ContractViolation&) {
  }
  return 0;
}
