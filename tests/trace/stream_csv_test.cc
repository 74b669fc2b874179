#include "trace/stream_csv.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace grefar {
namespace {

using Rows = std::vector<std::vector<std::string>>;

struct ParseOutcome {
  Rows rows;
  std::vector<std::uint64_t> row_starts;  // byte offset of each row
  bool ok = false;
  std::string error;
};

/// Parses `text` feeding `chunk` bytes at a time (0 = the whole text at
/// once). The streaming contract: the outcome is identical for every chunk
/// size, including byte-at-a-time.
ParseOutcome parse_chunked(const std::string& text, std::size_t chunk,
                           CsvLimits limits = {}) {
  ParseOutcome out;
  StreamCsvParser parser(
      [&out](const std::vector<std::string>& fields, std::uint64_t row_index,
             const CsvPosition& row_start) -> Status {
        EXPECT_EQ(row_index, out.rows.size());
        out.rows.push_back(fields);
        out.row_starts.push_back(row_start.byte);
        return {};
      },
      limits);
  Status st;
  if (chunk == 0) {
    st = parser.feed(text);
  } else {
    for (std::size_t i = 0; st.ok() && i < text.size(); i += chunk) {
      st = parser.feed(std::string_view(text).substr(i, chunk));
    }
  }
  if (st.ok()) st = parser.finish();
  out.ok = st.ok();
  if (!st.ok()) out.error = st.error().message;
  return out;
}

TEST(StreamCsv, BasicRowsAndFields) {
  auto out = parse_chunked("a,b,c\n1,2,3\n", 0);
  ASSERT_TRUE(out.ok);
  ASSERT_EQ(out.rows.size(), 2u);
  EXPECT_EQ(out.rows[0], (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(out.rows[1], (std::vector<std::string>{"1", "2", "3"}));
  EXPECT_EQ(out.row_starts, (std::vector<std::uint64_t>{0, 6}));
}

TEST(StreamCsv, ChunkSplitInvariance) {
  // Quotes, doubled quotes, CRLF, a blank line, and a final row without a
  // trailing newline — every chunking must agree with the one-shot parse.
  const std::string text =
      "h1,h2\r\n\"a,\"\"b\",plain\n\n\"multi\nline\",x\r\nlast,row";
  auto whole = parse_chunked(text, 0);
  ASSERT_TRUE(whole.ok);
  ASSERT_EQ(whole.rows.size(), 5u);
  EXPECT_EQ(whole.rows[1], (std::vector<std::string>{"a,\"b", "plain"}));
  EXPECT_EQ(whole.rows[2], (std::vector<std::string>{""}));
  EXPECT_EQ(whole.rows[3], (std::vector<std::string>{"multi\nline", "x"}));
  EXPECT_EQ(whole.rows[4], (std::vector<std::string>{"last", "row"}));
  for (std::size_t chunk : {1u, 2u, 3u, 5u, 7u, 64u}) {
    auto split = parse_chunked(text, chunk);
    EXPECT_TRUE(split.ok) << "chunk=" << chunk;
    EXPECT_EQ(split.rows, whole.rows) << "chunk=" << chunk;
    EXPECT_EQ(split.row_starts, whole.row_starts) << "chunk=" << chunk;
  }
}

TEST(StreamCsv, ErrorsAreChunkInvariantToo) {
  const std::string text = "ok,row\n\"unterminated";
  auto whole = parse_chunked(text, 0);
  ASSERT_FALSE(whole.ok);
  for (std::size_t chunk : {1u, 3u, 9u}) {
    auto split = parse_chunked(text, chunk);
    EXPECT_FALSE(split.ok);
    EXPECT_EQ(split.error, whole.error) << "chunk=" << chunk;
    EXPECT_EQ(split.rows, whole.rows) << "chunk=" << chunk;
  }
}

TEST(StreamCsv, BareCrSkippedByDefault) {
  // '\r' vanishes anywhere outside quotes.
  auto out = parse_chunked("a\rb,c\r\n", 0);
  ASSERT_TRUE(out.ok);
  EXPECT_EQ(out.rows[0], (std::vector<std::string>{"ab", "c"}));
}

TEST(StreamCsv, LenientQuoteConcatenation) {
  auto out = parse_chunked("\"a\"x,\"b\"\n", 0);
  ASSERT_TRUE(out.ok);
  EXPECT_EQ(out.rows[0], (std::vector<std::string>{"ax", "b"}));
}

TEST(StreamCsv, UnterminatedQuoteReportsOpeningOffset) {
  auto out = parse_chunked("x,y\n\"oops", 2);
  ASSERT_FALSE(out.ok);
  EXPECT_EQ(out.error, "unterminated quoted field opened at byte 4 (line 2, col 1)");
}

TEST(StreamCsv, PositionsTrackLinesAndColumns) {
  std::vector<CsvPosition> starts;
  Status st = parse_csv("ab,c\nde\n",
                        [&starts](const std::vector<std::string>&, std::uint64_t,
                                  const CsvPosition& row_start) -> Status {
                          starts.push_back(row_start);
                          return {};
                        });
  ASSERT_TRUE(st.ok());
  ASSERT_EQ(starts.size(), 2u);
  EXPECT_EQ(starts[1].byte, 5u);
  EXPECT_EQ(starts[1].line, 2u);
  EXPECT_EQ(starts[1].column, 1u);
}

TEST(StreamCsv, MaxFieldBytesLimit) {
  CsvLimits limits;
  limits.max_field_bytes = 4;
  auto out = parse_chunked("abcd\n", 0, limits);
  EXPECT_TRUE(out.ok);
  out = parse_chunked("abcde\n", 0, limits);
  ASSERT_FALSE(out.ok);
  EXPECT_EQ(out.error, "CSV field exceeds max_field_bytes=4 at byte 4 (line 1, col 5)");
}

TEST(StreamCsv, MaxFieldsPerRowLimit) {
  CsvLimits limits;
  limits.max_fields_per_row = 2;
  auto out = parse_chunked("a,b\n", 0, limits);
  EXPECT_TRUE(out.ok);
  out = parse_chunked("a,b,c\n", 0, limits);
  ASSERT_FALSE(out.ok);
  EXPECT_NE(out.error.find("max_fields_per_row=2"), std::string::npos);
}

TEST(StreamCsv, MaxRowsLimit) {
  CsvLimits limits;
  limits.max_rows = 2;
  auto out = parse_chunked("a\nb\n", 0, limits);
  EXPECT_TRUE(out.ok);
  out = parse_chunked("a\nb\nc\n", 0, limits);
  ASSERT_FALSE(out.ok);
  EXPECT_NE(out.error.find("max_rows=2"), std::string::npos);
}

TEST(StreamCsv, ErrorsAreSticky) {
  StreamCsvParser parser([](const std::vector<std::string>&, std::uint64_t,
                            const CsvPosition&) -> Status { return {}; });
  ASSERT_TRUE(parser.feed("\"open").ok());
  ASSERT_FALSE(parser.finish().ok());
  // Feeding after failure re-reports the same error, never parses more.
  Status again = parser.feed("x\n");
  ASSERT_FALSE(again.ok());
  EXPECT_NE(again.error().message.find("unterminated quoted field"),
            std::string::npos);
  EXPECT_EQ(parser.rows_emitted(), 0u);
}

TEST(StreamCsv, CallbackErrorPoisonsParser) {
  StreamCsvParser parser([](const std::vector<std::string>&, std::uint64_t,
                            const CsvPosition&) -> Status {
    return Error::make("schema says no");
  });
  Status st = parser.feed("a\nb\n");
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().message, "schema says no");
  EXPECT_EQ(parser.rows_emitted(), 0u);
  EXPECT_FALSE(parser.finish().ok());
}

TEST(StreamCsv, FinishIsIdempotentAndFeedAfterFinishFails) {
  StreamCsvParser parser([](const std::vector<std::string>&, std::uint64_t,
                            const CsvPosition&) -> Status { return {}; });
  ASSERT_TRUE(parser.feed("a\n").ok());
  ASSERT_TRUE(parser.finish().ok());
  ASSERT_TRUE(parser.finish().ok());
  EXPECT_FALSE(parser.feed("b\n").ok());
}

TEST(StreamCsv, EmptyInputEmitsNothing) {
  auto out = parse_chunked("", 0);
  ASSERT_TRUE(out.ok);
  EXPECT_TRUE(out.rows.empty());
}

// parse_csv: the one-shot feed + finish form the materializing readers use.
Result<Rows> parse_rows(std::string_view text, CsvLimits limits = {}) {
  Rows rows;
  Status st = parse_csv(
      text,
      [&rows](const std::vector<std::string>& fields, std::uint64_t,
              const CsvPosition&) -> Status {
        rows.push_back(fields);
        return {};
      },
      limits);
  if (!st.ok()) return st.error();
  return rows;
}

TEST(ParseCsv, HandlesMissingTrailingNewline) {
  auto rows = parse_rows("a,b\n1,2").value();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1], (std::vector<std::string>{"1", "2"}));
}

TEST(ParseCsv, ToleratesCrLf) {
  auto rows = parse_rows("a,b\r\n1,2\r\n").value();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1][1], "2");
}

TEST(ParseCsv, EmptyFields) {
  auto rows = parse_rows("a,,c\n").value();
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "", "c"}));
}

TEST(ParseCsvLimits, FieldBytesEnforcedWithByteOffset) {
  CsvLimits limits;
  limits.max_field_bytes = 3;
  EXPECT_TRUE(parse_rows("abc,def\n", limits).ok());
  auto rows = parse_rows("abcd\n", limits);
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.error().message,
            "CSV field exceeds max_field_bytes=3 at byte 3 (line 1, col 4)");
}

TEST(ParseCsvLimits, RowAndDocumentLimits) {
  CsvLimits limits;
  limits.max_fields_per_row = 2;
  limits.max_rows = 2;
  EXPECT_TRUE(parse_rows("a,b\nc,d\n", limits).ok());
  auto wide = parse_rows("a,b,c\n", limits);
  ASSERT_FALSE(wide.ok());
  EXPECT_EQ(wide.error().message,
            "CSV row exceeds max_fields_per_row=2 at byte 5 (line 1, col 6)");
  auto long_doc = parse_rows("a\nb\nc\n", limits);
  ASSERT_FALSE(long_doc.ok());
  EXPECT_EQ(long_doc.error().message,
            "CSV document exceeds max_rows=2 at byte 5 (line 3, col 2)");
}

TEST(ParseCsvLimits, DefaultLimitsAreGenerous) {
  std::string wide(1000, 'x');
  auto rows = parse_rows(wide + "," + wide + "\n");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value()[0][0].size(), 1000u);
}

}  // namespace
}  // namespace grefar
