#include "util/csv.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "trace/stream_csv.h"

namespace grefar {
namespace {

using Rows = std::vector<std::vector<std::string>>;

Rows parse_rows(std::string_view text) {
  Rows rows;
  Status st = parse_csv(text, [&rows](const std::vector<std::string>& fields,
                                      std::uint64_t, const CsvPosition&) -> Status {
    rows.push_back(fields);
    return {};
  });
  EXPECT_TRUE(st.ok()) << st.error().message;
  return rows;
}

std::string write_rows(const std::vector<std::vector<std::string>>& rows) {
  std::ostringstream os;
  CsvWriter writer(os);
  for (const auto& row : rows) writer.write_row(row);
  return os.str();
}

TEST(CsvWriter, PlainFields) {
  EXPECT_EQ(write_rows({{"a", "b"}, {"1", "2"}}), "a,b\n1,2\n");
}

TEST(CsvWriter, QuotesFieldsWithSeparator) {
  EXPECT_EQ(write_rows({{"a,b", "c"}}), "\"a,b\",c\n");
}

TEST(CsvWriter, EscapesQuotes) {
  EXPECT_EQ(write_rows({{"say \"hi\""}}), "\"say \"\"hi\"\"\"\n");
}

TEST(CsvWriter, QuotesNewlines) {
  EXPECT_EQ(write_rows({{"line1\nline2"}}), "\"line1\nline2\"\n");
}

TEST(CsvWriter, DoubleRow) {
  std::ostringstream os;
  CsvWriter writer(os);
  writer.write_row(std::vector<double>{1.5, 2.0}, 2);
  EXPECT_EQ(os.str(), "1.50,2.00\n");
}

TEST(CsvRoundTrip, WriterOutputParsesBack) {
  const Rows original{{"plain", "with,comma", "with \"quote\"", "multi\nline"},
                      {"", "x", "", "y"}};
  EXPECT_EQ(parse_rows(write_rows(original)), original);
}

TEST(FileIo, WriteAndReadBack) {
  std::string path = ::testing::TempDir() + "/grefar_csv_test.txt";
  ASSERT_TRUE(write_file(path, "hello\nworld").ok());
  auto content = read_file(path);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(content.value(), "hello\nworld");
  std::remove(path.c_str());
}

TEST(FileIo, ReadMissingFileFails) {
  auto content = read_file("/nonexistent/grefar/file.txt");
  EXPECT_FALSE(content.ok());
}

TEST(FileIo, ParseFileRoundTrip) {
  std::string path = ::testing::TempDir() + "/grefar_csv_parse.csv";
  ASSERT_TRUE(write_file(path, "h1,h2\n1,2\n").ok());
  auto content = read_file(path);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(parse_rows(content.value()).size(), 2u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace grefar
