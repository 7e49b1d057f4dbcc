#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/csv.h"
#include "common/table.h"

namespace falvolt::common {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

class CsvTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_ = ::testing::TempDir() + "falvolt_csv_test.csv";
};

TEST_F(CsvTest, WritesHeaderAndRows) {
  {
    CsvWriter w(path_, {"a", "b"});
    w.row(std::vector<std::string>{"1", "x"});
    w.row(std::vector<double>{2.5, 3.0});
    w.close();
  }
  EXPECT_EQ(read_file(path_), "a,b\n1,x\n2.5,3\n");
}

TEST_F(CsvTest, ColumnCountMismatchThrows) {
  CsvWriter w(path_, {"a", "b"});
  EXPECT_THROW(w.row(std::vector<std::string>{"only-one"}),
               std::invalid_argument);
}

TEST_F(CsvTest, IntegersFormattedWithoutDecimal) {
  EXPECT_EQ(CsvWriter::format(42.0), "42");
  EXPECT_EQ(CsvWriter::format(-3.0), "-3");
  EXPECT_EQ(CsvWriter::format(0.25), "0.25");
}

TEST(CsvWriterErrors, UnwritablePathThrows) {
  EXPECT_THROW(CsvWriter("/nonexistent_dir_xyz/file.csv", {"a"}),
               std::runtime_error);
}

TEST(CsvEscape, Rfc4180) {
  // Plain fields pass through untouched — existing numeric output stays
  // byte-identical.
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("42.5"), "42.5");
  EXPECT_EQ(csv_escape(""), "");
  EXPECT_EQ(csv_escape("semi;colon"), "semi;colon");
  // Commas, quotes and newlines force quoting; quotes double.
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
  EXPECT_EQ(csv_escape("cr\rhere"), "\"cr\rhere\"");
  EXPECT_EQ(csv_escape(","), "\",\"");
  EXPECT_EQ(csv_escape("\""), "\"\"\"\"");
}

TEST_F(CsvTest, WriterEscapesCellsAndHeader) {
  {
    CsvWriter w(path_, {"key", "error,detail"});
    w.row(std::vector<std::string>{"MNIST/vth=0.45", "bad value: \"x,y\""});
    w.close();
  }
  EXPECT_EQ(read_file(path_),
            "key,\"error,detail\"\n"
            "MNIST/vth=0.45,\"bad value: \"\"x,y\"\"\"\n");
}

TEST(TextTable, AlignsColumns) {
  TextTable t({"name", "acc"});
  t.row({"mnist", "99.1"});
  t.row({"dvs-gesture", "97"});
  const std::string s = t.str();
  // Header then separator then two rows.
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("dvs-gesture"), std::string::npos);
  EXPECT_NE(s.find("---"), std::string::npos);
  // Each line is equally padded: all rows contain the widest cell width.
  std::istringstream is(s);
  std::string line;
  std::getline(is, line);
  const auto header_len = line.size();
  std::getline(is, line);  // separator
  EXPECT_EQ(line.size(), std::string("dvs-gesture  99.1").size());
  (void)header_len;
}

TEST(TextTable, RowLabeled) {
  TextTable t({"method", "a", "b"});
  t.row_labeled("FalVolt", {98.7, 99.0}, 1);
  EXPECT_NE(t.str().find("FalVolt"), std::string::npos);
  EXPECT_NE(t.str().find("98.7"), std::string::npos);
}

TEST(TextTable, ColumnMismatchThrows) {
  TextTable t({"a"});
  EXPECT_THROW(t.row({"1", "2"}), std::invalid_argument);
}

}  // namespace
}  // namespace falvolt::common
