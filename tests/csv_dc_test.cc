// Tests for the CSV relation loader/writer.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "data/csv_loader.h"
#include "data/generator.h"

namespace progxe {
namespace {

class CsvLoaderTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }

  void WriteFile(const std::string& content) {
    std::ofstream out(path_);
    out << content;
  }

  std::string path_ = "/tmp/progxe_csv_loader_test.csv";
};

TEST_F(CsvLoaderTest, LoadsNumericJoinKeys) {
  WriteFile("price,delay,country\n10.5,3,7\n20,4.25,9\n");
  auto result = LoadRelationCsv(path_, "country");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Relation& rel = result->relation;
  ASSERT_EQ(rel.size(), 2u);
  EXPECT_EQ(rel.schema().num_attributes(), 2);
  EXPECT_EQ(rel.schema().attribute_names()[0], "price");
  EXPECT_EQ(rel.schema().join_name(), "country");
  EXPECT_EQ(rel.attr(0, 0), 10.5);
  EXPECT_EQ(rel.attr(1, 1), 4.25);
  EXPECT_EQ(rel.join_key(0), 7);
  EXPECT_EQ(rel.join_key(1), 9);
  EXPECT_TRUE(result->join_dictionary.empty());
}

TEST_F(CsvLoaderTest, DictionaryEncodesStringKeys) {
  WriteFile("price,country\n1,DE\n2,FR\n3,DE\n");
  auto result = LoadRelationCsv(path_, "country");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->relation.join_key(0), 0);
  EXPECT_EQ(result->relation.join_key(1), 1);
  EXPECT_EQ(result->relation.join_key(2), 0);
  ASSERT_EQ(result->join_dictionary.size(), 2u);
  EXPECT_EQ(result->join_dictionary[0], "DE");
  EXPECT_EQ(result->join_dictionary[1], "FR");
}

TEST_F(CsvLoaderTest, JoinColumnAnywhereInHeader) {
  WriteFile("country,price,delay\n5,1,2\n");
  auto result = LoadRelationCsv(path_, "country");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->relation.attr(0, 0), 1.0);
  EXPECT_EQ(result->relation.attr(0, 1), 2.0);
  EXPECT_EQ(result->relation.join_key(0), 5);
}

TEST_F(CsvLoaderTest, QuotedFields) {
  WriteFile("price,country\n\"1.5\",\"US, east\"\n");
  auto result = LoadRelationCsv(path_, "country");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->relation.attr(0, 0), 1.5);
  EXPECT_EQ(result->join_dictionary[0], "US, east");
}

TEST_F(CsvLoaderTest, Errors) {
  EXPECT_TRUE(LoadRelationCsv("/no/such/file.csv", "k").status().code() ==
              StatusCode::kIOError);

  WriteFile("");
  EXPECT_FALSE(LoadRelationCsv(path_, "k").ok());

  WriteFile("a,b\n1,2\n");
  EXPECT_FALSE(LoadRelationCsv(path_, "missing").ok());

  WriteFile("a,k\nnot_a_number,1\n");
  EXPECT_FALSE(LoadRelationCsv(path_, "k").ok());

  WriteFile("a,k\n1\n");  // wrong field count
  EXPECT_FALSE(LoadRelationCsv(path_, "k").ok());

  WriteFile("k\n1\n");  // no value columns
  EXPECT_FALSE(LoadRelationCsv(path_, "k").ok());
}

TEST_F(CsvLoaderTest, RoundTripThroughWriter) {
  GeneratorOptions gen;
  gen.cardinality = 200;
  gen.num_attributes = 3;
  gen.seed = 9;
  Relation rel = GenerateRelation(gen).MoveValue();
  ASSERT_TRUE(WriteRelationCsv(rel, path_).ok());
  auto loaded = LoadRelationCsv(path_, "jk");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->relation.size(), rel.size());
  for (RowId i = 0; i < rel.size(); ++i) {
    EXPECT_EQ(loaded->relation.join_key(i), rel.join_key(i));
    for (int d = 0; d < 3; ++d) {
      EXPECT_NEAR(loaded->relation.attr(i, d), rel.attr(i, d), 1e-4);
    }
  }
}

TEST(SplitCsvLine, EdgeCases) {
  using internal::SplitCsvLine;
  EXPECT_EQ(SplitCsvLine("a,b,c").size(), 3u);
  EXPECT_EQ(SplitCsvLine("").size(), 1u);
  EXPECT_EQ(SplitCsvLine("a,,c")[1], "");
  EXPECT_EQ(SplitCsvLine("\"x\"\"y\"")[0], "x\"y");  // escaped quote
  EXPECT_EQ(SplitCsvLine("a,b\r")[1], "b");          // CRLF tolerated
}

}  // namespace
}  // namespace progxe
