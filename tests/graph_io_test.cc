#include "graph/graph_io.h"

#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "graph/graph_builder.h"

namespace ensemfdet {
namespace {

class GraphIoTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    return testing::TempDir() + "/" + name;
  }

  void WriteFile(const std::string& path, const std::string& content) {
    std::ofstream out(path);
    out << content;
  }
};

TEST_F(GraphIoTest, RoundTripUnweighted) {
  GraphBuilder b(3, 4);
  b.AddEdge(0, 1);
  b.AddEdge(2, 3);
  b.AddEdge(1, 0);
  auto original = b.Build().ValueOrDie();

  const std::string path = TempPath("roundtrip.tsv");
  ASSERT_TRUE(SaveEdgeListTsv(original, path).ok());
  auto loaded = LoadEdgeListTsv(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_users(), 3);
  EXPECT_EQ(loaded->num_merchants(), 4);
  EXPECT_EQ(loaded->num_edges(), 3);
  EXPECT_TRUE(loaded->HasEdge(0, 1));
  EXPECT_TRUE(loaded->HasEdge(2, 3));
  EXPECT_TRUE(loaded->HasEdge(1, 0));
}

TEST_F(GraphIoTest, RoundTripWeighted) {
  GraphBuilder b(2, 2);
  b.AddEdge(0, 0, 2.5);
  b.AddEdge(1, 1, 0.125);
  auto original = b.Build(DuplicatePolicy::kSumWeights).ValueOrDie();
  ASSERT_TRUE(original.has_weights());

  const std::string path = TempPath("weighted.tsv");
  ASSERT_TRUE(SaveEdgeListTsv(original, path).ok());
  auto loaded = LoadEdgeListTsv(path).ValueOrDie();
  ASSERT_TRUE(loaded.has_weights());
  // Edge order is deterministic (sorted by user, merchant).
  EXPECT_DOUBLE_EQ(loaded.edge_weight(0), 2.5);
  EXPECT_DOUBLE_EQ(loaded.edge_weight(1), 0.125);
}

TEST_F(GraphIoTest, HeaderPreservesIsolatedNodes) {
  GraphBuilder b(10, 20);
  b.AddEdge(0, 0);
  auto original = b.Build().ValueOrDie();
  const std::string path = TempPath("isolated.tsv");
  ASSERT_TRUE(SaveEdgeListTsv(original, path).ok());
  auto loaded = LoadEdgeListTsv(path).ValueOrDie();
  EXPECT_EQ(loaded.num_users(), 10);
  EXPECT_EQ(loaded.num_merchants(), 20);
}

TEST_F(GraphIoTest, LoadWithoutHeaderInfersCounts) {
  const std::string path = TempPath("noheader.tsv");
  WriteFile(path, "0\t5\n3\t2\n");
  auto g = LoadEdgeListTsv(path).ValueOrDie();
  EXPECT_EQ(g.num_users(), 4);
  EXPECT_EQ(g.num_merchants(), 6);
  EXPECT_EQ(g.num_edges(), 2);
}

TEST_F(GraphIoTest, CommentsAndBlankLinesSkipped) {
  const std::string path = TempPath("comments.tsv");
  WriteFile(path, "# a comment\n\n0\t0\n# another\n1\t1\n\n");
  auto g = LoadEdgeListTsv(path).ValueOrDie();
  EXPECT_EQ(g.num_edges(), 2);
}

TEST_F(GraphIoTest, SpaceSeparatorAccepted) {
  const std::string path = TempPath("spaces.tsv");
  WriteFile(path, "0 1\n1 0\n");
  auto g = LoadEdgeListTsv(path).ValueOrDie();
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_TRUE(g.HasEdge(0, 1));
}

TEST_F(GraphIoTest, DuplicateEdgesSumWeights) {
  const std::string path = TempPath("dups.tsv");
  WriteFile(path, "0\t0\t1.0\n0\t0\t2.0\n");
  auto g = LoadEdgeListTsv(path).ValueOrDie();
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_DOUBLE_EQ(g.edge_weight(0), 3.0);
}

TEST_F(GraphIoTest, MalformedLineFails) {
  const std::string path = TempPath("bad.tsv");
  WriteFile(path, "0\tnot_a_number\n");
  auto g = LoadEdgeListTsv(path);
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kIOError);
  EXPECT_NE(g.status().message().find(":1:"), std::string::npos);
}

TEST_F(GraphIoTest, MissingFieldFails) {
  const std::string path = TempPath("short.tsv");
  WriteFile(path, "42\n");
  EXPECT_FALSE(LoadEdgeListTsv(path).ok());
}

TEST_F(GraphIoTest, BadWeightFails) {
  const std::string path = TempPath("badw.tsv");
  WriteFile(path, "0\t0\theavy\n");
  EXPECT_FALSE(LoadEdgeListTsv(path).ok());
}

TEST_F(GraphIoTest, EdgeExceedingDeclaredHeaderFails) {
  const std::string path = TempPath("exceed.tsv");
  WriteFile(path, "# bipartite 2 2\n5\t0\n");
  auto g = LoadEdgeListTsv(path);
  ASSERT_FALSE(g.ok());
  EXPECT_NE(g.status().message().find("exceed"), std::string::npos);
}

// Node ids are 32-bit: an id at or past UINT32_MAX, or a header count
// past it, fails with an IOError that names its line.
TEST_F(GraphIoTest, IdsBeyond32BitsFailWithTheLine) {
  struct Case {
    const char* name;
    const char* content;
    const char* line_tag;
  };
  const Case cases[] = {
      {"user_u32max.tsv", "0\t0\n4294967295\t0\n", ":2:"},
      {"user_2pow32.tsv", "4294967296\t0\n", ":1:"},
      {"merchant_2pow32.tsv", "0\t0\n1\t1\n0\t4294967296\n", ":3:"},
      {"user_u64max.tsv", "18446744073709551615\t0\n", ":1:"},
      {"header_5e9.tsv", "# bipartite 5000000000 3\n0\t0\n", ":1:"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string path = TempPath(c.name);
    WriteFile(path, c.content);
    auto g = LoadEdgeListTsv(path);
    ASSERT_FALSE(g.ok());
    EXPECT_EQ(g.status().code(), StatusCode::kIOError);
    EXPECT_NE(g.status().message().find(path + c.line_tag),
              std::string::npos)
        << g.status().message();
  }
}

TEST_F(GraphIoTest, MissingFileFails) {
  auto g = LoadEdgeListTsv(TempPath("does_not_exist.tsv"));
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kIOError);
}

TEST_F(GraphIoTest, SaveToUnwritablePathFails) {
  GraphBuilder b(1, 1);
  b.AddEdge(0, 0);
  auto g = b.Build().ValueOrDie();
  EXPECT_FALSE(SaveEdgeListTsv(g, "/nonexistent_dir_xyz/out.tsv").ok());
}

TEST_F(GraphIoTest, EmptyFileGivesEmptyGraph) {
  const std::string path = TempPath("empty.tsv");
  WriteFile(path, "");
  auto g = LoadEdgeListTsv(path).ValueOrDie();
  EXPECT_EQ(g.num_users(), 0);
  EXPECT_EQ(g.num_merchants(), 0);
  EXPECT_EQ(g.num_edges(), 0);
}

}  // namespace
}  // namespace ensemfdet
