// GraphSource resolution and loading: registry names, edge-list files,
// .dpkb binaries, the sidecar cache option, and the registry's
// generator-carrying redesign.

#include "src/datasets/graph_source.h"

#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>
#include "src/common/rng.h"
#include "src/graph/graph_io.h"
#include "tests/test_util.h"

namespace dpkron {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(GraphSourceTest, ResolvesRegistryName) {
  const auto source = ResolveGraphSource("AS20-like");
  ASSERT_TRUE(source.ok());
  EXPECT_EQ(source.value().kind, GraphSourceKind::kGenerator);
  ASSERT_NE(source.value().info, nullptr);
  EXPECT_EQ(source.value().info->paper_name, "AS20");
}

TEST(GraphSourceTest, ResolvesDpkbPathAsBinary) {
  const std::string path = TempPath("resolve.dpkb");
  ASSERT_TRUE(WriteBinaryGraph(testing::PetersenGraph(), path).ok());
  const auto source = ResolveGraphSource(path);
  ASSERT_TRUE(source.ok());
  EXPECT_EQ(source.value().kind, GraphSourceKind::kBinary);
  EXPECT_EQ(source.value().info, nullptr);
  std::remove(path.c_str());

  // Same fail-fast contract as edge lists: a missing .dpkb path is a
  // resolution error, not a load failure deep inside a scenario.
  const auto missing = ResolveGraphSource("/some/dir/graph.dpkb");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(GraphSourceTest, ResolvesExistingFileAsEdgeList) {
  const std::string path = TempPath("source.edges");
  std::ofstream(path) << "0 1\n";
  const auto source = ResolveGraphSource(path);
  ASSERT_TRUE(source.ok());
  EXPECT_EQ(source.value().kind, GraphSourceKind::kEdgeList);
  std::remove(path.c_str());
}

TEST(GraphSourceTest, UnknownReferenceListsRegistry) {
  const auto source = ResolveGraphSource("no-such-dataset");
  ASSERT_FALSE(source.ok());
  EXPECT_EQ(source.status().code(), StatusCode::kNotFound);
  EXPECT_NE(source.status().message().find("CA-GrQC-like"),
            std::string::npos);
}

TEST(GraphSourceTest, KindNames) {
  EXPECT_STREQ(GraphSourceKindName(GraphSourceKind::kGenerator), "generator");
  EXPECT_STREQ(GraphSourceKindName(GraphSourceKind::kEdgeList), "edge-list");
  EXPECT_STREQ(GraphSourceKindName(GraphSourceKind::kBinary), "binary");
}

TEST(GraphSourceTest, GeneratorLoadMatchesMakeDataset) {
  Rng rng_a(42), rng_b(42);
  const auto loaded = OpenGraph("AS20-like", rng_a);
  ASSERT_TRUE(loaded.ok());
  EXPECT_FALSE(loaded.value().mmap_backed());
  const Graph direct = MakeDataset("AS20-like", rng_b);
  EXPECT_EQ(loaded.value().view().Edges(), direct.Edges());
}

TEST(GraphSourceTest, EdgeListLoadIgnoresRng) {
  const std::string path = TempPath("load.edges");
  std::ofstream(path) << "0 1\n1 2\n";
  Rng rng(7);
  const uint64_t before = [&] {
    Rng probe(7);
    return probe.NextU64();
  }();
  const auto loaded = OpenGraph(path, rng);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().NumEdges(), 2u);
  EXPECT_EQ(rng.NextU64(), before);  // stream untouched by a file load
  std::remove(path.c_str());
}

TEST(GraphSourceTest, BinaryLoad) {
  const std::string path = TempPath("load.dpkb");
  const Graph g = testing::PetersenGraph();
  ASSERT_TRUE(WriteBinaryGraph(g, path).ok());
  std::string v3;
  {
    std::ifstream in(path, std::ios::binary);
    v3.assign(std::istreambuf_iterator<char>(in), {});
  }
  for (const bool mmap : {false, true}) {
    SCOPED_TRACE(mmap ? "mmap" : "ram");
    GraphLoadOptions options;
    options.mmap = mmap;
    Rng rng(1);
    ASSERT_TRUE(WriteBinaryGraph(g, path).ok());
    const auto loaded = OpenGraph(path, rng, options);
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(loaded.value().mmap_backed(), mmap);
    EXPECT_EQ(loaded.value().NumNodes(), 10u);
    EXPECT_EQ(loaded.value().NumEdges(), 15u);

    // A standalone file in the retired v2 layout has no source to
    // rebuild from: it fails cleanly in either backing.
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        << testing::DpkbV2FromV3(v3, g);
    const auto v2 = OpenGraph(path, rng, options);
    ASSERT_FALSE(v2.ok());
    EXPECT_EQ(v2.status().code(), StatusCode::kInvalidArgument);
  }
  std::remove(path.c_str());
}

TEST(GraphSourceTest, CacheOptionCreatesSidecar) {
  const std::string path = TempPath("cache_opt.edges");
  std::ofstream(path) << "0 1\n1 2\n2 0\n";
  const std::string cache = BinaryCachePath(path);
  std::remove(cache.c_str());

  Rng rng(1);
  GraphLoadOptions options;
  options.use_cache = true;
  const auto first = OpenGraph(path, rng, options);
  ASSERT_TRUE(first.ok());
  std::ifstream sidecar(cache);
  EXPECT_TRUE(sidecar.good());
  const auto second = OpenGraph(path, rng, options);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value().view().Edges(), second.value().view().Edges());

  std::remove(path.c_str());
  std::remove(cache.c_str());
}

TEST(GraphSourceTest, RegistryEntriesCarryGenerators) {
  for (const DatasetInfo& info : PaperDatasets()) {
    EXPECT_NE(info.generator, nullptr) << info.name;
    EXPECT_EQ(FindDataset(info.name), &info);
  }
  EXPECT_EQ(FindDataset("nope"), nullptr);
}

}  // namespace
}  // namespace dpkron
