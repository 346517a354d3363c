#include "src/datasets/graph_source.h"

#include <filesystem>

#include "src/common/macros.h"
#include "src/graph/graph_io.h"

namespace dpkron {

const char* GraphSourceKindName(GraphSourceKind kind) {
  switch (kind) {
    case GraphSourceKind::kGenerator:
      return "generator";
    case GraphSourceKind::kEdgeList:
      return "edge-list";
    case GraphSourceKind::kBinary:
      return "binary";
  }
  DPKRON_CHECK_MSG(false, "invalid GraphSourceKind");
  return "";
}

Result<GraphSource> ResolveGraphSource(const std::string& ref) {
  GraphSource source;
  source.ref = ref;
  if (const DatasetInfo* info = FindDataset(ref)) {
    source.kind = GraphSourceKind::kGenerator;
    source.info = info;
    return source;
  }
  std::error_code ec;
  const bool is_file = std::filesystem::is_regular_file(ref, ec);
  if (ref.ends_with(".dpkb")) {
    // Same fail-fast contract as edge lists: a typo'd binary path is a
    // resolution error, not a per-scenario load failure later.
    if (!is_file) {
      return Status::NotFound("binary graph file does not exist: " + ref);
    }
    source.kind = GraphSourceKind::kBinary;
    return source;
  }
  if (is_file) {
    source.kind = GraphSourceKind::kEdgeList;
    return source;
  }
  std::string known;
  for (const DatasetInfo& info : PaperDatasets()) {
    known += known.empty() ? info.name : ", " + info.name;
  }
  return Status::NotFound("dataset reference '" + ref +
                          "' is neither a registered dataset nor an existing"
                          " file (registered: " +
                          known + "; or pass an edge-list/.dpkb path)");
}

Result<GraphHandle> OpenGraph(const std::string& ref, Rng& rng,
                              const GraphLoadOptions& options) {
  auto source = ResolveGraphSource(ref);
  if (!source.ok()) return source.status();
  switch (source.value().kind) {
    case GraphSourceKind::kGenerator:
      if (source.value().info->generator == nullptr) {
        return Status::FailedPrecondition("generator source '" + ref +
                                          "' has no generator");
      }
      return GraphHandle(source.value().info->generator(rng));
    case GraphSourceKind::kEdgeList: {
      if (options.use_cache || options.mmap) {
        return OpenEdgeListSidecar(ref, options.mmap);
      }
      auto graph = ReadEdgeList(ref);
      if (!graph.ok()) return graph.status();
      return GraphHandle(std::move(graph.value()));
    }
    case GraphSourceKind::kBinary: {
      if (options.mmap) {
        auto mapped = MmapGraph::Open(ref);
        if (!mapped.ok()) return mapped.status();
        return GraphHandle(std::move(mapped.value()));
      }
      auto graph = ReadBinaryGraph(ref);
      if (!graph.ok()) return graph.status();
      return GraphHandle(std::move(graph.value()));
    }
  }
  return Status::Internal("invalid GraphSourceKind");
}

}  // namespace dpkron
