// GraphSource — the one way a graph enters the system. Every graph
// comes from one of three source kinds, resolved from a single
// reference string, and OpenGraph is the only opener:
//
//   * kGenerator — a synthetic registry dataset ("CA-GrQC-like", ...),
//     produced in-process by the entry's generator;
//   * kEdgeList  — a SNAP-style text edge list on disk, parsed by the
//     chunked parallel reader (optionally through the .dpkb sidecar
//     cache: parse once, binary-load thereafter);
//   * kBinary    — a .dpkb (v3) binary CSR file, loaded directly.
//
// Resolution is by the reference itself: a registered dataset name wins,
// a path ending in ".dpkb" is binary, any other existing file is an
// edge list. This is what lets the scenario engine run any registered
// scenario on an arbitrary downloaded SNAP file via --dataset.

#ifndef DPKRON_DATASETS_GRAPH_SOURCE_H_
#define DPKRON_DATASETS_GRAPH_SOURCE_H_

#include <string>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/datasets/registry.h"
#include "src/graph/graph.h"
#include "src/graph/graph_io.h"

namespace dpkron {

enum class GraphSourceKind {
  kGenerator,  // synthetic registry dataset
  kEdgeList,   // SNAP-style text edge list file
  kBinary,     // .dpkb binary CSR file
};

// "generator" | "edge-list" | "binary".
const char* GraphSourceKindName(GraphSourceKind kind);

struct GraphSource {
  GraphSourceKind kind = GraphSourceKind::kGenerator;
  std::string ref;                    // registry name or file path
  const DatasetInfo* info = nullptr;  // registry entry (kGenerator only)
};

struct GraphLoadOptions {
  // For kEdgeList sources: open through the .dpkb sidecar cache
  // (OpenEdgeListSidecar) instead of re-parsing the text every run.
  bool use_cache = false;

  // Serve file-backed sources out-of-core, as a view over an mmap'd
  // .dpkb: kBinary maps the file directly in O(header), kEdgeList maps
  // its sidecar (rebuilding it if stale, so this implies the cache), and
  // generators stay in-RAM — there is no file to map. Purely an
  // execution strategy: the handle's view hashes to the same fingerprint
  // either way, so results and cache entries are bit-identical to an
  // in-RAM open.
  bool mmap = false;
};

// Classifies a dataset reference. NotFound when the reference is
// neither a registered dataset name nor an existing file; the message
// lists the registered names.
Result<GraphSource> ResolveGraphSource(const std::string& ref);

// Resolves `ref` and opens the graph as an owning handle whose backing
// the options choose: in-RAM arenas (always, for generators; default
// for files) or an mmap'd .dpkb (options.mmap). Kernels take the
// handle's GraphView either way. Generator sources consume `rng`
// exactly as MakeDataset does; file-backed sources never touch it (so a
// scenario's RNG stream protocol is unchanged by swapping a file in).
Result<GraphHandle> OpenGraph(const std::string& ref, Rng& rng,
                              const GraphLoadOptions& options = {});

}  // namespace dpkron

#endif  // DPKRON_DATASETS_GRAPH_SOURCE_H_
