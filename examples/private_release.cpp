// Data-custodian workflow: read a sensitive edge list from disk, run the
// private estimator under an explicit privacy budget, and write out
// (a) the model parameters and (b) a synthetic edge list that can be
// shared with researchers.
//
// Usage:
//   ./build/examples/private_release [input.txt] [output.txt] [epsilon]
//
// With no arguments a demo graph is generated, released at ε = 0.2, and
// written to /tmp/dpkron_synthetic.txt.

#include <cstdio>
#include <cstdlib>

#include "src/common/rng.h"
#include "src/core/private_estimator.h"
#include "src/core/release.h"
#include "src/datasets/registry.h"
#include "src/graph/graph_io.h"

int main(int argc, char** argv) {
  using namespace dpkron;
  const char* input_path = argc > 1 ? argv[1] : nullptr;
  const char* output_path =
      argc > 2 ? argv[2] : "/tmp/dpkron_synthetic.txt";
  const double epsilon = argc > 3 ? std::atof(argv[3]) : 0.2;
  const double delta = 0.01;

  Rng rng(777);
  Graph sensitive;
  if (input_path != nullptr) {
    auto loaded = ReadEdgeList(input_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "cannot load %s: %s\n", input_path,
                   loaded.status().ToString().c_str());
      return 1;
    }
    sensitive = std::move(loaded).value();
    std::printf("loaded %s: %u nodes, %llu edges\n", input_path,
                sensitive.NumNodes(),
                static_cast<unsigned long long>(sensitive.NumEdges()));
  } else {
    sensitive = CaGrQcLike(rng);
    std::printf("no input given; using the CA-GrQC-like demo graph "
                "(%u nodes, %llu edges)\n",
                sensitive.NumNodes(),
                static_cast<unsigned long long>(sensitive.NumEdges()));
  }

  // The custodian provisions the total budget once. Every mechanism that
  // touches the sensitive graph must draw from it; when it is exhausted,
  // further releases are refused.
  PrivacyBudget budget(epsilon, delta);
  const auto estimate =
      EstimatePrivateSkg(sensitive, epsilon, delta, budget, rng);
  if (!estimate.ok()) {
    std::fprintf(stderr, "release refused: %s\n",
                 estimate.status().ToString().c_str());
    return 1;
  }

  std::printf("\n--- release record (safe to publish) ---\n");
  std::printf("model: stochastic Kronecker graph, k = %u\n",
              estimate.value().k);
  std::printf("initiator: %s\n", estimate.value().theta.ToString().c_str());
  std::printf("privacy: (%.3g, %.3g)-edge-differential privacy\n", epsilon,
              delta);
  std::printf("matching statistics released: %s\n",
              estimate.value().private_features.ToString().c_str());
  std::printf("%s", budget.ToString().c_str());

  // A sampled synthetic graph is post-processing of the private estimate:
  // publishing it costs no additional privacy budget.
  const Graph synthetic =
      ReleasePipeline().Sample(estimate.value().theta, estimate.value().k, rng);
  if (Status s = WriteEdgeList(synthetic, output_path); !s.ok()) {
    std::fprintf(stderr, "write failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("\nsynthetic graph (%u nodes, %llu edges) written to %s\n",
              synthetic.NumNodes(),
              static_cast<unsigned long long>(synthetic.NumEdges()),
              output_path);

  // Demonstrate budget enforcement: a second release attempt must fail.
  const auto second =
      EstimatePrivateSkg(sensitive, epsilon, delta, budget, rng);
  std::printf("second release attempt under the same budget: %s\n",
              second.ok() ? "UNEXPECTEDLY SUCCEEDED"
                          : second.status().ToString().c_str());
  return 0;
}
