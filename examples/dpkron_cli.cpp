// dpkron command-line tool: the full pipeline without writing C++.
//
//   dpkron_cli fit      <edges.txt> [--epsilon=0.2] [--delta=0.01]
//       Run Algorithm 1 on an edge-list file; print Θ̃, the budget ledger
//       and the released matching statistics.
//   dpkron_cli release  <edges.txt> <out.txt> [--epsilon=] [--delta=]
//       fit + sample one synthetic graph and write it as an edge list.
//   dpkron_cli sample   <a> <b> <c> <k> <out.txt> [--seed=]
//       Sample an SKG realization from explicit parameters (exact
//       class-skipping sampler).
//   dpkron_cli stats    <edges.txt>
//       Print the evaluation statistics of a graph (no privacy involved).
//   dpkron_cli compare  <edges.txt> [--epsilon=] [--delta=]
//       Fit KronFit, KronMom and Private side by side.
//
// Flags may appear anywhere after the subcommand.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/core/private_estimator.h"
#include "src/core/release.h"
#include "src/estimation/kronmom.h"
#include "src/graph/clustering.h"
#include "src/graph/degree.h"
#include "src/graph/extra_stats.h"
#include "src/graph/graph_io.h"
#include "src/graph/hop_plot.h"
#include "src/kronfit/kronfit.h"
#include "src/skg/sampler.h"

namespace {

using namespace dpkron;

struct Flags {
  double epsilon = 0.2;
  double delta = 0.01;
  uint64_t seed = 1;
  std::vector<std::string> positional;
};

Flags Parse(int argc, char** argv, int first) {
  Flags flags;
  for (int i = first; i < argc; ++i) {
    if (std::strncmp(argv[i], "--epsilon=", 10) == 0) {
      flags.epsilon = std::atof(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--delta=", 8) == 0) {
      flags.delta = std::atof(argv[i] + 8);
    } else if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      flags.seed = std::atoll(argv[i] + 7);
    } else {
      flags.positional.emplace_back(argv[i]);
    }
  }
  return flags;
}

int Usage() {
  std::fprintf(stderr,
               "usage: dpkron_cli <fit|release|sample|stats|compare> ...\n"
               "  fit <edges.txt> [--epsilon= --delta= --seed=]\n"
               "  release <edges.txt> <out.txt> [flags]\n"
               "  sample <a> <b> <c> <k> <out.txt> [--seed=]\n"
               "  stats <edges.txt>\n"
               "  compare <edges.txt> [flags]\n");
  return 2;
}

Result<Graph> Load(const std::string& path) {
  auto graph = ReadEdgeList(path);
  if (graph.ok()) {
    std::printf("loaded %s: %u nodes, %llu edges\n", path.c_str(),
                graph.value().NumNodes(),
                static_cast<unsigned long long>(graph.value().NumEdges()));
  }
  return graph;
}

int RunFit(const Flags& flags) {
  if (flags.positional.size() != 1) return Usage();
  auto graph = Load(flags.positional[0]);
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 1;
  }
  Rng rng(flags.seed);
  PrivacyBudget budget(flags.epsilon, flags.delta);
  const auto fit = EstimatePrivateSkg(graph.value(), flags.epsilon,
                                      flags.delta, budget, rng);
  if (!fit.ok()) {
    std::fprintf(stderr, "%s\n", fit.status().ToString().c_str());
    return 1;
  }
  std::printf("theta   = %s\n", fit.value().theta.ToString().c_str());
  std::printf("k       = %u\n", fit.value().k);
  std::printf("released statistics: %s\n",
              fit.value().private_features.ToString().c_str());
  std::printf("%s", budget.ToString().c_str());
  return 0;
}

int RunRelease(const Flags& flags) {
  if (flags.positional.size() != 2) return Usage();
  auto graph = Load(flags.positional[0]);
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 1;
  }
  Rng rng(flags.seed);
  PrivacyBudget budget(flags.epsilon, flags.delta);
  const auto fit = EstimatePrivateSkg(graph.value(), flags.epsilon,
                                      flags.delta, budget, rng);
  if (!fit.ok()) {
    std::fprintf(stderr, "%s\n", fit.status().ToString().c_str());
    return 1;
  }
  const Graph synthetic =
      ReleasePipeline().Sample(fit.value().theta, fit.value().k, rng);
  if (Status s = WriteEdgeList(synthetic, flags.positional[1]); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("theta = %s (k = %u)\n", fit.value().theta.ToString().c_str(),
              fit.value().k);
  std::printf("synthetic graph (%u nodes, %llu edges) -> %s\n",
              synthetic.NumNodes(),
              static_cast<unsigned long long>(synthetic.NumEdges()),
              flags.positional[1].c_str());
  return 0;
}

int RunSample(const Flags& flags) {
  if (flags.positional.size() != 5) return Usage();
  const Initiator2 theta{std::atof(flags.positional[0].c_str()),
                         std::atof(flags.positional[1].c_str()),
                         std::atof(flags.positional[2].c_str())};
  const uint32_t k = std::atoi(flags.positional[3].c_str());
  if (!theta.IsValid() || k == 0 || k > 30) {
    std::fprintf(stderr, "invalid initiator or k\n");
    return 1;
  }
  Rng rng(flags.seed);
  const Graph g = ReleasePipeline().Sample(theta, k, rng);
  if (Status s = WriteEdgeList(g, flags.positional[4]); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("sampled %s^[%u]: %u nodes, %llu edges -> %s\n",
              theta.ToString().c_str(), k, g.NumNodes(),
              static_cast<unsigned long long>(g.NumEdges()),
              flags.positional[4].c_str());
  return 0;
}

int RunStats(const Flags& flags) {
  if (flags.positional.size() != 1) return Usage();
  auto graph = Load(flags.positional[0]);
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 1;
  }
  const Graph& g = graph.value();
  Rng rng(flags.seed);
  const GraphFeatures f = ComputeFeatures(g);
  std::printf("features:          %s\n", f.ToString().c_str());
  std::printf("max degree:        %u\n", MaxDegree(g));
  std::printf("avg clustering:    %.4f\n", AverageClustering(g));
  std::printf("global clustering: %.4f\n", GlobalClustering(g));
  std::printf("assortativity:     %+.4f\n", DegreeAssortativity(g));
  std::printf("degeneracy:        %u\n", Degeneracy(g));
  const auto hops = ExactHopPlot(g);
  std::printf("effective diam:    %u\n", EffectiveDiameter(hops));
  return 0;
}

int RunCompare(const Flags& flags) {
  if (flags.positional.size() != 1) return Usage();
  auto graph = Load(flags.positional[0]);
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 1;
  }
  Rng rng(flags.seed);
  const KronMomResult kronmom = FitKronMom(graph.value());
  const KronFitResult kronfit = FitKronFit(graph.value(), rng);
  const auto private_fit = EstimatePrivateSkg(graph.value(), flags.epsilon,
                                              flags.delta, rng);
  std::printf("KronFit  %s\n", kronfit.theta.ToString().c_str());
  std::printf("KronMom  %s\n", kronmom.theta.ToString().c_str());
  if (private_fit.ok()) {
    std::printf("Private  %s   (eps=%g delta=%g)\n",
                private_fit.value().theta.ToString().c_str(), flags.epsilon,
                flags.delta);
    std::printf("|Private - KronMom|_inf = %.4f\n",
                MaxAbsDifference(private_fit.value().theta, kronmom.theta));
  } else {
    std::printf("Private  failed: %s\n",
                private_fit.status().ToString().c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  const Flags flags = Parse(argc, argv, 2);
  if (command == "fit") return RunFit(flags);
  if (command == "release") return RunRelease(flags);
  if (command == "sample") return RunSample(flags);
  if (command == "stats") return RunStats(flags);
  if (command == "compare") return RunCompare(flags);
  return Usage();
}
