// dpkron_probe — the benchmark's in-process helper. It links the dpkron
// library and calls the public entry point of each layer directly, so
// the benchmark driver (perfbench/run.py) can build workload inputs and
// time layers without any instrumentation inside the program.
//
//   dpkron_probe dataset --ref=CA-HepTh-like --seed=7 --out=g.dpkb
//       Loads a dataset exactly the way a scenario does
//       (LoadScenarioGraph with Rng(seed)), writes it as .dpkb and prints
//       its summary as one JSON line.
//   dpkron_probe sample --theta=a,b,c --k=10 --seed=3 [--method=exact]
//       One ReleasePipeline::Sample realization (its default method, or
//       the all-pairs kExact reference); prints node and edge counts and
//       the call's time.
//   dpkron_probe calibrate
//       A fixed CPU-bound loop (the host noise floor); prints its time.
//   dpkron_probe layers --refs=REF[,REF...] --seed=7 --threads=1
//                       --journal=PATH --trace-out=PATH
//       Runs the layer sequence over every graph: one warm-up pass, then
//       kOverheadPairs pairs of an untraced and a traced pass. Prints the
//       per-layer metrics of the last traced pass, the initiators it
//       estimated (the driver samples them with `sample`) and each pair's
//       pass times (their differences are the tracing overhead); writes
//       the last traced pass's spans as Chrome trace-event JSON to
//       --trace-out.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/parallel.h"
#include "src/common/rng.h"
#include "src/common/simd.h"
#include "src/common/stat_cache.h"
#include "src/common/table_writer.h"
#include "src/core/private_estimator.h"
#include "src/core/release.h"
#include "src/core/scenario.h"
#include "src/dp/privacy_accountant.h"
#include "src/dp/smooth_sensitivity.h"
#include "src/estimation/kronmom.h"
#include "src/graph/anf.h"
#include "src/graph/graph_io.h"
#include "src/graph/hop_plot.h"
#include "src/graph/node_stats.h"
#include "src/kronfit/kronfit.h"
#include "src/linalg/lanczos.h"
#include "src/linalg/network_value.h"
#include "src/skg/sampler.h"

namespace dpkron {
namespace {

using Clock = std::chrono::steady_clock;

// Mirrors the defaults of ReleasePipeline's StatisticsOptions and the
// scenarios' KronFit iteration count, so each timed call does the work
// the workloads do.
constexpr uint32_t kSingularValues = 50;
constexpr uint32_t kExactHopPlotLimit = 4096;
constexpr uint32_t kAnfTrials = 32;
constexpr uint32_t kKronFitIterations = 40;
constexpr double kEpsilon = 0.2;
constexpr double kDelta = 0.01;
constexpr int kAccountantCalls = 16;
// Untraced/traced pass pairs whose differences give the tracing overhead.
constexpr int kOverheadPairs = 3;

// Every PassCounter label the library records; all are reported (0 when
// a pass plan does not touch a kernel) so the metric set is fixed.
const char* const kPassLabels[] = {
    "anf_round",  "components",         "degree_histogram", "degree_vector",
    "exact_hop_plot", "max_degree",     "node_stats",       "spmv",
    "triangles",  "triangles_per_node", "tripins",          "wedges"};

std::string FlagValue(int argc, char** argv, const char* name,
                      const char* fallback = nullptr) {
  const size_t len = std::strlen(name);
  for (int i = 2; i < argc; ++i) {
    if (std::strncmp(argv[i], name, len) == 0 && argv[i][len] == '=') {
      return argv[i] + len + 1;
    }
  }
  if (fallback == nullptr) {
    std::fprintf(stderr, "dpkron_probe: missing %s=...\n", name);
    std::exit(2);
  }
  return fallback;
}

std::vector<std::string> SplitCommas(const std::string& value) {
  std::vector<std::string> items;
  size_t start = 0;
  while (start <= value.size()) {
    const size_t end = std::min(value.find(',', start), value.size());
    if (end > start) items.push_back(value.substr(start, end - start));
    start = end + 1;
  }
  return items;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double SecondsSince(int64_t start_ns) { return (NowNs() - start_ns) * 1e-9; }

// ------------------------------------------------------------- tracing

// One span per call: kept in memory, written once at the end.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int id = 0;
  int parent = -1;
  std::string op;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // RAII span; nesting follows scope.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name)
        : tracer_(tracer), name_(std::move(name)), start_ns_(NowNs()) {
      if (tracer_.enabled_) {
        id_ = tracer_.next_id_++;
        parent_ = tracer_.current_;
        tracer_.current_ = id_;
      }
    }
    ~Scope() {
      if (!tracer_.enabled_) return;
      tracer_.current_ = parent_;
      tracer_.spans_.push_back(
          {name_, start_ns_, NowNs(), id_, parent_, tracer_.op_});
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::string name_;
    int64_t start_ns_;
    int id_ = -1;
    int parent_ = -1;
  };

  void set_op(std::string op) { op_ = std::move(op); }
  const std::vector<Span>& spans() const { return spans_; }

  // Total seconds spent in spans called `name` (nested calls of the same
  // name would double count; the probe never nests a name in itself).
  double Seconds(const std::string& name) const {
    int64_t total = 0;
    for (const Span& span : spans_) {
      if (span.name == name) total += span.end_ns - span.start_ns;
    }
    return total * 1e-9;
  }

  std::vector<double> Durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& span : spans_) {
      if (span.name == name) {
        out.push_back((span.end_ns - span.start_ns) * 1e-9);
      }
    }
    return out;
  }

  // Timestamps are steady_clock (CLOCK_MONOTONIC on Linux) microseconds,
  // the clock the driver's own spans use, so the two merge on one axis.
  std::string ChromeTraceJson() const {
    JsonWriter json;
    json.BeginObject();
    json.Key("traceEvents");
    json.BeginArray();
    for (const Span& span : spans_) {
      json.BeginObject();
      json.Key("name");
      json.String(span.name);
      json.Key("ph");
      json.String("X");
      json.Key("ts");
      json.Number(span.start_ns * 1e-3);
      json.Key("dur");
      json.Number((span.end_ns - span.start_ns) * 1e-3);
      json.Key("pid");
      json.Int(2);
      json.Key("tid");
      json.Int(1);
      json.Key("args");
      json.BeginObject();
      json.Key("span_id");
      json.Int(span.id);
      json.Key("parent");
      json.Int(span.parent);
      json.Key("op");
      json.String(span.op);
      json.EndObject();
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
    return json.str();
  }

 private:
  bool enabled_;
  int next_id_ = 0;
  int current_ = -1;
  std::string op_;
  std::vector<Span> spans_;
};

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid]
                           : 0.5 * (values[mid - 1] + values[mid]);
}

Result<GraphHandle> LoadRef(const std::string& ref, uint64_t seed) {
  ScenarioParams params;
  params.seed = seed;
  Rng rng(seed);
  return LoadScenarioGraph(ref, params, rng);
}

// ------------------------------------------------------ layer sequence

struct Estimate {
  std::string label;
  Initiator2 theta;
  uint32_t k = 0;
};

struct PassResult {
  double wall_seconds = 0.0;
  std::vector<Estimate> estimates;
  std::map<std::string, uint64_t> compute_passes;
  uint64_t spmv_passes = 0;
  double bytes_touched = 0.0;
  std::map<int, double> lanczos_by_threads;
};

Status RunLayers(const std::vector<std::string>& refs, uint64_t seed,
                 int threads, const std::string& journal_path,
                 Tracer& tracer, PassResult& result) {
  const int64_t pass_start = NowNs();
  std::vector<int> thread_counts = {threads, 1, 2};
  std::sort(thread_counts.begin(), thread_counts.end());
  thread_counts.erase(std::unique(thread_counts.begin(), thread_counts.end()),
                      thread_counts.end());

  for (size_t i = 0; i < refs.size(); ++i) {
    const std::string& ref = refs[i];
    tracer.set_op(ref);
    Tracer::Scope graph_scope(tracer, "probe.graph");
    SetParallelThreadCount(threads);

    Result<GraphHandle> loaded = [&] {
      Tracer::Scope scope(tracer, "datasets.LoadScenarioGraph");
      return LoadRef(ref, seed);
    }();
    if (!loaded.ok()) return loaded.status();
    const GraphHandle handle = std::move(loaded).value();
    const GraphView graph = handle.view();
    const uint64_t graph_seed = seed ^ (0x9E3779B97F4A7C15ULL * (i + 1));

    {
      Tracer::Scope scope(tracer, "graph.ComputeNodeStats");
      (void)ComputeNodeStats(graph);
    }
    {
      Rng rng(graph_seed);
      if (graph.NumNodes() <= kExactHopPlotLimit) {
        Tracer::Scope scope(tracer, "graph.ExactHopPlot");
        (void)ExactHopPlot(graph);
      } else {
        Tracer::Scope scope(tracer, "graph.ApproxHopPlot");
        AnfOptions anf;
        anf.num_trials = kAnfTrials;
        (void)ApproxHopPlot(graph, rng, anf);
      }
    }
    const uint32_t k_singular = std::min(kSingularValues, graph.NumNodes());
    for (int t : thread_counts) {
      SetParallelThreadCount(t);
      PassCounter spmv;
      Rng rng(graph_seed);
      const int64_t start = NowNs();
      {
        Tracer::Scope scope(tracer, "linalg.TopSingularValues@" +
                                        std::to_string(t) + "t");
        (void)TopSingularValues(graph.WithPassCounter(&spmv), k_singular, rng);
      }
      result.lanczos_by_threads[t] += SecondsSince(start);
      if (t == threads) result.spmv_passes += spmv.count("spmv");
    }
    SetParallelThreadCount(threads);
    {
      Rng rng(graph_seed);
      Tracer::Scope scope(tracer, "linalg.NetworkValue");
      (void)NetworkValue(graph, rng);
    }
    {
      PassCounter passes;
      Rng rng(graph_seed);
      const ReleasePipeline pipeline;
      {
        Tracer::Scope scope(tracer, "core.ReleasePipeline::Compute");
        (void)pipeline.Compute(graph.WithPassCounter(&passes), rng);
      }
      const double csr_bytes =
          4.0 * (graph.NumNodes() + 1.0) + 4.0 * 2.0 * graph.NumEdges();
      for (const auto& [label, count] : passes.Snapshot()) {
        result.compute_passes[label] += count;
      }
      result.bytes_touched += csr_bytes * double(passes.total());
    }
    KronMomResult kronmom;
    {
      Tracer::Scope scope(tracer, "estimation.FitKronMom");
      kronmom = FitKronMom(graph);
    }
    KronFitResult kronfit;
    {
      Rng rng(graph_seed);
      KronFitOptions options;
      options.iterations = kKronFitIterations;
      Tracer::Scope scope(tracer, "kronfit.FitKronFit");
      kronfit = FitKronFit(graph, rng, options);
    }
    {
      Tracer::Scope scope(tracer, "dp.CachedTriangleSensitivityProfile");
      (void)CachedTriangleSensitivityProfile(graph);
    }
    Initiator2 private_theta;
    {
      Rng rng(graph_seed);
      Result<PrivateEstimatorResult> fit = [&] {
        Tracer::Scope scope(tracer, "dp.EstimatePrivateSkg");
        return EstimatePrivateSkg(graph, kEpsilon, kDelta, rng);
      }();
      if (!fit.ok()) return fit.status();
      private_theta = fit.value().theta;
    }
    // The samples of these estimates are drawn by separate `sample`
    // invocations under the driver's time limit: a runaway sampler then
    // costs one failed operation instead of the whole probe.
    const uint32_t k = ChooseKroneckerOrder(graph.NumNodes());
    result.estimates.push_back({ref + "/kronmom", kronmom.theta, k});
    result.estimates.push_back({ref + "/kronfit", kronfit.theta, k});
    result.estimates.push_back({ref + "/private", private_theta, k});
  }

  // The accountant: durable spends, then already-charged retries.
  tracer.set_op("accountant");
  Tracer::Scope accountant_scope(tracer, "probe.accountant");
  std::remove(journal_path.c_str());
  auto opened = PrivacyAccountant::Open(journal_path, 1e6, 0.999);
  if (!opened.ok()) return opened.status();
  PrivacyAccountant& accountant = *opened.value();
  for (int i = 0; i < kAccountantCalls; ++i) {
    Tracer::Scope scope(tracer, "dp.PrivacyAccountant::Spend");
    const Status spent = accountant.Spend("probe", 1e-3, 1e-6, "probe spend");
    if (!spent.ok()) return spent;
  }
  for (int i = 0; i < kAccountantCalls; ++i) {
    const Status spent = accountant.SpendOnce(
        "probe", 1e-3, 1e-6, "probe charge", "probe-" + std::to_string(i));
    if (!spent.ok()) return spent;
  }
  for (int i = 0; i < kAccountantCalls; ++i) {
    bool deduped = false;
    Status spent;
    {
      Tracer::Scope scope(tracer, "dp.PrivacyAccountant::SpendOnce(dedup)");
      spent = accountant.SpendOnce("probe", 1e-3, 1e-6, "probe charge",
                                   "probe-" + std::to_string(i), &deduped);
    }
    if (!spent.ok()) return spent;
    if (!deduped) return Status::Internal("retry of a charged id was charged");
  }
  result.wall_seconds = SecondsSince(pass_start);
  return Status::Ok();
}

void WriteEstimateJson(JsonWriter& json, const Estimate& s) {
  json.BeginObject();
  json.Key("label");
  json.String(s.label);
  json.Key("theta");
  json.BeginArray();
  json.Number(s.theta.a);
  json.Number(s.theta.b);
  json.Number(s.theta.c);
  json.EndArray();
  json.Key("k");
  json.UInt(s.k);
  json.EndObject();
}

int CmdLayers(int argc, char** argv) {
  const std::vector<std::string> refs =
      SplitCommas(FlagValue(argc, argv, "--refs"));
  const uint64_t seed = std::strtoull(FlagValue(argc, argv, "--seed").c_str(),
                                      nullptr, 10);
  const int threads =
      std::max(1, std::atoi(FlagValue(argc, argv, "--threads").c_str()));
  const std::string journal = FlagValue(argc, argv, "--journal");
  const std::string trace_out = FlagValue(argc, argv, "--trace-out");
  // Layer timings are of cold computations: the memo is off.
  StatCache::Instance().set_enabled(false);

  // The warm-up pass takes first loads, pool start-up and allocator
  // growth out of the compared passes; each pair then runs the same
  // warm work with span recording off and on.
  auto run = [&](Tracer& tracer, PassResult& result) {
    const Status status =
        RunLayers(refs, seed, threads, journal, tracer, result);
    if (!status.ok()) {
      std::fprintf(stderr, "dpkron_probe layers: %s\n",
                   status.ToString().c_str());
    }
    return status.ok();
  };
  Tracer warm_up_tracer(false);
  PassResult warm_up;
  if (!run(warm_up_tracer, warm_up)) return 1;
  std::vector<double> untraced_s, traced_s;
  std::unique_ptr<Tracer> last_tracer;
  PassResult traced;
  for (int r = 0; r < kOverheadPairs; ++r) {
    Tracer off(false);
    PassResult untraced;
    if (!run(off, untraced)) return 1;
    untraced_s.push_back(untraced.wall_seconds);
    last_tracer = std::make_unique<Tracer>(true);
    traced = PassResult();
    if (!run(*last_tracer, traced)) return 1;
    traced_s.push_back(traced.wall_seconds);
  }
  const Tracer& tracer = *last_tracer;
  std::remove(journal.c_str());
  if (std::FILE* f = std::fopen(trace_out.c_str(), "w")) {
    const std::string trace = tracer.ChromeTraceJson();
    std::fwrite(trace.data(), 1, trace.size(), f);
    std::fclose(f);
  } else {
    std::fprintf(stderr, "dpkron_probe: cannot write %s\n", trace_out.c_str());
    return 1;
  }

  const double lanczos_at_threads = traced.lanczos_by_threads[threads];
  JsonWriter json;
  json.BeginObject();
  auto array = [&json](const char* name, const std::vector<double>& values) {
    json.Key(name);
    json.BeginArray();
    for (double v : values) json.Number(v);
    json.EndArray();
  };
  array("untraced_pass_s", untraced_s);
  array("traced_pass_s", traced_s);
  json.Key("spans");
  json.UInt(tracer.spans().size());
  json.Key("metrics");
  json.BeginObject();
  auto metric = [&json](const std::string& name, double value) {
    json.Key(name);
    json.Number(value);
  };
  metric("datasets.load_s", tracer.Seconds("datasets.LoadScenarioGraph"));
  metric("graph.node_stats_s", tracer.Seconds("graph.ComputeNodeStats"));
  metric("graph.hop_plot_s", tracer.Seconds("graph.ApproxHopPlot") +
                                 tracer.Seconds("graph.ExactHopPlot"));
  for (const char* label : kPassLabels) {
    const auto it = traced.compute_passes.find(label);
    metric(std::string("graph.passes.") + label,
           it == traced.compute_passes.end() ? 0.0 : double(it->second));
  }
  metric("graph.bytes_touched", traced.bytes_touched);
  metric("linalg.lanczos_s", lanczos_at_threads);
  metric("linalg.network_value_s", tracer.Seconds("linalg.NetworkValue"));
  metric("linalg.spmv_passes", double(traced.spmv_passes));
  metric("linalg.lanczos_thread_ratio",
         traced.lanczos_by_threads[2] / traced.lanczos_by_threads[1]);
  metric("kronfit.fit_s", tracer.Seconds("kronfit.FitKronFit"));
  metric("estimation.kronmom_s", tracer.Seconds("estimation.FitKronMom"));
  metric("dp.sensitivity_profile_s",
         tracer.Seconds("dp.CachedTriangleSensitivityProfile"));
  metric("dp.private_estimate_s", tracer.Seconds("dp.EstimatePrivateSkg"));
  metric("dp.spend_ms",
         1e3 * Median(tracer.Durations("dp.PrivacyAccountant::Spend")));
  metric("dp.dedup_ms",
         1e3 * Median(tracer.Durations(
                   "dp.PrivacyAccountant::SpendOnce(dedup)")));
  metric("core.release_compute_s",
         tracer.Seconds("core.ReleasePipeline::Compute"));
  json.EndObject();
  json.Key("estimates");
  json.BeginArray();
  for (const Estimate& e : traced.estimates) WriteEstimateJson(json, e);
  json.EndArray();
  json.EndObject();
  std::printf("%s\n", json.str().c_str());
  return 0;
}

// --------------------------------------------------------- other modes

int CmdDataset(int argc, char** argv) {
  const std::string ref = FlagValue(argc, argv, "--ref");
  const uint64_t seed = std::strtoull(FlagValue(argc, argv, "--seed").c_str(),
                                      nullptr, 10);
  const std::string out = FlagValue(argc, argv, "--out");
  auto loaded = LoadRef(ref, seed);
  if (!loaded.ok()) {
    std::fprintf(stderr, "dpkron_probe dataset: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  const GraphView graph = loaded.value().view();
  const Status wrote = WriteBinaryGraph(graph, out);
  if (!wrote.ok()) {
    std::fprintf(stderr, "dpkron_probe dataset: %s\n",
                 wrote.ToString().c_str());
    return 1;
  }
  uint32_t max_degree = 0;
  for (uint32_t u = 0; u < graph.NumNodes(); ++u) {
    max_degree = std::max(max_degree, graph.Degree(u));
  }
  JsonWriter json;
  json.BeginObject();
  json.Key("nodes");
  json.UInt(graph.NumNodes());
  json.Key("edges");
  json.UInt(graph.NumEdges());
  json.Key("max_degree");
  json.UInt(max_degree);
  json.Key("fingerprint");
  json.String(std::to_string(graph.ContentFingerprint()));
  json.EndObject();
  std::printf("%s\n", json.str().c_str());
  return 0;
}

int CmdSample(int argc, char** argv) {
  const std::vector<std::string> parts =
      SplitCommas(FlagValue(argc, argv, "--theta"));
  if (parts.size() != 3) {
    std::fprintf(stderr, "dpkron_probe sample: --theta=a,b,c\n");
    return 2;
  }
  const Initiator2 theta{std::atof(parts[0].c_str()),
                         std::atof(parts[1].c_str()),
                         std::atof(parts[2].c_str())};
  const uint32_t k = std::atoi(FlagValue(argc, argv, "--k").c_str());
  const uint64_t seed = std::strtoull(FlagValue(argc, argv, "--seed").c_str(),
                                      nullptr, 10);
  // ReleasePipeline::Sample with its default method, or the all-pairs
  // reference sampler the validator self-test checks against.
  const std::string method = FlagValue(argc, argv, "--method", "default");
  if (method != "default" && method != "exact") {
    std::fprintf(stderr, "dpkron_probe sample: --method=default|exact\n");
    return 2;
  }
  const SkgSampleMethod chosen = method == "exact"
                                     ? SkgSampleMethod::kExact
                                     : ReleasePipeline().method();
  const ReleasePipeline pipeline({}, chosen);
  Rng rng(seed);
  const int64_t start = NowNs();
  const Graph sample = pipeline.Sample(theta, k, rng);
  std::printf("{\"nodes\": %u, \"edges\": %llu, \"seconds\": %.9f}\n",
              sample.NumNodes(),
              static_cast<unsigned long long>(sample.NumEdges()),
              SecondsSince(start));
  return 0;
}

int CmdCalibrate() {
  // Fixed integer work, independent of the library: xorshift + multiply.
  const int64_t start = NowNs();
  uint64_t x = 0x2545F4914F6CDD1DULL, acc = 0;
  for (uint64_t i = 0; i < 100000000ULL; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += x * 0x9E3779B97F4A7C15ULL;
  }
  const double seconds = SecondsSince(start);
  const SimdLevel active = std::min(DetectedSimdLevel(), SimdLevelCap());
  JsonWriter json;
  json.BeginObject();
  json.Key("seconds");
  json.Number(seconds);
  json.Key("checksum");
  json.String(std::to_string(acc));
  json.Key("simd_detected");
  json.String(SimdLevelName(DetectedSimdLevel()));
  json.Key("simd_active");
  json.String(SimdLevelName(active));
  json.Key("cpu");
  json.String(CpuBrandString());
  json.EndObject();
  std::printf("%s\n", json.str().c_str());
  return 0;
}

}  // namespace
}  // namespace dpkron

int main(int argc, char** argv) {
  const char* mode = argc > 1 ? argv[1] : "";
  if (std::strcmp(mode, "layers") == 0) return dpkron::CmdLayers(argc, argv);
  if (std::strcmp(mode, "dataset") == 0) return dpkron::CmdDataset(argc, argv);
  if (std::strcmp(mode, "sample") == 0) return dpkron::CmdSample(argc, argv);
  if (std::strcmp(mode, "calibrate") == 0) return dpkron::CmdCalibrate();
  std::fprintf(stderr,
               "usage: dpkron_probe {dataset|sample|calibrate|layers} "
               "[--flag=value ...]\n");
  return 2;
}
