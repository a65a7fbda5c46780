// ps2bench: runs one benchmark workload of the PS2 simulator and prints its
// raw measurements as one JSON object on stdout. run.py (same directory)
// builds this program, turns the raw record into the benchmark's metrics and
// checks the outputs; see README.md for the workloads and the metrics.
//
//   ps2bench --workload=lr_ctr --seed=1 --seconds=20 [--trace=out.json]
//
// One invocation runs the workload back to back ("repeats") until --seconds
// of wall time are spent, and at least the workload's minimum number of
// times. Each repeat builds a fresh cluster, so every repeat pays and
// reports its own set-up. With --trace, one more repeat runs with
// obs::Tracer on and its spans are written to that path as a Chrome trace.
//
// Only public entry points of the library are called; the program never
// changes what the library does. Every call the benchmark times is also
// wrapped in a "bench.<layer>" span so the traced repeat can attribute
// coordinator time to the layer that spent it.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "data/classification_gen.h"
#include "data/graph_gen.h"
#include "data/presets.h"
#include "data/zipf.h"
#include "dataflow/cluster.h"
#include "dataflow/dataset.h"
#include "dcv/dcv_context.h"
#include "linalg/sparse_vector.h"
#include "ml/deepwalk.h"
#include "ml/logreg.h"
#include "net/filter_config.h"
#include "obs/trace.h"
#include "ps/ps_client.h"
#include "ps/ps_master.h"
#include "serving/serving_loop.h"
#include "serving/snapshot.h"

namespace ps2 {
namespace bench {
namespace {

using SteadyClock = std::chrono::steady_clock;

double SecondsSince(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

// ---------------------------------------------------------------- shape

constexpr int kWorkers = 4;
constexpr int kServers = 4;
/// Cluster seed: drives the message-fault draws and the per-task RNG
/// streams. Fixed, so a workload's fault pattern does not change with the
/// input seed.
constexpr uint64_t kClusterSeed = 2019;

// Serving: open-loop Poisson arrivals, Zipf(2.0) row and key choice.
constexpr double kServeSkew = 2.0;
constexpr uint32_t kServeKeys = 16;
constexpr size_t kServeBatchMax = 8;
constexpr size_t kServeMaxQueue = 64;
constexpr double kServeQps = 20000.0;     ///< the fixed offered rate
constexpr double kServeWindowS = 1.0;     ///< virtual window at that rate
constexpr double kLadderStepQps = 500.0;  ///< grid of the max-rate search
constexpr int kLadderMaxStep = 128;       ///< grid top: 64k qps
/// Arrivals per ladder probe: near saturation the queue's busy periods are
/// long, and a short probe's p99 depends on which of them it catches.
constexpr double kLadderRequests = 10000.0;
constexpr double kLatencyLimitUs = 1000.0;

// deepwalk_graph: Graph1-shaped corpus at a quarter of the preset's size.
constexpr double kGraphScale = 0.25;
constexpr int kDeepWalkEpochs = 4;

// serve_zipf: a 16 x 10000 model updated by sparse regression rounds.
constexpr uint32_t kZipfRows = 16;
constexpr uint64_t kZipfDim = 10000;
constexpr int kZipfRounds = 50;
constexpr uint32_t kZipfRowsPerTask = 4;
constexpr uint32_t kZipfKeysPerRow = 32;
constexpr double kZipfStep = 0.5;
constexpr double kZipfRoundWindowS = 0.04;
constexpr uint32_t kPinnedKeys = 64;

/// Per-thread span ring of the traced repeat. The largest traced repeat
/// records up to 51k spans on one thread; the default 2^15 would wrap.
constexpr size_t kTraceRingCapacity = size_t{1} << 18;

struct WorkloadSpec {
  std::string name;
  enum Kind { kLr, kDeepWalk, kServe } kind = kLr;
  bool wire = false;  ///< wire filters on and message faults injected
  /// Repeats per run even when --seconds is spent sooner; the first one
  /// warms the heap, so the rest carry the wall-clock medians.
  int min_repeats = 3;
};

bool LookupWorkload(const std::string& name, WorkloadSpec* out) {
  static const WorkloadSpec kAll[] = {
      {"lr_ctr", WorkloadSpec::kLr, false, 3},
      {"deepwalk_graph", WorkloadSpec::kDeepWalk, false, 4},
      {"serve_zipf", WorkloadSpec::kServe, false, 6},
      {"lr_ctr_wire", WorkloadSpec::kLr, true, 3},
  };
  for (const WorkloadSpec& w : kAll) {
    if (w.name == name) {
      *out = w;
      return true;
    }
  }
  return false;
}

ClusterSpec MakeClusterSpec(const WorkloadSpec& w) {
  ClusterSpec spec;
  spec.num_workers = kWorkers;
  spec.num_servers = kServers;
  spec.seed = kClusterSeed;
  if (w.wire) {
    spec.filters = *FilterConfig::Parse("keycache,delta,compress");
    spec.message_failure_prob = 0.005;
    // A retry waits 100 us before resending. With the 1 ms default a single
    // lost message outlasts the whole serving latency budget, and the p99
    // of every serving window swung with where the rare losses fell.
    spec.retry_backoff_base_s = 1e-4;
  }
  return spec;
}

// ---------------------------------------------------------------- JSON out

/// Minimal JSON object writer: numbers at full precision, flat arrays.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double value) {
    std::ostringstream s;
    s.precision(17);
    if (std::isfinite(value)) {
      s << value;
    } else {
      s << "null";
    }
    return Raw(key, s.str());
  }
  JsonObject& Str(const std::string& key, const std::string& value) {
    return Raw(key, "\"" + value + "\"");
  }
  JsonObject& Bool(const std::string& key, bool value) {
    return Raw(key, value ? "true" : "false");
  }
  JsonObject& Nums(const std::string& key, const std::vector<double>& values) {
    std::ostringstream s;
    s.precision(17);
    s << "[";
    for (size_t i = 0; i < values.size(); ++i) {
      if (i > 0) s << ",";
      s << values[i];
    }
    s << "]";
    return Raw(key, s.str());
  }
  JsonObject& Obj(const std::string& key, const JsonObject& value) {
    return Raw(key, value.str());
  }
  JsonObject& Objs(const std::string& key,
                   const std::vector<JsonObject>& values) {
    std::string s = "[";
    for (size_t i = 0; i < values.size(); ++i) {
      if (i > 0) s += ",";
      s += values[i].str();
    }
    return Raw(key, s + "]");
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  JsonObject& Raw(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + key + "\":" + value;
    return *this;
  }
  std::string body_;
};

// ---------------------------------------------------------------- helpers

struct Rusage {
  double cpu_s = 0;
  double max_rss_mb = 0;
  double voluntary_ctx = 0;
};

Rusage ReadRusage() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  Rusage out;
  out.cpu_s = ru.ru_utime.tv_sec + ru.ru_stime.tv_sec +
              1e-6 * (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
  out.max_rss_mb = ru.ru_maxrss / 1024.0;  // Linux reports KiB
  out.voluntary_ctx = static_cast<double>(ru.ru_nvcsw);
  return out;
}

/// Process CPU seconds (all threads, user + system).
double CpuSeconds() { return ReadRusage().cpu_s; }

/// Counters that moved between two snapshots.
JsonObject CounterDelta(const std::map<std::string, uint64_t>& before,
                        const std::map<std::string, uint64_t>& after) {
  JsonObject out;
  for (const auto& [name, value] : after) {
    auto it = before.find(name);
    const uint64_t base = it == before.end() ? 0 : it->second;
    if (value != base) out.Num(name, static_cast<double>(value - base));
  }
  return out;
}

JsonObject Histograms(const MetricsRegistry& metrics) {
  JsonObject out;
  for (const auto& [name, h] : metrics.HistogramSnapshots()) {
    if (h.count == 0) continue;
    out.Obj(name, JsonObject()
                      .Num("count", static_cast<double>(h.count))
                      .Num("sum", h.sum)
                      .Num("p50", h.p50)
                      .Num("p95", h.p95)
                      .Num("p99", h.p99));
  }
  return out;
}

void Fail(const std::string& what, const Status& status) {
  std::fprintf(stderr, "ps2bench: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(1);
}

template <typename T>
T Must(Result<T> result, const std::string& what) {
  if (!result.ok()) Fail(what, result.status());
  return std::move(*result);
}

void Must(const Status& status, const std::string& what) {
  if (!status.ok()) Fail(what, status);
}

/// The model the serving phase reads: leading `num_rows` rows of a matrix.
struct ServedModel {
  int matrix_id = -1;
  uint32_t num_rows = 0;
  uint64_t dim = 0;
};

ServingLoopOptions ServeOptions(const ServedModel& model, double qps,
                                double duration_s, uint64_t seed) {
  ServingLoopOptions options;
  options.duration_s = duration_s;
  options.batch_max = kServeBatchMax;
  options.traffic.qps = qps;
  options.traffic.skew = kServeSkew;
  options.traffic.matrix_id = model.matrix_id;
  options.traffic.num_rows = model.num_rows;
  options.traffic.dim = model.dim;
  options.traffic.keys_per_request = kServeKeys;
  options.traffic.seed = seed;
  options.admission.max_queue_depth = kServeMaxQueue;
  options.frontend.coalesce = true;
  return options;
}

/// Totals over every RunServingLoop call of one repeat.
struct ServeTally {
  uint64_t offered = 0;
  uint64_t served = 0;
  uint64_t shed = 0;
  double wall_s = 0;
  double cpu_s = 0;
  uint64_t wire_bytes = 0;
  bool conserved = true;  ///< served + shed == offered on every loop

  ServingReport Run(PsMaster* master, PsClient* client,
                    const ServingLoopOptions& options) {
    PS2_TRACE_SPAN("bench.serving", "loop");
    const MetricsRegistry& metrics = master->cluster()->metrics();
    const uint64_t wire_before = metrics.Get("net.bytes_wire");
    const SteadyClock::time_point start = SteadyClock::now();
    const double cpu_start = CpuSeconds();
    ServingReport report =
        Must(RunServingLoop(master, client, options), "serving loop");
    wall_s += SecondsSince(start);
    cpu_s += CpuSeconds() - cpu_start;
    wire_bytes += metrics.Get("net.bytes_wire") - wire_before;
    offered += report.offered;
    served += report.served;
    shed += report.shed;
    if (report.served + report.shed != report.offered) conserved = false;
    return report;
  }

  JsonObject ToJson() const {
    return JsonObject()
        .Num("offered", offered)
        .Num("served", served)
        .Num("shed", shed)
        .Num("wall_s", wall_s)
        .Num("cpu_s", cpu_s)
        .Num("wire_bytes", wire_bytes)
        .Bool("conserved", conserved);
  }
};

/// Highest rate on the fixed grid (kLadderStepQps steps) whose p99 stays
/// within kLatencyLimitUs with nothing shed. Bisection over the grid: the loop's
/// latency grows with the offered rate.
double MaxQps(PsMaster* master, PsClient* client, const ServedModel& model,
              uint64_t seed, ServeTally* tally) {
  auto ok = [&](int step) {
    const double qps = step * kLadderStepQps;
    ServingReport r = tally->Run(
        master, client,
        ServeOptions(model, qps, kLadderRequests / qps, seed));
    return r.shed == 0 && r.p99_us <= kLatencyLimitUs;
  };
  int lo = 0, hi = kLadderMaxStep + 1;  // lo: known good, hi: known bad
  while (hi - lo > 1) {
    const int mid = (lo + hi) / 2;
    if (ok(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo * kLadderStepQps;
}

// ---------------------------------------------------------------- repeat

/// Everything one repeat measured; serialized for run.py.
struct RepeatRecord {
  double gen_s = 0;       ///< data generation + caching
  double ps_setup_s = 0;  ///< DcvContext (+ serve_zipf's matrix and publish)
  double setup_s = 0;
  double setup_cpu_s = 0;
  double train_wall_s = 0;
  double train_cpu_s = 0;
  double examples = 0;
  std::vector<double> step_ms;
  std::vector<double> step_cpu_ms;
  std::vector<double> losses;
  double virtual_s = 0;
  JsonObject counters;  ///< training-phase counter deltas
  JsonObject shape;     ///< spec vs realized workload shape
  ServingReport nominal;
  double max_qps = 0;
  ServeTally serve;   ///< the fixed-rate windows
  ServeTally ladder;  ///< the rate-ladder probes
  double publish_s = 0;
  uint64_t publishes = 0;
  uint64_t publish_bytes = 0;
  uint64_t publish_rows_copied = 0;
  uint64_t publish_rows_reused = 0;
  uint64_t pinned_checks = 0;
  uint64_t pinned_mismatches = 0;
  double wall_s = 0;  ///< whole repeat
  Rusage usage_delta;
  JsonObject histograms;  ///< whole repeat

  /// Publishes the next serving epoch and tallies what it copied.
  SnapshotPublishStats Publish(PsMaster* master) {
    PS2_TRACE_SPAN("bench.serving", "publish");
    const SteadyClock::time_point start = SteadyClock::now();
    SnapshotPublishStats stats =
        Must(master->serving_snapshots()->Publish(), "publish");
    publish_s += SecondsSince(start);
    publishes += 1;
    publish_bytes += stats.bytes_copied;
    publish_rows_copied += stats.rows_copied;
    publish_rows_reused += stats.rows_reused;
    return stats;
  }

  JsonObject ToJson() const {
    return JsonObject()
        .Num("gen_s", gen_s)
        .Num("ps_setup_s", ps_setup_s)
        .Num("setup_s", setup_s)
        .Num("setup_cpu_s", setup_cpu_s)
        .Num("train_wall_s", train_wall_s)
        .Num("train_cpu_s", train_cpu_s)
        .Num("examples", examples)
        .Nums("step_ms", step_ms)
        .Nums("step_cpu_ms", step_cpu_ms)
        .Nums("losses", losses)
        .Num("virtual_s", virtual_s)
        .Obj("counters", counters)
        .Obj("shape", shape)
        .Obj("nominal", JsonObject()
                            .Num("offered", nominal.offered)
                            .Num("served", nominal.served)
                            .Num("shed", nominal.shed)
                            .Num("p50_us", nominal.p50_us)
                            .Num("p99_us", nominal.p99_us))
        .Num("max_qps", max_qps)
        .Obj("serve", serve.ToJson())
        .Obj("ladder", ladder.ToJson())
        .Obj("publish", JsonObject()
                            .Num("calls", publishes)
                            .Num("wall_s", publish_s)
                            .Num("bytes_copied", publish_bytes)
                            .Num("rows_copied", publish_rows_copied)
                            .Num("rows_reused", publish_rows_reused))
        .Num("pinned_checks", pinned_checks)
        .Num("pinned_mismatches", pinned_mismatches)
        .Num("wall_s", wall_s)
        .Obj("rusage", JsonObject()
                           .Num("cpu_s", usage_delta.cpu_s)
                           .Num("voluntary_ctx", usage_delta.voluntary_ctx))
        .Obj("histograms", histograms);
  }
};

/// Times training and its BSP stages, on the wall clock and in process CPU
/// time; the stages are cut by the post-stage hook.
struct StepTimer {
  RepeatRecord* rec = nullptr;
  SteadyClock::time_point start, last;
  double cpu_start = 0, cpu_last = 0;
  bool armed = false;

  void Start() {
    start = last = SteadyClock::now();
    cpu_start = cpu_last = CpuSeconds();
    armed = true;
  }
  void Step() {
    if (!armed) return;
    const SteadyClock::time_point now = SteadyClock::now();
    const double cpu = CpuSeconds();
    rec->step_ms.push_back(
        std::chrono::duration<double, std::milli>(now - last).count());
    rec->step_cpu_ms.push_back(1e3 * (cpu - cpu_last));
    last = now;
    cpu_last = cpu;
  }
  void Stop() {
    armed = false;
    rec->train_wall_s = SecondsSince(start);
    rec->train_cpu_s = CpuSeconds() - cpu_start;
  }
};

std::shared_ptr<StepTimer> InstallStepTimer(Cluster* cluster,
                                            RepeatRecord* rec) {
  auto timer = std::make_shared<StepTimer>();
  timer->rec = rec;
  cluster->RegisterPostStageHook([timer](Cluster&) { timer->Step(); });
  return timer;
}

/// Final serving phase shared by every workload: publish the trained model,
/// serve the fixed offered rate, then search the rate ladder.
void ServePhase(PsMaster* master, PsClient* client, const ServedModel& model,
                uint64_t seed, RepeatRecord* rec) {
  rec->Publish(master);
  rec->nominal = rec->serve.Run(
      master, client, ServeOptions(model, kServeQps, kServeWindowS, seed));
  rec->max_qps = MaxQps(master, client, model, seed, &rec->ladder);
  rec->histograms = Histograms(master->cluster()->metrics());
}

/// Virtual time and counters of the training phase (serve_zipf's serving
/// windows included: they run between its training stages).
void FinishTraining(Cluster* cluster,
                    const std::map<std::string, uint64_t>& before,
                    double clock_before, RepeatRecord* rec) {
  rec->virtual_s = cluster->clock().Now() - clock_before;
  rec->counters = CounterDelta(before, cluster->metrics().Snapshot());
}

RepeatRecord RunLr(const WorkloadSpec& w, uint64_t seed) {
  RepeatRecord rec;
  const SteadyClock::time_point start = SteadyClock::now();
  const double cpu_start = CpuSeconds();
  Cluster cluster(MakeClusterSpec(w));
  ClassificationSpec ds = presets::CtrLike();
  ds.seed = seed;
  Dataset<Example> data;
  size_t rows = 0;
  uint64_t nnz = 0, max_index = 0;
  {
    PS2_TRACE_SPAN("bench.data", "generate");
    data = MakeClassificationDataset(&cluster, ds).Cache();
    // Materializes the cache and reads the realized shape back.
    for (const auto& [n, z, m] :
         data.MapPartitionsCollect<std::tuple<size_t, uint64_t, uint64_t>>(
             [](TaskContext&, const std::vector<Example>& part) {
               uint64_t z = 0, m = 0;
               for (const Example& e : part) {
                 z += e.features.nnz();
                 for (uint64_t i : e.features.indices()) m = std::max(m, i);
               }
               return std::make_tuple(part.size(), z, m);
             })) {
      rows += n;
      nnz += z;
      max_index = std::max(max_index, m);
    }
  }
  rec.gen_s = SecondsSince(start);
  const SteadyClock::time_point ps_start = SteadyClock::now();
  std::unique_ptr<DcvContext> ctx;
  {
    PS2_TRACE_SPAN("bench.ps", "setup");
    ctx = std::make_unique<DcvContext>(&cluster);
  }
  rec.ps_setup_s = SecondsSince(ps_start);
  rec.setup_s = SecondsSince(start);
  rec.setup_cpu_s = CpuSeconds() - cpu_start;

  GlmOptions options;
  options.dim = ds.dim;
  options.optimizer.kind = OptimizerKind::kAdam;
  options.optimizer.learning_rate = 0.05;
  options.batch_fraction = 0.01;
  options.iterations = 100;
  options.seed = seed;

  std::shared_ptr<StepTimer> timer = InstallStepTimer(&cluster, &rec);
  const auto counters_before = cluster.metrics().Snapshot();
  const double clock_before = cluster.clock().Now();
  Dcv weight;
  TrainReport report;
  {
    PS2_TRACE_SPAN("bench.ml", "train_glm");
    timer->Start();
    report = Must(TrainGlmPs2(ctx.get(), data, options, &weight), "train");
    timer->Stop();
  }
  rec.examples = static_cast<double>(options.iterations) *
                 options.batch_fraction * static_cast<double>(rows);
  for (const TrainPoint& p : report.curve) rec.losses.push_back(p.loss);

  FinishTraining(&cluster, counters_before, clock_before, &rec);
  const ServedModel model{weight.ref().matrix_id, 1, ds.dim};
  ServePhase(ctx->master(), ctx->client(), model, seed, &rec);

  rec.shape = JsonObject()
                  .Num("rows", static_cast<double>(rows))
                  .Num("spec_rows", static_cast<double>(ds.rows))
                  .Num("nnz_per_row", static_cast<double>(nnz) / rows)
                  .Num("spec_nnz_per_row", ds.avg_nnz)
                  .Num("max_index", static_cast<double>(max_index))
                  .Num("dim", static_cast<double>(ds.dim))
                  .Num("iterations", static_cast<double>(report.curve.size()))
                  .Num("spec_iterations", options.iterations)
                  .Num("servers", ctx->master()->num_servers())
                  .Num("workers", cluster.num_workers())
                  .Num("partitions", static_cast<double>(data.num_partitions()));
  return rec;
}

RepeatRecord RunDeepWalk(const WorkloadSpec& w, uint64_t seed) {
  RepeatRecord rec;
  const SteadyClock::time_point start = SteadyClock::now();
  const double cpu_start = CpuSeconds();
  Cluster cluster(MakeClusterSpec(w));
  GraphSpec graph = presets::Graph1Like(kGraphScale);
  graph.seed = seed;
  Dataset<VertexPair> pairs;
  std::vector<double> frequencies;
  size_t num_pairs = 0;
  uint32_t max_vertex = 0;
  {
    PS2_TRACE_SPAN("bench.data", "generate");
    pairs = MakeWalkPairDataset(&cluster, graph).Cache();
    for (const auto& [n, m] :
         pairs.MapPartitionsCollect<std::pair<size_t, uint32_t>>(
             [](TaskContext&, const std::vector<VertexPair>& part) {
               uint32_t m = 0;
               for (const VertexPair& p : part) m = std::max({m, p.u, p.v});
               return std::make_pair(part.size(), m);
             })) {
      num_pairs += n;
      max_vertex = std::max(max_vertex, m);
    }
    frequencies = CorpusVertexFrequencies(graph);
  }
  rec.gen_s = SecondsSince(start);
  const SteadyClock::time_point ps_start = SteadyClock::now();
  std::unique_ptr<DcvContext> ctx;
  {
    PS2_TRACE_SPAN("bench.ps", "setup");
    ctx = std::make_unique<DcvContext>(&cluster);
  }
  rec.ps_setup_s = SecondsSince(ps_start);
  rec.setup_s = SecondsSince(start);
  rec.setup_cpu_s = CpuSeconds() - cpu_start;

  DeepWalkOptions options;
  options.num_vertices = graph.num_vertices;
  options.embedding_dim = 100;
  options.epochs = kDeepWalkEpochs;
  options.seed = seed;

  std::shared_ptr<StepTimer> timer = InstallStepTimer(&cluster, &rec);
  const auto counters_before = cluster.metrics().Snapshot();
  const double clock_before = cluster.clock().Now();
  DeepWalkModel model;
  TrainReport report;
  {
    PS2_TRACE_SPAN("bench.ml", "train_deepwalk");
    timer->Start();
    report = Must(TrainDeepWalkPs2(ctx.get(), pairs, frequencies, options,
                                   &model),
                  "train");
    timer->Stop();
  }
  rec.examples = static_cast<double>(num_pairs) * options.epochs;
  for (const TrainPoint& p : report.curve) rec.losses.push_back(p.loss);
  FinishTraining(&cluster, counters_before, clock_before, &rec);

  // Serve the input embeddings: rows [0, V) of the embedding matrix.
  const ServedModel served{model.rows.at(0).ref().matrix_id,
                           graph.num_vertices, options.embedding_dim};
  ServePhase(ctx->master(), ctx->client(), served, seed, &rec);

  rec.shape = JsonObject()
                  .Num("vertices", graph.num_vertices)
                  .Num("max_vertex", max_vertex)
                  .Num("pairs", static_cast<double>(num_pairs))
                  .Num("embedding_rows", static_cast<double>(model.rows.size()))
                  .Num("spec_embedding_rows", 2.0 * graph.num_vertices)
                  .Num("iterations", static_cast<double>(report.curve.size()))
                  .Num("spec_iterations", options.epochs)
                  .Num("servers", ctx->master()->num_servers())
                  .Num("workers", cluster.num_workers())
                  .Num("partitions", static_cast<double>(pairs.num_partitions()));
  return rec;
}

/// One worker's share of one serve_zipf round: sparse keys of a few rows.
struct ZipfUpdate {
  uint32_t row = 0;
  std::vector<uint64_t> keys;  ///< sorted, unique
};

/// The round-by-task update schedule, drawn from the input seed.
std::vector<std::vector<std::vector<ZipfUpdate>>> MakeZipfSchedule(
    uint64_t seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 17);
  std::vector<std::vector<std::vector<ZipfUpdate>>> schedule(kZipfRounds);
  for (auto& round : schedule) {
    round.resize(kWorkers);
    for (auto& task : round) {
      for (uint32_t r = 0; r < kZipfRowsPerTask; ++r) {
        ZipfUpdate u;
        u.row = static_cast<uint32_t>(
            SamplePowerLaw(&rng, kZipfRows, kServeSkew));
        for (uint32_t k = 0; k < kZipfKeysPerRow; ++k) {
          u.keys.push_back(SamplePowerLaw(&rng, kZipfDim, kServeSkew));
        }
        std::sort(u.keys.begin(), u.keys.end());
        u.keys.erase(std::unique(u.keys.begin(), u.keys.end()), u.keys.end());
        task.push_back(std::move(u));
      }
    }
  }
  return schedule;
}

/// Regression target of one model coordinate, uniform in [-1, 1] and drawn
/// from the input seed. Bounded targets keep the loss from hanging on a few
/// large coordinates.
double ZipfTarget(uint32_t row, uint64_t key, uint64_t seed) {
  Rng rng(seed ^ ((static_cast<uint64_t>(row) * kZipfDim + key) *
                  0x9E3779B97F4A7C15ULL));
  return rng.NextDouble(-1.0, 1.0);
}

bool BitEqual(const std::vector<std::vector<double>>& a,
              const std::vector<std::vector<double>>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size() ||
        std::memcmp(a[i].data(), b[i].data(), a[i].size() * sizeof(double))) {
      return false;
    }
  }
  return true;
}

/// Reads `keys` of every row pinned to `epoch`, for the bit-stability check.
std::vector<std::vector<double>> PinnedImage(PsClient* client, int matrix_id,
                                             uint64_t epoch,
                                             const std::vector<uint64_t>& keys) {
  std::vector<PsClient::ServingRead> reads;
  for (uint32_t r = 0; r < kZipfRows; ++r) {
    reads.push_back({RowRef{matrix_id, r}, keys});
  }
  return Must(client->ServingPullAsync(epoch, reads).Get(), "pinned read");
}

RepeatRecord RunServeZipf(const WorkloadSpec& w, uint64_t seed) {
  RepeatRecord rec;
  const SteadyClock::time_point start = SteadyClock::now();
  const double cpu_start = CpuSeconds();
  Cluster cluster(MakeClusterSpec(w));
  std::vector<std::vector<std::vector<ZipfUpdate>>> schedule;
  Dataset<uint32_t> workers;
  std::vector<uint64_t> pinned_keys;
  {
    PS2_TRACE_SPAN("bench.data", "generate");
    schedule = MakeZipfSchedule(seed);
    std::vector<uint32_t> ids(kWorkers);
    for (uint32_t i = 0; i < kWorkers; ++i) ids[i] = i;
    workers = Dataset<uint32_t>::Parallelize(&cluster, ids, kWorkers).Cache();
    workers.Count();
    for (uint32_t k = 0; k < kPinnedKeys; ++k) pinned_keys.push_back(k);
  }
  rec.gen_s = SecondsSince(start);
  const SteadyClock::time_point ps_start = SteadyClock::now();
  std::unique_ptr<DcvContext> ctx;
  int matrix_id = -1;
  {
    PS2_TRACE_SPAN("bench.ps", "setup");
    ctx = std::make_unique<DcvContext>(&cluster);
    MatrixOptions matrix;
    matrix.name = "served_model";
    matrix.dim = kZipfDim;
    matrix.reserve_rows = kZipfRows;
    matrix_id = Must(ctx->master()->CreateMatrix(matrix), "create matrix");
    Must(ctx->client()->MatrixInit(matrix_id, 0, kZipfRows, 1.0, seed),
         "matrix init");
    Must(ctx->master()->serving_snapshots()->Publish(), "publish");
  }
  rec.ps_setup_s = SecondsSince(ps_start);
  rec.setup_s = SecondsSince(start);
  rec.setup_cpu_s = CpuSeconds() - cpu_start;
  const ServedModel model{matrix_id, kZipfRows, kZipfDim};
  PsMaster* master = ctx->master();
  PsClient* client = ctx->client();

  // Train-while-serve: after each update stage the coordinator checks that
  // the serving epoch stayed bit-stable, publishes the next epoch, and
  // serves a window of traffic against it.
  uint64_t epoch = master->serving_snapshots()->epoch();
  std::vector<std::vector<double>> epoch_image =
      PinnedImage(client, matrix_id, epoch, pinned_keys);
  int round = 0;
  cluster.RegisterPostStageHook([&](Cluster&) {
    if (epoch_image.empty()) return;
    const bool stable = BitEqual(
        PinnedImage(client, matrix_id, epoch, pinned_keys), epoch_image);
    SnapshotPublishStats stats = rec.Publish(master);
    // The previous epoch is still retained: it must not have moved either.
    const bool still_stable = BitEqual(
        PinnedImage(client, matrix_id, epoch, pinned_keys), epoch_image);
    rec.pinned_checks += 2;
    rec.pinned_mismatches += (stable ? 0 : 1) + (still_stable ? 0 : 1);
    epoch = stats.epoch;
    epoch_image = PinnedImage(client, matrix_id, epoch, pinned_keys);
    rec.serve.Run(master, client,
                  ServeOptions(model, kServeQps, kZipfRoundWindowS,
                               seed * 1000 + static_cast<uint64_t>(round)));
  });
  std::shared_ptr<StepTimer> timer = InstallStepTimer(&cluster, &rec);

  const auto counters_before = cluster.metrics().Snapshot();
  const double clock_before = cluster.clock().Now();
  {
    PS2_TRACE_SPAN("bench.ml", "train_zipf");
    timer->Start();
    for (round = 0; round < kZipfRounds; ++round) {
      const auto& updates = schedule[static_cast<size_t>(round)];
      std::vector<std::pair<double, uint64_t>> partials =
          workers.MapPartitionsCollect<std::pair<double, uint64_t>>(
              [&](TaskContext& task, const std::vector<uint32_t>&) {
                const std::vector<ZipfUpdate>& mine = updates[task.task_id];
                std::vector<PsFuture<std::vector<double>>> pulls;
                for (const ZipfUpdate& u : mine) {
                  pulls.push_back(client->PullSparseAsync(
                      RowRef{matrix_id, u.row}, u.keys));
                }
                double loss = 0;
                uint64_t count = 0;
                std::vector<PsFuture<Ack>> pushes;
                for (size_t i = 0; i < mine.size(); ++i) {
                  std::vector<double> values =
                      Must(pulls[i].Get(), "pull sparse");
                  std::vector<double> delta(values.size());
                  for (size_t k = 0; k < values.size(); ++k) {
                    const double residual =
                        values[k] - ZipfTarget(mine[i].row, mine[i].keys[k],
                                               seed);
                    loss += 0.5 * residual * residual;
                    delta[k] = -kZipfStep * residual;
                  }
                  count += values.size();
                  task.AddWorkerOps(4 * values.size());
                  pushes.push_back(client->PushSparseAsync(
                      RowRef{matrix_id, mine[i].row},
                      SparseVector(mine[i].keys, std::move(delta))));
                }
                for (auto& p : pushes) Must(p.Wait(), "push sparse");
                return std::make_pair(loss, count);
              });
      double loss = 0;
      uint64_t count = 0;
      for (const auto& [l, c] : partials) {
        loss += l;
        count += c;
      }
      rec.examples += static_cast<double>(count);
      rec.losses.push_back(loss / static_cast<double>(count));
    }
    timer->Stop();
  }
  epoch_image.clear();  // disarms the round hook
  FinishTraining(&cluster, counters_before, clock_before, &rec);

  ServePhase(master, client, model, seed, &rec);

  rec.shape = JsonObject()
                  .Num("rows", kZipfRows)
                  .Num("dim", static_cast<double>(kZipfDim))
                  .Num("iterations", static_cast<double>(rec.losses.size()))
                  .Num("spec_iterations", kZipfRounds)
                  .Num("servers", master->num_servers())
                  .Num("workers", cluster.num_workers())
                  .Num("partitions", static_cast<double>(workers.num_partitions()));
  return rec;
}

RepeatRecord RunRepeat(const WorkloadSpec& w, uint64_t seed) {
  const Rusage before = ReadRusage();
  const SteadyClock::time_point start = SteadyClock::now();
  RepeatRecord rec;
  switch (w.kind) {
    case WorkloadSpec::kLr:
      rec = RunLr(w, seed);
      break;
    case WorkloadSpec::kDeepWalk:
      rec = RunDeepWalk(w, seed);
      break;
    case WorkloadSpec::kServe:
      rec = RunServeZipf(w, seed);
      break;
  }
  rec.wall_s = SecondsSince(start);
  const Rusage after = ReadRusage();
  rec.usage_delta.cpu_s = after.cpu_s - before.cpu_s;
  rec.usage_delta.voluntary_ctx = after.voluntary_ctx - before.voluntary_ctx;
  return rec;
}

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *value = arg + n + 1;
  return true;
}

int Main(int argc, char** argv) {
  std::string workload, trace_path, value;
  uint64_t seed = 1;
  double seconds = 20;
  for (int i = 1; i < argc; ++i) {
    if (ParseFlag(argv[i], "--workload", &value)) {
      workload = value;
    } else if (ParseFlag(argv[i], "--seed", &value)) {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--seconds", &value)) {
      seconds = std::strtod(value.c_str(), nullptr);
    } else if (ParseFlag(argv[i], "--trace", &value)) {
      trace_path = value;
    } else {
      std::fprintf(stderr, "ps2bench: unknown argument %s\n", argv[i]);
      return 2;
    }
  }
  WorkloadSpec w;
  if (!LookupWorkload(workload, &w)) {
    std::fprintf(stderr,
                 "ps2bench: --workload must be lr_ctr, deepwalk_graph, "
                 "serve_zipf or lr_ctr_wire\n");
    return 2;
  }

  std::vector<JsonObject> repeats;
  const SteadyClock::time_point start = SteadyClock::now();
  while (static_cast<int>(repeats.size()) < w.min_repeats ||
         SecondsSince(start) < seconds) {
    repeats.push_back(RunRepeat(w, seed).ToJson());
  }
  JsonObject out;
  out.Str("workload", w.name)
      .Num("seed", static_cast<double>(seed))
      .Objs("repeats", repeats)
      .Num("peak_rss_mb", ReadRusage().max_rss_mb);
  if (!trace_path.empty()) {
    obs::Tracer::Global().Enable(kTraceRingCapacity);
    JsonObject traced = RunRepeat(w, seed).ToJson();
    obs::Tracer::Global().Disable();
    Must(obs::Tracer::Global().WriteChromeTrace(trace_path), "write trace");
    out.Obj("traced", traced)
        .Num("dropped_spans",
             static_cast<double>(obs::Tracer::Global().dropped()));
  }
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace ps2

int main(int argc, char** argv) { return ps2::bench::Main(argc, argv); }
