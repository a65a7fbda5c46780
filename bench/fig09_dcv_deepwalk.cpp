// Figure 9(c)/(d) (paper §6.2.2): effectiveness of DCV for DeepWalk.
//   Graph1 (small), few servers : PS2 ~5x faster than PS- pull/push
//   Graph2 (large), 30 servers  : the DCV benefit shrinks to ~1.4x because
//                                 every dot must collect partials from all
//                                 30 servers (the paper's crossover story).

#include "baselines/pspp_deepwalk.h"
#include "bench/bench_common.h"
#include "data/graph_gen.h"
#include "data/presets.h"
#include "dcv/dcv_context.h"
#include "ml/deepwalk.h"

namespace {

using namespace ps2;

void RunGraph(const char* name, const GraphSpec& graph, int servers,
              int epochs, bench::JsonReporter* json) {
  std::printf("\n--- %s: %u vertices, %llu walks, %d servers ---\n", name,
              graph.num_vertices,
              static_cast<unsigned long long>(graph.num_walks), servers);
  ClusterSpec spec;
  spec.num_workers = 20;
  spec.num_servers = servers;
  Cluster cluster(spec);
  Dataset<VertexPair> pairs = MakeWalkPairDataset(&cluster, graph).Cache();
  pairs.Count();
  std::vector<double> freq = CorpusVertexFrequencies(graph);

  DeepWalkOptions options;
  options.num_vertices = graph.num_vertices;
  options.embedding_dim = 100;
  options.epochs = epochs;
  options.num_servers = servers;

  // Metrics reset before each system so each JSON record carries only its
  // own run's traffic.
  auto record = [&](const std::string& run, const TrainReport& r) {
    json->AddRun(std::string(name) + "." + run, cluster, r.total_time);
    json->AddField("final_loss", r.final_loss);
    json->AddField("time_per_epoch_s", r.TimePerIteration());
  };
  cluster.metrics().Reset();
  DcvContext ctx_ps2(&cluster);
  TrainReport ps2 = *TrainDeepWalkPs2(&ctx_ps2, pairs, freq, options);
  record("ps2_dcv", ps2);
  cluster.metrics().Reset();
  DcvContext ctx_ps(&cluster);
  TrainReport ps = *TrainDeepWalkPsPullPush(&ctx_ps, pairs, freq, options);
  record("ps_pullpush", ps);

  bench::PrintCurve(ps2, 5);
  bench::PrintCurve(ps, 5);
  std::printf("   per-epoch time: PS2 %.3fs | PS- %.3fs -> PS2 %.2fx faster\n",
              ps2.TimePerIteration(), ps.TimePerIteration(),
              ps.TimePerIteration() / ps2.TimePerIteration());
}

}  // namespace

int main() {
  using namespace ps2;
  bench::Header("Figure 9(c)/(d): DCV effectiveness on DeepWalk",
                "Graph1 (2 servers): PS2 5x; Graph2 (30 servers): 1.4x");
  const double scale = bench::Scale();
  bench::JsonReporter json("fig09_dcv_deepwalk");
  RunGraph("Graph1-like", presets::Graph1Like(scale), /*servers=*/2,
           /*epochs=*/3, &json);
  RunGraph("Graph2-like", presets::Graph2Like(scale * 0.25), /*servers=*/30,
           /*epochs=*/2, &json);
  json.Write();
  return 0;
}
