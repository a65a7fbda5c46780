// Ablation (extension): bounded-staleness asynchrony.
//
// Sweeps steps_per_stage for the async GLM trainer: each extra local step
// removes one stage barrier (latency + dispatch floor) at the cost of
// staler gradients. The interesting output is time-to-loss, which typically
// improves and then flattens/regresses — the classic SSP trade-off.

#include "bench/bench_common.h"
#include "data/classification_gen.h"
#include "data/presets.h"
#include "dcv/dcv_context.h"
#include "ml/async_glm.h"
#include "ml/logreg.h"

int main() {
  using namespace ps2;
  bench::Header("Ablation: bounded-staleness async SGD",
                "extension — barrier elimination vs gradient freshness");
  const double scale = bench::Scale();

  ClusterSpec spec;
  spec.num_workers = 20;
  spec.num_servers = 20;
  Cluster cluster(spec);
  ClassificationSpec ds = presets::KddbLike(scale);
  Dataset<Example> data = MakeClassificationDataset(&cluster, ds).Cache();
  data.Count();

  GlmOptions options;
  options.dim = ds.dim;
  options.optimizer.kind = OptimizerKind::kSgd;
  options.optimizer.learning_rate = 30.0;
  options.batch_fraction = 0.01;
  options.iterations = 120;
  const double target = 0.60;

  std::printf("%-18s %-14s %-12s %-16s\n", "steps per stage",
              "total time(s)", "final loss", "time to loss 0.60");
  for (int steps : {1, 2, 4, 8, 16}) {
    DcvContext ctx(&cluster);
    // `steps` local steps between barriers is SSP with slack steps - 1.
    options.consistency =
        *ConsistencyPolicy::Parse("ssp:" + std::to_string(steps - 1));
    Result<TrainReport> result = TrainGlmPs2Relaxed(&ctx, data, options);
    if (!result.ok()) {
      std::printf("%-18d FAILED: %s\n", steps,
                  result.status().ToString().c_str());
      continue;
    }
    SimTime ttl = result->TimeToLoss(target);
    std::string ttl_text =
        std::isinf(ttl) ? "never" : std::to_string(ttl).substr(0, 6) + "s";
    std::printf("%-18d %-14.3f %-12.4f %-16s\n", steps, result->total_time,
                result->final_loss, ttl_text.c_str());
  }
  std::printf("\n(steps=1 is the paper's synchronous Fig. 3 flow)\n");
  return 0;
}
