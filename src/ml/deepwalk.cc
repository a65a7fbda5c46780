#include "ml/deepwalk.h"

#include <algorithm>
#include <memory>

#include "common/logging.h"
#include "consistency/consistency.h"
#include "data/graph_gen.h"
#include "dataflow/broadcast.h"
#include "dcv/dcv_batch.h"
#include "ml/metrics.h"

namespace ps2 {

namespace {

/// One batch worth of skip-gram tasks: (input row, output row) embedding
/// indices (positives followed by their negatives) plus labels.
struct SkipGramBatch {
  std::vector<std::pair<uint32_t, uint32_t>> pair_rows;
  std::vector<double> labels;
};

}  // namespace

Result<TrainReport> TrainDeepWalkPs2(
    DcvContext* ctx, const Dataset<VertexPair>& pairs,
    const std::vector<double>& vertex_frequencies,
    const DeepWalkOptions& options, DeepWalkModel* model_out) {
  PS2_RETURN_NOT_OK(options.Validate());
  if (vertex_frequencies.size() < options.num_vertices) {
    return Status::InvalidArgument(
        "vertex_frequencies must cover every vertex");
  }
  Cluster* cluster = ctx->cluster();
  const uint32_t v_count = options.num_vertices;
  const uint32_t k_dim = options.embedding_dim;

  // Paper Fig. 6 line 2: DCV.dense(K, V*2) — one matrix, 2V co-located rows,
  // initialized server-side. `num_servers` caps the spread (Fig. 9(d) uses
  // 30 servers to show the DCV benefit shrinking).
  PS2_ASSIGN_OR_RETURN(
      std::vector<Dcv> rows,
      ctx->DenseMatrix(k_dim, 2 * v_count, 0.5 / k_dim, options.seed,
                       "deepwalk.embeddings", options.num_servers));
  DeepWalkModel model;
  model.num_vertices = v_count;
  model.rows = std::move(rows);

  // Negative sampling table, broadcast to workers once (8 bytes/vertex).
  auto neg_table = std::make_shared<const AliasTable>(std::vector<double>(
      vertex_frequencies.begin(),
      vertex_frequencies.begin() + options.num_vertices));
  Broadcast<std::shared_ptr<const AliasTable>> bcast =
      BroadcastValue(cluster, neg_table,
                     static_cast<uint64_t>(v_count) * sizeof(double));

  TrainReport report;
  report.system = "PS2-DeepWalk";
  if (options.hotspot.enabled) {
    PS2_RETURN_NOT_OK(ctx->master()->hotspot()->Enable(options.hotspot));
  }
  const SimTime t0 = cluster->clock().Now();
  const int negatives = options.negative_samples;
  const double lr = options.learning_rate;
  const uint32_t batch_size = options.batch_size;

  // One epoch of a partition's skip-gram pairs. `clock` (when non-null) is
  // the consistency controller of an SSP/ASP run: the epoch's first dot
  // batch passes the staleness gate and the epoch-end clock advance rides
  // the final axpy round.
  auto run_epoch = [&](TaskContext& task, const std::vector<VertexPair>& rows,
                       int epoch, ConsistencyController* clock)
      -> std::pair<double, uint64_t> {
    const AliasTable& table = *bcast.value();
    double loss_sum = 0;
    uint64_t trained = 0;
    Rng rng = task.rng.Split(0xD33F + epoch);

    // Double-buffered prefetch pipeline (paper §5.1): batch i's axpys
    // and batch i+1's dots travel in one DcvBatch — one request per server
    // per batch. Each server applies the axpys, then evaluates the dots on
    // the updated rows, so batch i+1 reads batch i's updates; only the
    // first batch of an epoch sends its dots alone. At most one fused
    // round is in flight: it is harvested before the next is issued.
    SkipGramBatch bufs[2];
    auto build = [&](size_t begin, size_t end, SkipGramBatch& b) {
      b.pair_rows.clear();
      b.labels.clear();
      for (size_t i = begin; i < end; ++i) {
        const VertexPair& p = rows[i];
        b.pair_rows.push_back({p.u, v_count + p.v});
        b.labels.push_back(1.0);
        for (int nk = 0; nk < negatives; ++nk) {
          uint32_t n = table.Sample(&rng);
          if (n == p.v) n = (n + 1) % v_count;
          b.pair_rows.push_back({p.u, v_count + n});
          b.labels.push_back(0.0);
        }
      }
    };
    auto stage_dots = [&](const SkipGramBatch& b, DcvBatch* batch) {
      for (const auto& [a, c] : b.pair_rows) {
        batch->Dot(model.rows[a], model.rows[c]);
      }
    };

    size_t cur = 0;
    // In flight: the current batch's dots (riding the previous batch's
    // axpys), or after the last batch its axpys alone.
    DcvBatch::Future pending;
    if (!rows.empty()) {
      if (clock != nullptr) clock->GatePull(task.task_id);
      build(0, std::min(rows.size(), size_t{batch_size}), bufs[0]);
      DcvBatch first = ctx->Batch();
      stage_dots(bufs[0], &first);
      pending = first.Submit();
    }
    for (size_t start = 0; start < rows.size(); start += batch_size) {
      size_t end = std::min(rows.size(), start + batch_size);
      SkipGramBatch& batch = bufs[cur];
      if (end < rows.size()) {
        build(end, std::min(rows.size(), end + batch_size), bufs[1 - cur]);
      }
      Result<DcvBatchResults> dots = pending.Get();
      PS2_CHECK(dots.ok()) << dots.status();
      // Server-side symmetric axpy updates for this batch.
      DcvBatch updates = ctx->Batch();
      for (size_t i = 0; i < batch.pair_rows.size(); ++i) {
        double sig = Sigmoid(dots->dots[i]);
        double label = batch.labels[i];
        loss_sum += LogisticLoss(dots->dots[i], label);
        double alpha = -lr * (sig - label);
        const auto& [a, c] = batch.pair_rows[i];
        updates.Axpy(model.rows[a], model.rows[c], alpha);
        updates.Axpy(model.rows[c], model.rows[a], alpha);
      }
      if (end < rows.size()) {
        stage_dots(bufs[1 - cur], &updates);  // rides the axpys
        cur = 1 - cur;
      }
      pending = updates.Submit();
      task.AddWorkerOps(8 * batch.pair_rows.size());
      trained += end - start;
    }
    PsFuture<Ack> clock_future;
    if (clock != nullptr) {
      // The advance rides the final axpy round. An empty
      // partition still ticks its clock, or it would hold every
      // other worker's staleness gate back forever.
      clock_future = clock->AdvanceClockAsync(task.task_id);
    }
    PS2_CHECK_OK(pending.Wait());
    if (clock_future.valid()) PS2_CHECK_OK(clock_future.Wait());
    // Normalize per dot (positives + negatives).
    return {loss_sum, trained * (1 + negatives)};
  };

  // Closes one stage: aggregate partials, refresh hot rows, record a point.
  auto finish_stage = [&](const std::vector<std::pair<double, uint64_t>>&
                              partials,
                          int point_iteration) -> Status {
    double loss_sum = 0;
    uint64_t count = 0;
    for (const auto& [l, c] : partials) {
      loss_sum += l;
      count += c;
    }
    // Coordinator-side, between epochs: hot embeddings (high-degree
    // vertices) refresh against the post-epoch state.
    if (options.hotspot.enabled) {
      PS2_RETURN_NOT_OK(ctx->master()->hotspot()->Tick());
    }
    if (count == 0) return Status::OK();
    TrainPoint point;
    point.iteration = point_iteration;
    point.time = cluster->clock().Now() - t0;
    point.loss = loss_sum / static_cast<double>(count);
    report.curve.push_back(point);
    report.final_loss = point.loss;
    return Status::OK();
  };

  if (options.consistency.bsp()) {
    // The paper's flow: one barrier per epoch (bit-identical to the
    // pre-controller trainer).
    for (int epoch = 0; epoch < options.epochs; ++epoch) {
      std::vector<std::pair<double, uint64_t>> partials =
          pairs.MapPartitionsCollect<std::pair<double, uint64_t>>(
              [&](TaskContext& task, const std::vector<VertexPair>& rows)
                  -> std::pair<double, uint64_t> {
                return run_epoch(task, rows, epoch, nullptr);
              });
      PS2_RETURN_NOT_OK(finish_stage(partials, epoch));
    }
  } else {
    // SSP/ASP (consistency/, DESIGN.md §11): a window of min(slack + 1,
    // remaining) epochs per stage; a worker's dots read embeddings at most
    // `slack` epochs stale, and the window bound keeps the gate from
    // tripping mid-stage so the trace stays deterministic.
    const ConsistencyPolicy& policy = options.consistency;
    ConsistencyController controller(
        ctx->client(), static_cast<int>(pairs.num_partitions()), policy);
    PS2_RETURN_NOT_OK(controller.Register());
    int done = 0;
    for (int round = 0; done < options.epochs; ++round) {
      const int window = policy.StepsPerStage(options.epochs - done);
      const int stage_base = done;
      std::vector<std::pair<double, uint64_t>> partials =
          pairs.MapPartitionsCollect<std::pair<double, uint64_t>>(
              [&](TaskContext& task, const std::vector<VertexPair>& rows)
                  -> std::pair<double, uint64_t> {
                double loss_sum = 0;
                uint64_t count = 0;
                for (int step = 0; step < window; ++step) {
                  auto [l, c] =
                      run_epoch(task, rows, stage_base + step, &controller);
                  loss_sum += l;
                  count += c;
                }
                return {loss_sum, count};
              });
      done += window;
      PS2_RETURN_NOT_OK(finish_stage(partials, round));
    }
  }
  report.total_time = cluster->clock().Now() - t0;
  if (model_out != nullptr) *model_out = std::move(model);
  return report;
}

}  // namespace ps2
