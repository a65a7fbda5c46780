// Ablation (paper §4.3, Fig. 4): the cost of ignoring dimension
// co-location. The same `dot` and element-wise ops run on (a) derived
// (co-located) DCVs and (b) independently created DCVs, across model sizes.

#include "bench/bench_common.h"
#include "dcv/dcv_context.h"

int main() {
  using namespace ps2;
  bench::Header("Ablation: co-located vs non-co-located DCV ops (Fig. 4)",
                "derive keeps element-wise ops server-local; independent "
                "creation pays the pull-compute-push path");

  std::printf("%-12s %-16s %-16s %-10s %-16s %-16s\n", "dim",
              "dot co-loc (s)", "dot naive (s)", "speedup", "bytes co-loc",
              "bytes naive");
  for (uint64_t dim : {100000ULL, 1000000ULL, 10000000ULL}) {
    ClusterSpec spec;
    spec.num_workers = 20;
    spec.num_servers = 20;
    Cluster cluster(spec);
    DcvContext ctx(&cluster);
    Dcv a = *ctx.Dense(dim, 2);
    Dcv b = *ctx.Derive(a);
    Dcv c = *ctx.Dense(dim, 2);  // same shape, different rotation

    cluster.metrics().Reset();
    SimTime t0 = cluster.clock().Now();
    (void)*a.Dot(b);
    SimTime colocated = cluster.clock().Now() - t0;
    uint64_t colocated_bytes =
        cluster.metrics().Get("net.bytes_worker_to_server") +
        cluster.metrics().Get("net.bytes_server_to_worker");

    cluster.metrics().Reset();
    t0 = cluster.clock().Now();
    (void)*a.Dot(c);
    SimTime naive = cluster.clock().Now() - t0;
    uint64_t naive_bytes =
        cluster.metrics().Get("net.bytes_worker_to_server") +
        cluster.metrics().Get("net.bytes_server_to_worker");

    std::printf("%-12llu %-16.6f %-16.6f %-10.1f %-16llu %-16llu\n",
                static_cast<unsigned long long>(dim), colocated, naive,
                naive / colocated,
                static_cast<unsigned long long>(colocated_bytes),
                static_cast<unsigned long long>(naive_bytes));
  }

  std::printf("\nelement-wise Adam-style zip over 4 vectors, dim=1M:\n");
  {
    ClusterSpec spec;
    spec.num_workers = 20;
    spec.num_servers = 20;
    Cluster cluster(spec);
    DcvContext ctx(&cluster);
    const uint64_t dim = 1000000;
    Dcv w = *ctx.Dense(dim, 4);
    Dcv s = *ctx.Derive(w);
    Dcv v = *ctx.Derive(w);
    Dcv g = *ctx.Derive(w);
    Dcv w2 = *ctx.Dense(dim, 2);
    Dcv g2 = *ctx.Dense(dim, 2);  // non-co-located pair

    SimTime t0 = cluster.clock().Now();
    int udf = ctx.RegisterZip(
        [](const std::vector<double*>& rows, size_t n, uint64_t,
           const std::vector<double>&) -> uint64_t {
          for (size_t i = 0; i < n; ++i) rows[0][i] -= 0.1 * rows[3][i];
          return 2 * n;
        });
    (void)w.Zip({s, v, g}, udf);
    SimTime zip_time = cluster.clock().Now() - t0;

    t0 = cluster.clock().Now();
    (void)w2.Axpy(g2, -0.1);  // slow path: pull + push
    SimTime naive_time = cluster.clock().Now() - t0;
    std::printf("  zip (server-side): %.6fs | naive axpy across rotations: "
                "%.6fs -> %.1fx\n",
                zip_time, naive_time, naive_time / zip_time);
  }
  return 0;
}
