#pragma once

// Shared types of the parameter-server module.

#include <cstdint>
#include <string>

#include "ps/partitioner.h"

namespace ps2 {

/// \brief Storage layout of a matrix on the servers.
enum class MatrixStorage : uint8_t {
  kDense = 0,   ///< contiguous doubles per (row, range)
  kSparse = 1,  ///< hash map per row; for very high-dim rarely-touched rows
};

/// \brief Metadata of a distributed matrix (a group of co-located DCVs).
struct MatrixMeta {
  int id = -1;
  std::string name;
  uint64_t dim = 0;        ///< columns (feature dimension)
  uint32_t num_rows = 0;   ///< reserved rows; `derive` hands these out
  MatrixStorage storage = MatrixStorage::kDense;
  ColumnPartitioner partitioner;
  /// Routing-table version this partitioner snapshot belongs to. Clients
  /// stamp it into RpcHeader::routing_epoch so a meta fetched before a
  /// migration commit is rejected (and refetched) instead of silently
  /// routing to the old owner. 0 until the first membership change.
  uint64_t routing_epoch = 0;
};

/// \brief Identifies one row (one DCV) of a distributed matrix.
struct RowRef {
  int matrix_id = -1;
  uint32_t row = 0;

  bool operator==(const RowRef& other) const {
    return matrix_id == other.matrix_id && row == other.row;
  }
};

/// \brief Row-aggregation kinds (paper's sum / nnz / norm2 row-access ops).
enum class RowAggKind : uint8_t { kSum = 0, kNnz = 1, kNorm2Squared = 2, kMax = 3 };

/// \brief Built-in element-wise column-op kinds (paper Table 1).
enum class ColOpKind : uint8_t {
  kAdd = 0,   ///< dst = a + b
  kSub = 1,   ///< dst = a - b
  kMul = 2,   ///< dst = a * b
  kDiv = 3,   ///< dst = a / b   (b==0 -> 0)
  kCopy = 4,  ///< dst = a
  kAxpy = 5,  ///< dst += scalar * a
  kFill = 6,  ///< dst = scalar
  kScale = 7  ///< dst *= scalar
};

/// \brief Wire opcodes understood by PsServer::Handle (DESIGN.md §5b).
///
/// The row-op families (pull, sparse pull, push, sparse push, dot) each have
/// ONE wire format, and it is a batch: a single-row client op travels as a
/// batch of one row.
enum class PsOpCode : uint8_t {
  kPullDense = 0,    ///< column window of many rows
  kPullSparse = 1,   ///< many rows at shared indices
  kPushDense = 2,    ///< many dense row deltas, each the server's whole slice
  kPushSparse = 3,   ///< many per-row sparse deltas
  kRowAgg = 4,
  kColumnOp = 5,
  kZip = 6,
  kZipAggregate = 7,
  kDotBatch = 8,     ///< many row-pair partial dots (Dcv::Dot is one pair)
  kAxpyBatch = 9,    ///< many dst += alpha*src updates, then dots (DeepWalk)
  kMatrixInit = 10,  ///< hash-random init of whole-matrix row ranges
  // Hot-parameter management (DESIGN.md §5d).
  kHotSetUpdate = 11,  ///< master installs the replicated hot-row set
  kReplicaSync = 12,   ///< collect pending deltas / install fresh values
  kHotPush = 13,       ///< sparse delta accumulated into a local replica
  // Online serving tier (DESIGN.md §10).
  kServingPull = 14,  ///< batched read from a published snapshot epoch
  // Consistency controller (DESIGN.md §11).
  kClockAdvance = 15,  ///< worker advances its clock in the server's vector
  // Elastic membership / online resharding (DESIGN.md §12).
  kRangeExtract = 16,   ///< read one matrix's column range off the old owner
  kRangeMigrate = 17,   ///< stage an extracted range on the new owner
  kRoutingUpdate = 18,  ///< fence / commit staged ranges / bump routing epoch
};

/// Stable short name of an opcode for metric tags and trace spans
/// (`ps.server.handle_us{op=pull_dense}`). Returns "unknown" for values
/// outside the enum rather than crashing on a corrupted wire byte.
constexpr const char* PsOpCodeName(PsOpCode op) {
  switch (op) {
    case PsOpCode::kPullDense: return "pull_dense";
    case PsOpCode::kPullSparse: return "pull_sparse";
    case PsOpCode::kPushDense: return "push_dense";
    case PsOpCode::kPushSparse: return "push_sparse";
    case PsOpCode::kRowAgg: return "row_agg";
    case PsOpCode::kColumnOp: return "column_op";
    case PsOpCode::kZip: return "zip";
    case PsOpCode::kZipAggregate: return "zip_aggregate";
    case PsOpCode::kDotBatch: return "dot_batch";
    case PsOpCode::kAxpyBatch: return "axpy_batch";
    case PsOpCode::kMatrixInit: return "matrix_init";
    case PsOpCode::kHotSetUpdate: return "hot_set_update";
    case PsOpCode::kReplicaSync: return "replica_sync";
    case PsOpCode::kHotPush: return "hot_push";
    case PsOpCode::kServingPull: return "serving_pull";
    case PsOpCode::kClockAdvance: return "clock_advance";
    case PsOpCode::kRangeExtract: return "range_extract";
    case PsOpCode::kRangeMigrate: return "range_migrate";
    case PsOpCode::kRoutingUpdate: return "routing_update";
  }
  return "unknown";
}

/// Number of distinct PsOpCode values (for per-opcode metric tables).
constexpr int kNumPsOpCodes = 19;
static_assert(kNumPsOpCodes ==
                  static_cast<int>(PsOpCode::kRoutingUpdate) + 1,
              "kNumPsOpCodes must track the last PsOpCode enumerator");

/// True for opcodes whose handlers mutate server state. Retrying one of
/// these after an ambiguous failure (a lost *response*) would double-apply
/// without the per-client sequence-number dedup in PsServer — read-only
/// opcodes are trivially idempotent and skip the dedup table.
constexpr bool IsMutatingOpcode(PsOpCode op) {
  switch (op) {
    case PsOpCode::kPushDense:
    case PsOpCode::kPushSparse:
    case PsOpCode::kColumnOp:
    case PsOpCode::kZip:
    case PsOpCode::kAxpyBatch:
    case PsOpCode::kMatrixInit:
    case PsOpCode::kHotSetUpdate:
    case PsOpCode::kReplicaSync:
    case PsOpCode::kHotPush:
    // Clock advances mutate the server's worker-clock vector. The handler is
    // a max-merge (idempotent), but routing them through the dedup table
    // keeps the retry accounting uniform with the other mutations.
    case PsOpCode::kClockAdvance:
    // Staging a migrated range overwrites the staging slot (idempotent), and
    // routing updates are epoch-guarded, but both ride the dedup table so a
    // replayed commit after a lost response acks instead of re-running.
    case PsOpCode::kRangeMigrate:
    case PsOpCode::kRoutingUpdate:
      return true;
    case PsOpCode::kPullDense:
    case PsOpCode::kPullSparse:
    case PsOpCode::kRowAgg:
    case PsOpCode::kZipAggregate:
    case PsOpCode::kDotBatch:
    case PsOpCode::kServingPull:
    case PsOpCode::kRangeExtract:
      return false;
  }
  return false;
}

/// True for the membership/resharding control plane (DESIGN.md §12). These
/// opcodes must keep flowing while a server is fenced or decommissioned —
/// they are exactly what un-fences it — so PsServer's routing-staleness
/// check exempts them, and PsClient never re-routes them.
constexpr bool IsMigrationControlOpcode(PsOpCode op) {
  return op == PsOpCode::kRangeExtract || op == PsOpCode::kRangeMigrate ||
         op == PsOpCode::kRoutingUpdate;
}

/// Matches PsServer's routing-staleness rejection ("routing stale (fenced)",
/// "... (decommissioned)", "... (epoch)", optionally suffixed " (applied)"
/// when the mutation in question already executed on the rejecting server).
/// Same FailedPrecondition refetch idiom as IsKeyCacheMiss (net/filters.h).
inline bool IsRoutingStale(const Status& status) {
  return status.IsFailedPrecondition() &&
         status.message().rfind("routing stale", 0) == 0;
}

/// \brief Per-message identity riding the RPC framing (DESIGN.md §6).
///
/// Every data-plane request carries (client id, per-client sequence number,
/// attempt). The pair (client_id, seq) names one *logical* operation: a
/// retried message reuses the seq of the original so the server's dedup
/// table can recognize (and ack without re-applying) a mutation whose first
/// response was lost. The fields travel in the fixed Message::kHeaderBytes
/// framing (the correlation-id slot), not in the payload, so byte accounting
/// is unchanged. client_id < 0 marks untracked control-plane traffic
/// (master/hotspot exchanges): no fault injection, no dedup.
struct RpcHeader {
  int client_id = -1;   ///< PsMaster::AllocateClientId(); -1 = untracked
  uint64_t seq = 0;     ///< per-(client, server) monotonic, starting at 1
  uint32_t attempt = 1; ///< 1 = first try; >1 = retry of the same seq
  /// 1 + the routing-table version the sender planned this request against
  /// (DESIGN.md §12). 0 = unstamped (clock broadcasts, control legs); the
  /// +1 keeps "planned against the initial version-0 table" distinguishable
  /// from "unstamped", so the FIRST migration can bounce in-flight requests
  /// too. A server rejects a stamp at or below its own version with the
  /// `routing stale` FailedPrecondition refetch protocol. Rides the fixed
  /// Message::kHeaderBytes framing, so wire byte accounting is unchanged.
  uint64_t routing_epoch = 0;

  bool tracked() const { return client_id >= 0; }
};

}  // namespace ps2
