#pragma once

// Range image: a matrix shard's values over one column range, and the one
// byte format in which server state moves — checkpoint images, migration
// extract/install payloads and replica-sync pendings (DESIGN.md §6, §12,
// §5d). One encoder, one validating decoder and one apply routine, so every
// state mover accepts exactly the same inputs.
//
// Wire format of an image over [begin, end):
//   begin, end (varints), storage (u8), num_rows (varint), then per row
//   dense:  (end - begin) raw f64 values
//   sparse: sparse entries (below) with columns inside [begin, end)
// Sparse entries: nnz (varint), nnz column deltas (varints, from 0), then nnz
// raw f64 values.

#include <cstdint>
#include <map>
#include <vector>

#include "common/result.h"
#include "common/serde.h"
#include "ps/ps_types.h"

namespace ps2 {

/// \brief Every row of one matrix over the columns [begin, end).
struct RangeImage {
  uint64_t begin = 0;
  uint64_t end = 0;
  uint32_t num_rows = 0;
  MatrixStorage storage = MatrixStorage::kDense;
  // Dense: num_rows x (end - begin), with no rows at all when the range is
  // empty. Sparse: per-row column -> value, columns within [begin, end).
  std::vector<std::vector<double>> dense_rows;
  std::vector<std::map<uint64_t, double>> sparse_rows;

  uint64_t width() const { return end - begin; }
  bool dense() const { return storage == MatrixStorage::kDense; }
  /// Values held: every dense cell, or every sparse entry.
  uint64_t values() const;
};

/// An all-zero image of `num_rows` rows over [begin, end).
RangeImage ZeroRangeImage(MatrixStorage storage, uint32_t num_rows,
                          uint64_t begin, uint64_t end);

/// Encodes the columns [begin, end) of `rows` (a sub-range of
/// [rows.begin, rows.end)) straight from its rows. Returns the values
/// written.
uint64_t WriteRangeImage(BufferWriter* writer, const RangeImage& rows,
                         uint64_t begin, uint64_t end);

/// Decodes one image. Rejects an unknown storage byte, a count the buffer
/// cannot hold, a dense row of the wrong width and sparse columns that are
/// not strictly increasing inside [begin, end).
Result<RangeImage> ReadRangeImage(BufferReader* in);

/// Copies the columns `src` holds into `dst` over the overlap of their
/// ranges, replacing what `dst` held there. Both must have the same storage
/// and row count (callers check the shape before applying).
void ApplyRangeImage(const RangeImage& src, RangeImage* dst);

/// Encodes the entries of `entries` with columns in [lo, hi). Returns nnz.
uint64_t WriteSparseEntries(BufferWriter* writer,
                            const std::map<uint64_t, double>& entries,
                            uint64_t lo, uint64_t hi);

/// Decodes sparse entries whose columns must be strictly increasing inside
/// [lo, hi).
Result<std::map<uint64_t, double>> ReadSparseEntries(BufferReader* in,
                                                     uint64_t lo, uint64_t hi);

}  // namespace ps2
