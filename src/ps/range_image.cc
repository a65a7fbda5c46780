#include "ps/range_image.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"

namespace ps2 {

uint64_t RangeImage::values() const {
  if (dense()) return static_cast<uint64_t>(num_rows) * width();
  uint64_t total = 0;
  for (const auto& row : sparse_rows) total += row.size();
  return total;
}

RangeImage ZeroRangeImage(MatrixStorage storage, uint32_t num_rows,
                          uint64_t begin, uint64_t end) {
  RangeImage image;
  image.begin = begin;
  image.end = end;
  image.num_rows = num_rows;
  image.storage = storage;
  if (image.dense()) {
    image.dense_rows.assign(num_rows, std::vector<double>(end - begin, 0.0));
  } else {
    image.sparse_rows.assign(num_rows, {});
  }
  return image;
}

uint64_t WriteRangeImage(BufferWriter* writer, const RangeImage& rows,
                         uint64_t begin, uint64_t end) {
  writer->WriteVarint(begin);
  writer->WriteVarint(end);
  writer->WriteU8(static_cast<uint8_t>(rows.storage));
  writer->WriteVarint(rows.num_rows);
  uint64_t values = 0;
  if (rows.dense()) {
    for (const std::vector<double>& row : rows.dense_rows) {
      writer->BeginSection(SectionKind::kF64Values);
      writer->WriteF64Span(row.data() + (begin - rows.begin), end - begin);
      writer->EndSection();
      values += end - begin;
    }
  } else {
    for (const auto& row : rows.sparse_rows) {
      values += WriteSparseEntries(writer, row, begin, end);
    }
  }
  return values;
}

Result<RangeImage> ReadRangeImage(BufferReader* in) {
  RangeImage image;
  PS2_ASSIGN_OR_RETURN(image.begin, in->ReadVarint());
  PS2_ASSIGN_OR_RETURN(image.end, in->ReadVarint());
  PS2_ASSIGN_OR_RETURN(uint8_t storage, in->ReadU8());
  if (image.begin > image.end) {
    return Status::InvalidArgument("range image bounds inverted");
  }
  if (storage != static_cast<uint8_t>(MatrixStorage::kDense) &&
      storage != static_cast<uint8_t>(MatrixStorage::kSparse)) {
    return Status::InvalidArgument("range image storage kind unknown");
  }
  image.storage = static_cast<MatrixStorage>(storage);
  // Every row carries at least one byte (a dense value or a sparse nnz) —
  // except in a dense image without columns, whose rows carry nothing and
  // whose row count therefore sizes nothing.
  const bool no_row_bytes = image.dense() && image.width() == 0;
  uint64_t num_rows = 0;
  if (no_row_bytes) {
    PS2_ASSIGN_OR_RETURN(num_rows, in->ReadVarint());
  } else {
    PS2_ASSIGN_OR_RETURN(num_rows, in->ReadCount());
  }
  if (num_rows > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument("range image row count exceeds a matrix");
  }
  image.num_rows = static_cast<uint32_t>(num_rows);
  if (no_row_bytes) return image;
  for (uint64_t r = 0; r < num_rows; ++r) {
    if (image.dense()) {
      PS2_ASSIGN_OR_RETURN(std::vector<double> row,
                           in->ReadF64Span(image.width()));
      image.dense_rows.push_back(std::move(row));
    } else {
      PS2_ASSIGN_OR_RETURN(auto row,
                           ReadSparseEntries(in, image.begin, image.end));
      image.sparse_rows.push_back(std::move(row));
    }
  }
  return image;
}

void ApplyRangeImage(const RangeImage& src, RangeImage* dst) {
  PS2_CHECK(src.storage == dst->storage && src.num_rows == dst->num_rows)
      << "range image shape differs from its destination";
  const uint64_t lo = std::max(src.begin, dst->begin);
  const uint64_t hi = std::min(src.end, dst->end);
  if (lo >= hi) return;
  for (uint32_t r = 0; r < dst->num_rows; ++r) {
    if (dst->dense()) {
      const double* from = src.dense_rows[r].data() + (lo - src.begin);
      std::copy(from, from + (hi - lo),
                dst->dense_rows[r].data() + (lo - dst->begin));
    } else {
      std::map<uint64_t, double>& row = dst->sparse_rows[r];
      row.erase(row.lower_bound(lo), row.lower_bound(hi));
      const std::map<uint64_t, double>& from = src.sparse_rows[r];
      row.insert(from.lower_bound(lo), from.lower_bound(hi));
    }
  }
}

uint64_t WriteSparseEntries(BufferWriter* writer,
                            const std::map<uint64_t, double>& entries,
                            uint64_t lo, uint64_t hi) {
  const auto first = entries.lower_bound(lo);
  const auto last = entries.lower_bound(hi);
  const uint64_t nnz = static_cast<uint64_t>(std::distance(first, last));
  writer->WriteVarint(nnz);
  uint64_t prev = 0;
  for (auto it = first; it != last; ++it) {
    writer->WriteVarint(it->first - prev);
    prev = it->first;
  }
  for (auto it = first; it != last; ++it) writer->WriteF64(it->second);
  return nnz;
}

Result<std::map<uint64_t, double>> ReadSparseEntries(BufferReader* in,
                                                     uint64_t lo,
                                                     uint64_t hi) {
  // Each entry carries at least a one-byte delta and an 8-byte value.
  PS2_ASSIGN_OR_RETURN(uint64_t nnz, in->ReadCount(1 + sizeof(double)));
  std::map<uint64_t, double> entries;
  uint64_t col = 0;
  for (uint64_t i = 0; i < nnz; ++i) {
    PS2_ASSIGN_OR_RETURN(uint64_t delta, in->ReadVarint());
    if (i > 0 && delta == 0) {
      return Status::InvalidArgument("sparse columns not strictly increasing");
    }
    // col < hi holds after every accepted entry, so hi - col cannot wrap.
    if (delta >= hi - col || col + delta < lo) {
      return Status::OutOfRange("sparse column outside range");
    }
    col += delta;
    entries.emplace_hint(entries.end(), col, 0.0);
  }
  for (auto& [c, v] : entries) {
    PS2_ASSIGN_OR_RETURN(v, in->ReadF64());
  }
  return entries;
}

}  // namespace ps2
