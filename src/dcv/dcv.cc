#include "dcv/dcv.h"

#include <cmath>

#include "common/logging.h"
#include "dcv/dcv_batch.h"
#include "obs/trace.h"
#include "dcv/dcv_context.h"

namespace ps2 {

namespace {
Status CheckValid(const Dcv& dcv) {
  if (!dcv.valid()) return Status::FailedPrecondition("invalid DCV handle");
  return Status::OK();
}
}  // namespace

bool Dcv::CoLocatedWith(const Dcv& other) const {
  if (!valid() || !other.valid() || context_ != other.context_) return false;
  if (ref_.matrix_id == other.ref_.matrix_id) return true;
  // A replicated hot row (DESIGN.md §5d) lives in full on every server, so
  // it reads as co-located with everything in the same context.
  HotspotManager* hotspot = context_->master()->hotspot();
  if (hotspot->IsReplicated(ref_) || hotspot->IsReplicated(other.ref_)) {
    return true;
  }
  Result<MatrixMeta> a = context_->master()->GetMeta(ref_.matrix_id);
  Result<MatrixMeta> b = context_->master()->GetMeta(other.ref_.matrix_id);
  if (!a.ok() || !b.ok()) return false;
  return a->partitioner.CoLocatedWith(b->partitioner);
}

Result<std::vector<double>> Dcv::Pull() const {
  PS2_TRACE_SPAN("dcv", "pull");
  PS2_RETURN_NOT_OK(CheckValid(*this));
  return context_->client()->PullDense(ref_);
}

Result<std::vector<double>> Dcv::PullSparse(
    const std::vector<uint64_t>& indices) const {
  PS2_TRACE_SPAN("dcv", "pull_sparse");
  PS2_RETURN_NOT_OK(CheckValid(*this));
  return context_->client()->PullSparse(ref_, indices);
}

Status Dcv::Push(const std::vector<double>& delta) {
  PS2_TRACE_SPAN("dcv", "push");
  PS2_RETURN_NOT_OK(CheckValid(*this));
  return context_->client()->PushDense(ref_, delta);
}

Status Dcv::Add(const SparseVector& delta) {
  PS2_TRACE_SPAN("dcv", "add");
  PS2_RETURN_NOT_OK(CheckValid(*this));
  return context_->client()->PushSparse(ref_, delta);
}

Status Dcv::Set(const std::vector<double>& values) {
  PS2_RETURN_NOT_OK(CheckValid(*this));
  PS2_RETURN_NOT_OK(Fill(0.0));
  return Push(values);
}

PsFuture<std::vector<double>> Dcv::PullAsync() const {
  if (Status s = CheckValid(*this); !s.ok()) {
    return MakeReadyFuture<std::vector<double>>(std::move(s));
  }
  return context_->client()->PullDenseAsync(ref_);
}

PsFuture<std::vector<double>> Dcv::PullSparseAsync(
    const std::vector<uint64_t>& indices) const {
  if (Status s = CheckValid(*this); !s.ok()) {
    return MakeReadyFuture<std::vector<double>>(std::move(s));
  }
  return context_->client()->PullSparseAsync(ref_, indices);
}

PsFuture<Ack> Dcv::PushAsync(const std::vector<double>& delta) {
  if (Status s = CheckValid(*this); !s.ok()) {
    return MakeReadyFuture<Ack>(std::move(s));
  }
  return context_->client()->PushDenseAsync(ref_, delta);
}

PsFuture<Ack> Dcv::AddAsync(const SparseVector& delta) {
  if (Status s = CheckValid(*this); !s.ok()) {
    return MakeReadyFuture<Ack>(std::move(s));
  }
  return context_->client()->PushSparseAsync(ref_, delta);
}

DcvBatch Dcv::Batch() const {
  PS2_CHECK(valid()) << "Batch() on an invalid DCV handle";
  return DcvBatch(context_);
}

Result<double> Dcv::Sum() const {
  PS2_RETURN_NOT_OK(CheckValid(*this));
  return context_->client()->RowAggregate(ref_, RowAggKind::kSum);
}

Result<double> Dcv::Nnz() const {
  PS2_RETURN_NOT_OK(CheckValid(*this));
  return context_->client()->RowAggregate(ref_, RowAggKind::kNnz);
}

Result<double> Dcv::Norm2() const {
  PS2_RETURN_NOT_OK(CheckValid(*this));
  PS2_ASSIGN_OR_RETURN(
      double sq,
      context_->client()->RowAggregate(ref_, RowAggKind::kNorm2Squared));
  return std::sqrt(sq);
}

Result<double> Dcv::Max() const {
  PS2_RETURN_NOT_OK(CheckValid(*this));
  return context_->client()->RowAggregate(ref_, RowAggKind::kMax);
}

Result<double> Dcv::Dot(const Dcv& other) const {
  PS2_TRACE_SPAN("dcv", "dot");
  PS2_RETURN_NOT_OK(CheckValid(*this));
  PS2_RETURN_NOT_OK(CheckValid(other));
  return context_->client()->Dot(ref_, other.ref_);
}

Status Dcv::Axpy(const Dcv& x, double alpha) {
  PS2_TRACE_SPAN("dcv", "axpy");
  PS2_RETURN_NOT_OK(CheckValid(*this));
  PS2_RETURN_NOT_OK(CheckValid(x));
  return context_->client()->ColumnOp(ColOpKind::kAxpy, ref_, {x.ref_}, alpha);
}

Status Dcv::CopyFrom(const Dcv& src) {
  PS2_RETURN_NOT_OK(CheckValid(*this));
  PS2_RETURN_NOT_OK(CheckValid(src));
  return context_->client()->ColumnOp(ColOpKind::kCopy, ref_, {src.ref_});
}

Status Dcv::AddOf(const Dcv& a, const Dcv& b) {
  PS2_RETURN_NOT_OK(CheckValid(*this));
  return context_->client()->ColumnOp(ColOpKind::kAdd, ref_,
                                      {a.ref_, b.ref_});
}

Status Dcv::SubOf(const Dcv& a, const Dcv& b) {
  PS2_RETURN_NOT_OK(CheckValid(*this));
  return context_->client()->ColumnOp(ColOpKind::kSub, ref_,
                                      {a.ref_, b.ref_});
}

Status Dcv::MulOf(const Dcv& a, const Dcv& b) {
  PS2_RETURN_NOT_OK(CheckValid(*this));
  return context_->client()->ColumnOp(ColOpKind::kMul, ref_,
                                      {a.ref_, b.ref_});
}

Status Dcv::DivOf(const Dcv& a, const Dcv& b) {
  PS2_RETURN_NOT_OK(CheckValid(*this));
  return context_->client()->ColumnOp(ColOpKind::kDiv, ref_,
                                      {a.ref_, b.ref_});
}

Status Dcv::Fill(double value) {
  PS2_RETURN_NOT_OK(CheckValid(*this));
  return context_->client()->ColumnOp(ColOpKind::kFill, ref_, {}, value);
}

Status Dcv::Scale(double alpha) {
  PS2_RETURN_NOT_OK(CheckValid(*this));
  return context_->client()->ColumnOp(ColOpKind::kScale, ref_, {}, alpha);
}

Status Dcv::Zip(const std::vector<Dcv>& others, int udf_id,
                const std::vector<double>& args) {
  PS2_TRACE_SPAN("dcv", "zip");
  PS2_RETURN_NOT_OK(CheckValid(*this));
  std::vector<RowRef> rows{ref_};
  for (const Dcv& d : others) {
    PS2_RETURN_NOT_OK(CheckValid(d));
    rows.push_back(d.ref_);
  }
  return context_->client()->Zip(rows, udf_id, args);
}

Result<std::vector<std::vector<double>>> Dcv::ZipAggregate(
    const std::vector<Dcv>& others, int udf_id) const {
  PS2_TRACE_SPAN("dcv", "zip_aggregate");
  PS2_RETURN_NOT_OK(CheckValid(*this));
  std::vector<RowRef> rows{ref_};
  for (const Dcv& d : others) {
    PS2_RETURN_NOT_OK(CheckValid(d));
    rows.push_back(d.ref_);
  }
  return context_->client()->ZipAggregate(rows, udf_id);
}

}  // namespace ps2
