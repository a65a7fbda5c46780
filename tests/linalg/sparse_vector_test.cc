#include "linalg/sparse_vector.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"

namespace ps2 {
namespace {

TEST(SparseVectorTest, ConstructorSortsAndMergesDuplicates) {
  SparseVector v({5, 1, 5, 3}, {1.0, 2.0, 4.0, 3.0});
  EXPECT_EQ(v.nnz(), 3u);
  EXPECT_EQ(v.indices(), (std::vector<uint64_t>{1, 3, 5}));
  EXPECT_EQ(v.values(), (std::vector<double>{2.0, 3.0, 5.0}));
}

TEST(SparseVectorTest, GetBinarySearch) {
  SparseVector v({2, 10, 100}, {1, 2, 3});
  EXPECT_EQ(v.Get(2), 1.0);
  EXPECT_EQ(v.Get(10), 2.0);
  EXPECT_EQ(v.Get(3), 0.0);
  EXPECT_EQ(v.Get(1000), 0.0);
}

TEST(SparseVectorTest, PushBackRequiresIncreasingIndices) {
  SparseVector v;
  v.PushBack(1, 1.0);
  v.PushBack(5, 2.0);
  EXPECT_EQ(v.nnz(), 2u);
  EXPECT_DEATH(v.PushBack(3, 1.0), "strictly increasing");
}

TEST(SparseVectorTest, DotWithDense) {
  SparseVector v({0, 2}, {2.0, 3.0});
  std::vector<double> dense{1.0, 9.0, 4.0};
  EXPECT_DOUBLE_EQ(v.Dot(dense), 14.0);
}

TEST(SparseVectorTest, DotIgnoresOutOfBoundsEntries) {
  SparseVector v({0, 100}, {2.0, 3.0});
  std::vector<double> dense{5.0};
  EXPECT_DOUBLE_EQ(v.Dot(dense), 10.0);
}

TEST(SparseVectorTest, AxpyInto) {
  SparseVector v({1, 3}, {1.0, 2.0});
  std::vector<double> dense(4, 1.0);
  v.AxpyInto(&dense, 2.0);
  EXPECT_EQ(dense, (std::vector<double>{1, 3, 1, 5}));
}

TEST(SparseVectorTest, Norm2) {
  SparseVector v({0, 1}, {3.0, 4.0});
  EXPECT_DOUBLE_EQ(v.Norm2(), 5.0);
}

TEST(SparseVectorTest, AddInPlaceMerges) {
  SparseVector a({1, 3}, {1.0, 1.0});
  SparseVector b({2, 3, 5}, {10.0, 10.0, 10.0});
  a.AddInPlace(b);
  EXPECT_EQ(a.indices(), (std::vector<uint64_t>{1, 2, 3, 5}));
  EXPECT_EQ(a.values(), (std::vector<double>{1, 10, 11, 10}));
}

TEST(SparseVectorTest, AddInPlaceWithEmpty) {
  SparseVector a({1}, {1.0});
  SparseVector empty;
  a.AddInPlace(empty);
  EXPECT_EQ(a.nnz(), 1u);
  empty.AddInPlace(a);
  EXPECT_EQ(empty, a);
}

TEST(SparseVectorTest, ScaleInPlace) {
  SparseVector a({1, 2}, {2.0, 4.0});
  a.ScaleInPlace(0.5);
  EXPECT_EQ(a.values(), (std::vector<double>{1.0, 2.0}));
}

TEST(SparseVectorTest, SerializeRoundTrip) {
  SparseVector v({3, 1000000, 1000001}, {1.5, -2.5, 3.5});
  BufferWriter w;
  v.Serialize(&w);
  BufferReader r(w.buffer());
  SparseVector decoded = *SparseVector::Deserialize(&r);
  EXPECT_EQ(decoded, v);
  EXPECT_TRUE(r.AtEnd());
}

TEST(SparseVectorTest, SerializedBytesMatchesActualEncoding) {
  SparseVector v({3, 70, 7000000}, {1.0, 2.0, 3.0});
  BufferWriter w;
  v.Serialize(&w);
  EXPECT_EQ(v.SerializedBytes(), w.size());
}

TEST(SparseVectorTest, DeltaEncodingIsCompactForClusteredIndices) {
  // 100 adjacent indices: deltas of 1 -> 1 byte each.
  std::vector<uint64_t> idx;
  std::vector<double> val;
  for (uint64_t i = 1000000; i < 1000100; ++i) {
    idx.push_back(i);
    val.push_back(1.0);
  }
  SparseVector v(std::move(idx), std::move(val));
  // 1 count byte + ~3 bytes first delta + 99 one-byte deltas + 800 values.
  EXPECT_LT(v.SerializedBytes(), 910u);
}

TEST(SparseVectorTest, EmptyRoundTrip) {
  SparseVector v;
  BufferWriter w;
  v.Serialize(&w);
  BufferReader r(w.buffer());
  EXPECT_EQ(SparseVector::Deserialize(&r)->nnz(), 0u);
}

TEST(SparseVectorTest, LengthTheBufferCannotBackRejected) {
  // 18 bytes back at most two entries (one delta byte + one f64 each); a
  // claim of three fails on the count, before any entry is read.
  SparseVector v({1, 2}, {1.0, 2.0});
  BufferWriter w;
  v.Serialize(&w);
  std::vector<uint8_t> bytes = w.Release();
  ASSERT_EQ(bytes.size(), 19u);
  bytes[0] = 3;
  BufferReader r(bytes);
  EXPECT_TRUE(SparseVector::Deserialize(&r).status().IsOutOfRange());
  EXPECT_EQ(r.remaining(), 18u);
}

TEST(SparseVectorTest, RandomizedAddCommutes) {
  Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<uint64_t> ia, ib;
    std::vector<double> va, vb;
    for (int i = 0; i < 30; ++i) {
      ia.push_back(rng.NextUint64(100));
      va.push_back(rng.NextGaussian());
      ib.push_back(rng.NextUint64(100));
      vb.push_back(rng.NextGaussian());
    }
    SparseVector a(ia, va), b(ib, vb);
    SparseVector ab = a;
    ab.AddInPlace(b);
    SparseVector ba = b;
    ba.AddInPlace(a);
    ASSERT_EQ(ab.indices(), ba.indices());
    for (size_t k = 0; k < ab.nnz(); ++k) {
      EXPECT_NEAR(ab.values()[k], ba.values()[k], 1e-12);
    }
  }
}

}  // namespace
}  // namespace ps2
