#include "tensor/tensor.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>

#include "tensor/tensor_ops.h"

#if defined(__SANITIZE_ADDRESS__)
#define FALVOLT_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define FALVOLT_TEST_ASAN 1
#endif
#endif

#if defined(FALVOLT_TEST_ASAN)
#include <sanitizer/asan_interface.h>
#endif

namespace falvolt::tensor {
namespace {

// Elements of the smallest block a thread's cache keeps.
constexpr int kMinFloats = static_cast<int>(kRecycleMinBytes / sizeof(float));

TEST(Tensor, DefaultIsEmpty) {
  Tensor t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.rank(), 0);
}

TEST(Tensor, ZeroInitialized) {
  Tensor t({2, 3});
  EXPECT_EQ(t.size(), 6u);
  for (std::size_t i = 0; i < t.size(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, FillConstructor) {
  Tensor t({4}, 2.5f);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(t[i], 2.5f);
}

TEST(Tensor, InitializerListChecksSize) {
  Tensor t({2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(t.at2(1, 0), 3.0f);
  EXPECT_THROW(Tensor({2, 2}, {1, 2, 3}), std::invalid_argument);
}

TEST(Tensor, NegativeDimensionThrows) {
  EXPECT_THROW(Tensor({2, -1}), std::invalid_argument);
}

TEST(Tensor, At2RowMajorLayout) {
  Tensor t({2, 3}, {0, 1, 2, 10, 11, 12});
  EXPECT_EQ(t.at2(0, 2), 2.0f);
  EXPECT_EQ(t.at2(1, 0), 10.0f);
  EXPECT_THROW(t.at2(2, 0), std::out_of_range);
  EXPECT_THROW(t.at2(0, 3), std::out_of_range);
}

TEST(Tensor, At4Layout) {
  Tensor t({2, 3, 4, 5});
  t.at4(1, 2, 3, 4) = 7.0f;
  // Flat index: ((1*3+2)*4+3)*5+4 = 119
  EXPECT_EQ(t[119], 7.0f);
  EXPECT_THROW(t.at4(2, 0, 0, 0), std::out_of_range);
}

TEST(Tensor, At2OnNon2DThrows) {
  Tensor t({2, 2, 2});
  EXPECT_THROW(t.at2(0, 0), std::logic_error);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t({2, 3}, {1, 2, 3, 4, 5, 6});
  const Tensor r = t.reshaped({3, 2});
  EXPECT_EQ(r.at2(2, 1), 6.0f);
  EXPECT_THROW(t.reshaped({4, 2}), std::invalid_argument);
}

TEST(Tensor, CopyIsDeep) {
  Tensor a({2}, 1.0f);
  Tensor b = a;
  b[0] = 9.0f;
  EXPECT_EQ(a[0], 1.0f);
}

TEST(Tensor, CopyAndMoveKeepShapeAndValues) {
  const Tensor a({2, 2}, {1, 2, 3, 4});
  Tensor b({4});
  b = a;  // same size: copied into b's block
  EXPECT_EQ(b.shape(), a.shape());
  EXPECT_EQ(b.at2(1, 1), 4.0f);
  Tensor c({7}, 5.0f);
  c = a;  // other size
  EXPECT_EQ(c.size(), 4u);
  EXPECT_EQ(c.at2(1, 0), 3.0f);
  Tensor d = std::move(c);
  EXPECT_EQ(d.at2(0, 1), 2.0f);
  EXPECT_TRUE(c.empty());
  const Tensor e = Tensor().reshaped({0});
  EXPECT_TRUE(e.empty());
}

// A recycled block keeps its last tensor's values; Tensor(shape) still
// reads all +0.
TEST(TensorRecycling, ZeroedTensorOnARecycledNaNBlock) {
  const float* block;
  {
    const Tensor dirty({kMinFloats}, std::numeric_limits<float>::quiet_NaN());
    block = dirty.data();
  }
  const Tensor t({kMinFloats});
  ASSERT_EQ(t.data(), block);
  for (std::size_t i = 0; i < t.size(); ++i) {
    std::uint32_t bits;
    std::memcpy(&bits, t.data() + i, sizeof bits);
    ASSERT_EQ(bits, 0u) << "element " << i;
  }
}

TEST(TensorRecycling, FreedBlockServesTheNextSameSizeRequest) {
  const float* block;
  {
    const Tensor a = Tensor::uninitialized({kMinFloats});
    block = a.data();
  }
  {
    const Tensor other = Tensor::uninitialized({kMinFloats + 1});
    EXPECT_NE(other.data(), block);
  }
  // Same byte size, other shape.
  const Tensor b = Tensor::uninitialized({2, kMinFloats / 2});
  EXPECT_EQ(b.data(), block);
}

TEST(TensorRecycling, SmallAndOversizedBlocksAreNotKept) {
  const std::size_t before = recycled_bytes();
  { const Tensor small = Tensor::uninitialized({kMinFloats - 1}); }
  EXPECT_EQ(recycled_bytes(), before);
  {
    const Tensor big = Tensor::uninitialized(
        {static_cast<int>(kRecycleCapBytes / sizeof(float)) + 1});
  }
  EXPECT_EQ(recycled_bytes(), before);
}

// Past the cap the oldest blocks go first: after 20 freed 1 MiB blocks
// the cache holds exactly the 16 newest, and serves the newest first.
TEST(TensorRecycling, CacheKeepsTheNewestBlocksUpToTheCap) {
  constexpr int kMiB = 1 << 18;  // floats
  std::vector<Tensor> blocks;
  for (int i = 0; i < 20; ++i) blocks.push_back(Tensor::uninitialized({kMiB}));
  const float* newest = blocks.back().data();
  for (Tensor& t : blocks) t = Tensor();
  EXPECT_EQ(recycled_bytes(), kRecycleCapBytes);
  const Tensor again = Tensor::uninitialized({kMiB});
  EXPECT_EQ(again.data(), newest);
}

// A block made on one thread and freed on another lands in the freeing
// thread's cache; both caches are freed when their threads exit (a leak
// or a race shows under ASan or TSan).
TEST(TensorRecycling, BlockFreedOnAnotherThread) {
  Tensor made;
  std::thread maker([&] { made = Tensor({kMinFloats}, 1.0f); });
  maker.join();
  std::size_t kept = 0;
  std::thread freer([&] {
    { const Tensor own = Tensor::uninitialized({2 * kMinFloats}); }
    const std::size_t before = recycled_bytes();
    made = Tensor();
    kept = recycled_bytes() - before;
  });
  freer.join();
  EXPECT_EQ(kept, kRecycleMinBytes);
}

TEST(TensorRecycling, CachedBlocksArePoisonedUnderAsan) {
#if defined(FALVOLT_TEST_ASAN)
  const float* block;
  {
    const Tensor t({kMinFloats});
    block = t.data();
  }
  EXPECT_TRUE(__asan_address_is_poisoned(block));
  EXPECT_TRUE(__asan_address_is_poisoned(block + kMinFloats - 1));
  const Tensor again = Tensor::uninitialized({kMinFloats});
  ASSERT_EQ(again.data(), block);
  EXPECT_FALSE(__asan_address_is_poisoned(again.data()));
  EXPECT_FALSE(__asan_address_is_poisoned(again.data() + kMinFloats - 1));
#else
  GTEST_SKIP() << "not an AddressSanitizer build";
#endif
}

TEST(TensorOps, AddSubMul) {
  Tensor a({3}, {1, 2, 3});
  Tensor b({3}, {10, 20, 30});
  EXPECT_EQ(add(a, b)[1], 22.0f);
  EXPECT_EQ(sub(b, a)[2], 27.0f);
  EXPECT_EQ(mul(a, b)[0], 10.0f);
  EXPECT_EQ(scale(a, 2.0f)[2], 6.0f);
}

TEST(TensorOps, ShapeMismatchThrows) {
  Tensor a({3});
  Tensor b({4});
  EXPECT_THROW(add(a, b), std::invalid_argument);
  Tensor c({3});
  EXPECT_NO_THROW(add(a, c));
}

TEST(TensorOps, InplaceVariants) {
  Tensor a({2}, {1, 2});
  Tensor b({2}, {3, 4});
  add_inplace(a, b);
  EXPECT_EQ(a[0], 4.0f);
  axpy_inplace(a, 2.0f, b);
  EXPECT_EQ(a[1], 14.0f);
  mul_inplace(a, b);
  EXPECT_EQ(a[0], 30.0f);
  scale_inplace(a, 0.5f);
  EXPECT_EQ(a[1], 28.0f);
}

TEST(TensorOps, Reductions) {
  Tensor a({4}, {1, -2, 3, 0});
  EXPECT_DOUBLE_EQ(sum(a), 2.0);
  EXPECT_DOUBLE_EQ(mean(a), 0.5);
  EXPECT_EQ(max_value(a), 3.0f);
  EXPECT_EQ(argmax(a), 2u);
  EXPECT_EQ(count_nonzero(a), 3u);
}

TEST(TensorOps, ArgmaxRows) {
  Tensor a({2, 3}, {1, 5, 2, 9, 0, 3});
  const auto idx = argmax_rows(a);
  EXPECT_EQ(idx[0], 1);
  EXPECT_EQ(idx[1], 0);
}

TEST(TensorOps, ArgmaxRowsFirstWinsOnTies) {
  Tensor a({1, 3}, {2, 2, 2});
  EXPECT_EQ(argmax_rows(a)[0], 0);
}

TEST(TensorOps, EmptyReductionsThrow) {
  Tensor a({0});
  EXPECT_THROW(max_value(a), std::invalid_argument);
  EXPECT_THROW(argmax(a), std::invalid_argument);
  EXPECT_DOUBLE_EQ(mean(a), 0.0);
}

TEST(TensorOps, MaxAbsDiffAndNorm) {
  Tensor a({3}, {1, 2, 2});
  Tensor b({3}, {1, 0, 5});
  EXPECT_DOUBLE_EQ(max_abs_diff(a, b), 3.0);
  EXPECT_DOUBLE_EQ(l2_norm(Tensor({2}, {3, 4})), 5.0);
}

TEST(Shape, NumelAndStr) {
  EXPECT_EQ(numel({2, 3, 4}), 24u);
  EXPECT_EQ(numel({}), 1u);
  EXPECT_EQ(numel({5, 0}), 0u);
  EXPECT_EQ(shape_str({2, 3}), "[2, 3]");
}

}  // namespace
}  // namespace falvolt::tensor
