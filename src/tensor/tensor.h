#pragma once
// Dense float32 ND tensor, row-major, value-semantic.
//
// This is the numeric substrate for the SNN library. It is deliberately
// small: shapes up to rank 4 (batch, channel, height, width), contiguous
// storage, no broadcasting machinery — the layers that need broadcast-like
// behaviour (batch norm, bias add) implement it explicitly in loops.
//
// Storage is recycled per thread. A freed block of at least
// kRecycleMinBytes (32 KiB) goes into the freeing thread's cache, and the
// next request of exactly its byte size on that thread takes it back,
// most recently freed first. A training step allocates each layer's
// output and input gradient afresh, so two or three blocks per shape
// cycle through the cache instead of through the heap, which would hand
// freed pages back to the kernel and fault them in again. Each thread's
// cache holds at most kRecycleCapBytes (16 MiB), dropping its oldest
// blocks first and never keeping a larger one, and frees what it holds
// when the thread exits. Under AddressSanitizer a cached block is
// poisoned until it is handed out again. There is no switch: the heap
// itself is left at its defaults.
//
// `Tensor(shape)` is all +0 whatever block it gets. An output that a
// kernel writes in full comes from `Tensor::uninitialized(shape)`, which
// skips that fill: its elements hold whatever the block held (a recycled
// block keeps its last tensor's values), so every element must be
// written before it is read.

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

namespace falvolt::tensor {

/// Shape of a tensor: a short vector of non-negative dimensions.
using Shape = std::vector<int>;

/// Number of elements of a shape (product of dims; empty shape -> 1 scalar).
std::size_t numel(const Shape& shape);

/// Render "[2, 3, 4]".
std::string shape_str(const Shape& shape);

/// Smallest block, in bytes, that a thread's cache keeps.
inline constexpr std::size_t kRecycleMinBytes = std::size_t{32} << 10;
/// Most bytes a thread's cache holds.
inline constexpr std::size_t kRecycleCapBytes = std::size_t{16} << 20;

/// Bytes the calling thread's cache holds now (tests, diagnostics).
std::size_t recycled_bytes();

/// Dense float tensor with value semantics (copy copies the data).
class Tensor {
 public:
  /// Empty tensor (rank 0, one element? no: zero elements, null shape).
  Tensor() = default;

  /// Zero-initialized tensor of the given shape.
  explicit Tensor(Shape shape);

  /// Tensor filled with `fill`.
  Tensor(Shape shape, float fill);

  /// Tensor initialized from a flat list (size must match the shape).
  Tensor(Shape shape, std::initializer_list<float> values);

  Tensor(const Tensor& other);
  Tensor(Tensor&& other) noexcept;
  Tensor& operator=(const Tensor& other);
  Tensor& operator=(Tensor&& other) noexcept;
  ~Tensor();

  static Tensor zeros(Shape shape) { return Tensor(std::move(shape)); }
  static Tensor full(Shape shape, float v) { return Tensor(std::move(shape), v); }
  /// Tensor of the given shape whose elements are left unset (see the
  /// file comment): for outputs the caller writes in full.
  static Tensor uninitialized(Shape shape);

  const Shape& shape() const { return shape_; }
  int dim(int i) const;
  int rank() const { return static_cast<int>(shape_.size()); }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  float* data() { return data_; }
  const float* data() const { return data_; }

  float& operator[](std::size_t i) { return data_[i]; }
  float operator[](std::size_t i) const { return data_[i]; }

  /// Bounds-checked element access (debug-friendly paths, tests).
  float& at(std::size_t i);
  float at(std::size_t i) const;

  /// 2D indexed access: tensor must be rank 2.
  float& at2(int r, int c);
  float at2(int r, int c) const;

  /// 4D indexed access: tensor must be rank 4 (N, C, H, W).
  float& at4(int n, int c, int h, int w);
  float at4(int n, int c, int h, int w) const;

  /// Reinterpret the data with a new shape of equal element count.
  Tensor reshaped(Shape new_shape) const;

  /// Fill in place.
  void fill(float v);
  void zero() { fill(0.0f); }

  /// Iterators over the flat data.
  float* begin() { return data_; }
  float* end() { return data_ + size_; }
  const float* begin() const { return data_; }
  const float* end() const { return data_ + size_; }

 private:
  struct Unset {};
  Tensor(Shape shape, Unset);

  Shape shape_;
  float* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace falvolt::tensor
