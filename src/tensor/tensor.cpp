#include "tensor/tensor.h"

#include <algorithm>
#include <new>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <utility>

#if defined(__SANITIZE_ADDRESS__)
#define FALVOLT_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define FALVOLT_ASAN 1
#endif
#endif

#if defined(FALVOLT_ASAN)
#include <sanitizer/asan_interface.h>
#endif

namespace falvolt::tensor {

namespace {

void poison(void* p, std::size_t bytes) {
#if defined(FALVOLT_ASAN)
  ASAN_POISON_MEMORY_REGION(p, bytes);
#else
  (void)p;
  (void)bytes;
#endif
}

void unpoison(void* p, std::size_t bytes) {
#if defined(FALVOLT_ASAN)
  ASAN_UNPOISON_MEMORY_REGION(p, bytes);
#else
  (void)p;
  (void)bytes;
#endif
}

bool recyclable(std::size_t bytes) {
  return bytes >= kRecycleMinBytes && bytes <= kRecycleCapBytes;
}

class BlockCache;
// The calling thread's cache while it lives: made by the thread's first
// recyclable allocation, destroyed at thread exit.
thread_local BlockCache* t_cache = nullptr;
// Set once the thread's cache is destroyed, so a tensor that outlives it
// (a static one, at exit) goes straight back to the heap.
thread_local bool t_cache_gone = false;

// One thread's freed blocks, oldest first.
class BlockCache {
 public:
  BlockCache() {
    // Every block is at least kRecycleMinBytes, so keep() never grows
    // the vector past this.
    blocks_.reserve(kRecycleCapBytes / kRecycleMinBytes);
    t_cache = this;
  }
  ~BlockCache() {
    t_cache = nullptr;
    t_cache_gone = true;
    for (const Block& b : blocks_) drop(b);
  }
  BlockCache(const BlockCache&) = delete;
  BlockCache& operator=(const BlockCache&) = delete;

  // The most recently freed block of exactly `bytes`, or null.
  void* take(std::size_t bytes) {
    for (auto it = blocks_.rbegin(); it != blocks_.rend(); ++it) {
      if (it->bytes != bytes) continue;
      void* p = it->ptr;
      blocks_.erase(std::next(it).base());
      held_ -= bytes;
      unpoison(p, bytes);
      return p;
    }
    return nullptr;
  }

  // Keeps a freed recyclable block, first dropping the oldest blocks that
  // would take the cache past kRecycleCapBytes.
  void keep(void* p, std::size_t bytes) noexcept {
    std::size_t dropped = 0;
    while (held_ + bytes > kRecycleCapBytes) {
      held_ -= blocks_[dropped].bytes;
      drop(blocks_[dropped++]);
    }
    blocks_.erase(blocks_.begin(),
                  blocks_.begin() + static_cast<std::ptrdiff_t>(dropped));
    poison(p, bytes);
    blocks_.push_back(Block{p, bytes});
    held_ += bytes;
  }

  std::size_t held() const { return held_; }

 private:
  struct Block {
    void* ptr;
    std::size_t bytes;
  };
  static void drop(const Block& b) noexcept {
    unpoison(b.ptr, b.bytes);
    ::operator delete(b.ptr);
  }

  std::vector<Block> blocks_;
  std::size_t held_ = 0;
};

float* acquire(std::size_t count) {
  if (count == 0) return nullptr;
  const std::size_t bytes = count * sizeof(float);
  if (recyclable(bytes) && !t_cache_gone) {
    thread_local BlockCache cache;
    if (void* p = cache.take(bytes)) return static_cast<float*>(p);
  }
  return static_cast<float*>(::operator new(bytes));
}

void release(float* p, std::size_t count) noexcept {
  if (p == nullptr) return;
  const std::size_t bytes = count * sizeof(float);
  if (recyclable(bytes) && t_cache != nullptr) {
    t_cache->keep(p, bytes);
    return;
  }
  ::operator delete(p);
}

}  // namespace

std::size_t recycled_bytes() {
  return t_cache != nullptr ? t_cache->held() : 0;
}

std::size_t numel(const Shape& shape) {
  std::size_t n = 1;
  for (const int d : shape) {
    if (d < 0) throw std::invalid_argument("negative dimension in shape");
    n *= static_cast<std::size_t>(d);
  }
  return n;
}

std::string shape_str(const Shape& shape) {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i) os << ", ";
    os << shape[i];
  }
  os << ']';
  return os.str();
}

Tensor::Tensor(Shape shape, Unset) : shape_(std::move(shape)) {
  size_ = numel(shape_);
  data_ = acquire(size_);
}

Tensor::Tensor(Shape shape) : Tensor(std::move(shape), Unset{}) {
  std::fill_n(data_, size_, 0.0f);
}

Tensor::Tensor(Shape shape, float fill) : Tensor(std::move(shape), Unset{}) {
  std::fill_n(data_, size_, fill);
}

Tensor::Tensor(Shape shape, std::initializer_list<float> values)
    : Tensor(std::move(shape), Unset{}) {
  if (values.size() != size_) {
    throw std::invalid_argument("Tensor: initializer size != shape numel");
  }
  std::copy(values.begin(), values.end(), data_);
}

Tensor Tensor::uninitialized(Shape shape) {
  return Tensor(std::move(shape), Unset{});
}

Tensor::Tensor(const Tensor& other)
    : shape_(other.shape_), data_(acquire(other.size_)), size_(other.size_) {
  std::copy_n(other.data_, size_, data_);
}

Tensor::Tensor(Tensor&& other) noexcept
    : shape_(std::move(other.shape_)),
      data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)) {}

Tensor& Tensor::operator=(const Tensor& other) {
  if (this == &other) return *this;
  if (size_ != other.size_) return *this = Tensor(other);
  shape_ = other.shape_;
  std::copy_n(other.data_, size_, data_);
  return *this;
}

Tensor& Tensor::operator=(Tensor&& other) noexcept {
  if (this == &other) return *this;
  release(data_, size_);
  shape_ = std::move(other.shape_);
  data_ = std::exchange(other.data_, nullptr);
  size_ = std::exchange(other.size_, 0);
  return *this;
}

Tensor::~Tensor() { release(data_, size_); }

int Tensor::dim(int i) const {
  if (i < 0 || i >= rank()) throw std::out_of_range("Tensor::dim");
  return shape_[static_cast<std::size_t>(i)];
}

float& Tensor::at(std::size_t i) {
  if (i >= size_) throw std::out_of_range("Tensor::at");
  return data_[i];
}

float Tensor::at(std::size_t i) const {
  if (i >= size_) throw std::out_of_range("Tensor::at");
  return data_[i];
}

float& Tensor::at2(int r, int c) {
  if (rank() != 2) throw std::logic_error("Tensor::at2 on non-2D tensor");
  if (r < 0 || r >= shape_[0] || c < 0 || c >= shape_[1]) {
    throw std::out_of_range("Tensor::at2");
  }
  return data_[static_cast<std::size_t>(r) * shape_[1] + c];
}

float Tensor::at2(int r, int c) const {
  return const_cast<Tensor*>(this)->at2(r, c);
}

float& Tensor::at4(int n, int c, int h, int w) {
  if (rank() != 4) throw std::logic_error("Tensor::at4 on non-4D tensor");
  if (n < 0 || n >= shape_[0] || c < 0 || c >= shape_[1] || h < 0 ||
      h >= shape_[2] || w < 0 || w >= shape_[3]) {
    throw std::out_of_range("Tensor::at4");
  }
  const std::size_t idx =
      ((static_cast<std::size_t>(n) * shape_[1] + c) * shape_[2] + h) *
          shape_[3] +
      w;
  return data_[idx];
}

float Tensor::at4(int n, int c, int h, int w) const {
  return const_cast<Tensor*>(this)->at4(n, c, h, w);
}

Tensor Tensor::reshaped(Shape new_shape) const {
  if (numel(new_shape) != size_) {
    throw std::invalid_argument("Tensor::reshaped: element count mismatch " +
                                shape_str(shape_) + " -> " +
                                shape_str(new_shape));
  }
  Tensor t(*this);
  t.shape_ = std::move(new_shape);
  return t;
}

void Tensor::fill(float v) { std::fill_n(data_, size_, v); }

}  // namespace falvolt::tensor
