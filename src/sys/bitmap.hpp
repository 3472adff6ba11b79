// Fixed-size bitmaps used for dense frontiers (§II-A: "A dense frontier is
// represented as a bitmap").
//
// Two flavours:
//  * Bitmap        — plain bits; set() is for single-writer-per-word usage.
//                    This is what the partitioned traversals use: partition
//                    boundaries aligned to 64-vertex multiples
//                    (partition/partitioner.hpp) mean two partitions never
//                    share a word, making non-atomic writes race-free; a
//                    partitioning off that grid switches them to
//                    set_atomic() (with_shared_words below).
//  * AtomicBitmap  — fetch_or-based writes, used by traversals that update
//                    arbitrary destinations concurrently (sparse CSR forward
//                    traversal, COO "+a" configuration).
//
// Both store 64 bits per word and expose word-level access so that counting
// and iteration run at memory bandwidth.
#pragma once

#include <atomic>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "sys/parallel.hpp"
#include "sys/types.hpp"

namespace grind {

/// Invoke `body(std::bool_constant<shared>{})`: kernels whose parallel
/// tasks may write the same bitmap word (`shared`, i.e. partition boundaries
/// off the 64-vertex grid) instantiate their loop with atomic bit sets, and
/// the word-aligned case keeps plain stores.
template <typename Body>
decltype(auto) with_shared_words(bool shared, Body&& body) {
  if (shared) return body(std::true_type{});
  return body(std::false_type{});
}

/// Number of 64-bit words needed to hold `bits` bits.
constexpr std::size_t bitmap_words(std::size_t bits) {
  return (bits + 63) / 64;
}

/// Plain (non-atomic) bitmap.  set() is safe for concurrent writes only when
/// writers own disjoint 64-bit word ranges — which the partitioner
/// guarantees by aligning partition boundaries to multiples of 64 vertices;
/// set_atomic() is safe always.
class Bitmap {
 public:
  Bitmap() = default;
  explicit Bitmap(std::size_t bits)
      : bits_(bits), words_(bitmap_words(bits), 0) {}

  [[nodiscard]] std::size_t size() const { return bits_; }
  [[nodiscard]] std::size_t num_words() const { return words_.size(); }

  void set(std::size_t i) { words_[i >> 6] |= (1ULL << (i & 63)); }
  void clear_bit(std::size_t i) { words_[i >> 6] &= ~(1ULL << (i & 63)); }

  /// Atomically set bit i (for traversals whose writers do not own disjoint
  /// word ranges — the "+a" kernels).  Returns true iff this call flipped
  /// the bit 0→1.
  bool set_atomic(std::size_t i) {
    std::atomic_ref<std::uint64_t> w(words_[i >> 6]);
    const std::uint64_t mask = 1ULL << (i & 63);
    return (w.fetch_or(mask, std::memory_order_relaxed) & mask) == 0;
  }
  [[nodiscard]] bool get(std::size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1ULL;
  }

  /// set() or set_atomic() by tag: lets a kernel pick the flavour once per
  /// sweep (with_shared_words below) and keep one branch-free hot loop per
  /// choice.
  void set_as(std::false_type, std::size_t i) { set(i); }
  void set_as(std::true_type, std::size_t i) { set_atomic(i); }

  /// Zero all bits (parallel).
  void clear() { parallel_fill(words_, std::uint64_t{0}); }

  /// Zero the words covering bit range [begin, end); begin must be a
  /// multiple of 64 (a partition boundary) so no bits below it are cleared.
  void clear_range(std::size_t begin, std::size_t end) {
    assert(begin % 64 == 0 && "clear_range begin must be word-aligned");
    const std::size_t wb = begin >> 6;
    const std::size_t we = (end + 63) >> 6;
    parallel_fill(words_.data() + wb, we - wb, std::uint64_t{0});
  }

  /// Zero only the dirty (nonzero) words: a full-width read pass but stores
  /// touch just the cache lines a previous traversal actually wrote.  This
  /// is the workspace-recycling clear — on sparse-ish frontiers it writes a
  /// small fraction of the words clear() would.
  void clear_dirty() {
    parallel_for(0, words_.size(), [&](std::size_t w) {
      if (words_[w] != 0) words_[w] = 0;
    });
  }

  /// True iff no bit is set.
  [[nodiscard]] bool none() const {
    for (std::uint64_t w : words_)
      if (w != 0) return false;
    return true;
  }

  /// Set all bits (parallel); trailing bits beyond size() stay clear so that
  /// count() remains exact.
  void set_all() {
    parallel_fill(words_, ~std::uint64_t{0});
    trim_tail();
  }

  /// Population count (parallel).
  [[nodiscard]] std::size_t count() const {
    return parallel_reduce_sum<std::size_t>(
        0, words_.size(),
        [&](std::size_t w) { return std::popcount(words_[w]); });
  }

  /// Population count restricted to the word range covering [begin,end)
  /// bits; requires begin/end to be multiples of 64 (partition boundaries).
  [[nodiscard]] std::size_t count_range(std::size_t begin,
                                        std::size_t end) const {
    std::size_t c = 0;
    for (std::size_t w = begin >> 6; w < (end + 63) >> 6; ++w)
      c += std::popcount(words_[w]);
    return c;
  }

  /// Invoke f(i) for every set bit i, serially.
  template <typename F>
  void for_each_set(F&& f) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t word = words_[w];
      while (word != 0) {
        const int b = std::countr_zero(word);
        f(w * 64 + static_cast<std::size_t>(b));
        word &= word - 1;
      }
    }
  }

  std::uint64_t* words() { return words_.data(); }
  [[nodiscard]] const std::uint64_t* words() const { return words_.data(); }

  [[nodiscard]] bool operator==(const Bitmap& o) const {
    return bits_ == o.bits_ && words_ == o.words_;
  }

 private:
  void trim_tail() {
    const std::size_t tail = bits_ & 63;
    if (tail != 0 && !words_.empty())
      words_.back() &= (1ULL << tail) - 1;
  }

  std::size_t bits_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Bitmap with atomic bit-set, for concurrent writers without ownership
/// structure.  Reads are relaxed: traversals only require that a bit set
/// before the enclosing parallel region's barrier is visible after it.
class AtomicBitmap {
 public:
  AtomicBitmap() = default;
  explicit AtomicBitmap(std::size_t bits)
      : bits_(bits), words_(bitmap_words(bits)) {
    clear();
  }

  [[nodiscard]] std::size_t size() const { return bits_; }

  /// Atomically set bit i; returns true iff this call changed it 0→1.
  /// The return value lets BFS-style algorithms claim a vertex exactly once.
  bool set(std::size_t i) {
    const std::uint64_t mask = 1ULL << (i & 63);
    const std::uint64_t prev =
        words_[i >> 6].fetch_or(mask, std::memory_order_relaxed);
    return (prev & mask) == 0;
  }

  /// Non-atomic set for single-writer phases.
  void set_unsafe(std::size_t i) {
    auto& w = words_[i >> 6];
    w.store(w.load(std::memory_order_relaxed) | (1ULL << (i & 63)),
            std::memory_order_relaxed);
  }

  [[nodiscard]] bool get(std::size_t i) const {
    return (words_[i >> 6].load(std::memory_order_relaxed) >> (i & 63)) & 1ULL;
  }

  void clear() {
    parallel_for(0, words_.size(), [&](std::size_t w) {
      words_[w].store(0, std::memory_order_relaxed);
    });
  }

  [[nodiscard]] std::size_t count() const {
    return parallel_reduce_sum<std::size_t>(0, words_.size(), [&](std::size_t w) {
      return std::popcount(words_[w].load(std::memory_order_relaxed));
    });
  }

 private:
  std::size_t bits_ = 0;
  std::vector<std::atomic<std::uint64_t>> words_;
};

}  // namespace grind
