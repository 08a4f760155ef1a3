#include "gauge.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory_resource>

namespace perfbench {

namespace {

std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

constexpr int kMapInserts = 100000;
constexpr std::uint64_t kMapKeySpace = 4 * kMapInserts;
constexpr std::size_t kSortKeys = 300000;
/// Room for every map node (at most 64 bytes each with its header).
constexpr std::size_t kArenaBytes = 64 * static_cast<std::size_t>(kMapInserts);

/// The kernel's memory, allocated once and reused by every pass, so the
/// kernel runs on the same pages at the same addresses whatever the
/// library's runs did to the heap in between.
struct Buffers {
  std::vector<std::byte> arena = std::vector<std::byte>(kArenaBytes);
  std::vector<std::uint64_t> keys = std::vector<std::uint64_t>(kSortKeys);
};

// Keeps the kernel's result observable so the compiler cannot drop it.
volatile std::uint64_t g_sink = 0;

}  // namespace

double gauge_pass() {
  static Buffers buffers;
  std::uint64_t state = 0x6A09E667F3BCC908ULL;
  for (std::uint64_t& k : buffers.keys) k = splitmix(state);
  std::pmr::monotonic_buffer_resource pool(buffers.arena.data(), buffers.arena.size(),
                                           std::pmr::null_memory_resource());
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t sum = 0;
  {
    std::pmr::map<std::uint64_t, std::uint64_t> tree(&pool);
    for (int i = 0; i < kMapInserts; ++i) tree[splitmix(state) % kMapKeySpace] = i;
    for (int i = 0; i < kMapInserts; ++i) {
      const auto it = tree.find(splitmix(state) % kMapKeySpace);
      if (it != tree.end()) sum += it->second;
    }
  }
  std::sort(buffers.keys.begin(), buffers.keys.end());
  sum += buffers.keys[kSortKeys / 2];
  const auto t1 = std::chrono::steady_clock::now();
  g_sink = sum;
  return std::chrono::duration<double>(t1 - t0).count();
}

double host_scale(std::vector<double> passes) {
  if (passes.empty()) return 1.0;
  std::sort(passes.begin(), passes.end());
  const std::size_t n = passes.size();
  const double mid = n % 2 == 1 ? passes[n / 2] : 0.5 * (passes[n / 2 - 1] + passes[n / 2]);
  return kGaugeReferenceS / mid;
}

}  // namespace perfbench
