#include "reference.hpp"

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <memory_resource>

#include "spans.hpp"

namespace perfbench {
namespace {

constexpr int kOps = 200'000;
constexpr std::uint64_t kKeys = 65'536;
constexpr std::size_t kArenaBytes = 16u << 20;

volatile std::uint64_t g_sink = 0;

}  // namespace

double reference_seconds() {
  // Enough for the map's peak (about 2/3 of kKeys live nodes) and the pool's
  // chunk overhead; the heap is only a fallback. Left uninitialised, so only
  // the pages a pass uses (about 4 MB) become resident.
  static const std::unique_ptr<std::byte[]> arena(new std::byte[kArenaBytes]);
  std::pmr::monotonic_buffer_resource mono(arena.get(), kArenaBytes);
  std::pmr::unsynchronized_pool_resource pool(&mono);
  const Stopwatch sw;
  {
    std::pmr::map<std::uint64_t, std::uint64_t> m(&pool);
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    for (int i = 0; i < kOps; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      const auto it = m.find(x % kKeys);
      if (it == m.end())
        m.emplace(x % kKeys, x);
      else if (x & 1)
        m.erase(it);
      else
        it->second += x;
    }
    g_sink = g_sink + m.size();
  }
  return sw.seconds();
}

}  // namespace perfbench
