// Post-run shrink policy for per-worker scratch vectors: a run that once
// touched millions of entries must not pin that capacity for the owning
// object's lifetime. Contents are preserved; only excess capacity (4x
// past twice the observed high-water mark, and past a 1024-entry floor)
// is released. Shared by the Network's scratch buffers and the fault
// decorator's holding wheels so the retention policy cannot diverge.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace arbods::detail {

template <typename T>
void maybe_shrink(std::vector<T>& v, std::size_t used) {
  const std::size_t target = std::max<std::size_t>(2 * used, 64);
  if (v.capacity() > 1024 && v.capacity() / 4 > target) {
    std::vector<T> tmp;
    tmp.reserve(std::max(target, v.size()));
    tmp.assign(v.begin(), v.end());
    v.swap(tmp);
  }
}

}  // namespace arbods::detail
