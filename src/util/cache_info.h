#ifndef TPA_UTIL_CACHE_INFO_H_
#define TPA_UTIL_CACHE_INFO_H_

#include <cstddef>

namespace tpa {

/// Size in bytes of the last-level data cache of cpu0, read from the Linux
/// sysfs cache topology (`/sys/devices/system/cpu/cpu0/cache/index*/`).
/// Falls back to `fallback_bytes` when the topology is unreadable (non-Linux
/// hosts, restricted containers).  The result feeds the query engine's
/// batch_block_size heuristic: grouped SpMM serving pays off once the CSR
/// arrays outgrow this — on a CSR larger than a 300 MB L3 (perfbench's
/// batch-dense-llc, 4 threads), groups of 8 served equal 24-seed batches
/// at 17.6–18.9 q/s against 13.5–15.0 q/s for per-seed fan-out.
size_t DetectLastLevelCacheBytes(size_t fallback_bytes = 8ull << 20);

}  // namespace tpa

#endif  // TPA_UTIL_CACHE_INFO_H_
