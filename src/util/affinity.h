#pragma once

#include <cstddef>
#include <vector>

/// CPU affinity control for sweep workers.
///
/// Every function degrades to a documented no-op on platforms without an
/// affinity API (supported() returns false there), so callers never need
/// their own platform guards — a pinned pool on an unsupported platform is
/// simply an unpinned pool. On Linux the implementation respects an outer
/// taskset/numactl restriction: "all CPUs" means the CPUs in the calling
/// thread's current affinity mask, not the machine's.
namespace xrbench::util::affinity {

/// True when thread CPU pinning is implemented for this platform (Linux).
bool supported();

/// CPUs the calling thread may run on, ascending (the affinity mask on
/// Linux, so an outer `taskset -c 2-3` yields {2, 3}). Empty when
/// unsupported.
std::vector<int> allowed_cpus();

/// Pins the CALLING thread to allowed_cpus()[slot % allowed_cpus().size()],
/// the round-robin worker→core rule. Returns true when the pin took effect,
/// false (leaving scheduling untouched) when unsupported or the syscall
/// fails.
bool pin_current_thread(std::size_t slot);

}  // namespace xrbench::util::affinity
