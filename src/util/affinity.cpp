#include "util/affinity.h"

#if defined(__linux__)
#include <sched.h>
#endif

namespace xrbench::util::affinity {

#if defined(__linux__)

bool supported() { return true; }

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return {};
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

bool pin_current_thread(std::size_t slot) {
  const auto cpus = allowed_cpus();
  if (cpus.empty()) return false;
  const int cpu = cpus[slot % cpus.size()];
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  // pid 0 == the calling thread (Linux sched_setaffinity is per-thread).
  return sched_setaffinity(0, sizeof(set), &set) == 0;
}

#else  // unsupported platform: every operation is a no-op

bool supported() { return false; }

std::vector<int> allowed_cpus() { return {}; }

bool pin_current_thread(std::size_t) { return false; }

#endif

}  // namespace xrbench::util::affinity
