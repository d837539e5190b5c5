#include "placement.h"

#include <algorithm>

#if defined(__linux__)
#include <dirent.h>
#include <sched.h>

#include <cstdlib>
#endif

namespace perfbench {

#if defined(__linux__)

std::vector<pid_t> thread_ids() {
  std::vector<pid_t> ids;
  if (DIR* dir = opendir("/proc/self/task")) {
    while (const dirent* e = readdir(dir)) {
      if (e->d_name[0] != '.') {
        ids.push_back(static_cast<pid_t>(std::atoi(e->d_name)));
      }
    }
    closedir(dir);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

bool place_thread(pid_t tid, int cpu) {
  if (cpu < 0 || cpu >= CPU_SETSIZE) return false;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(tid, sizeof(one), &one) == 0;
}

#else

std::vector<pid_t> thread_ids() { return {}; }
bool place_thread(pid_t, int) { return false; }

#endif

}  // namespace perfbench
