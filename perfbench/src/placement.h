#pragma once

#include <sys/types.h>

#include <vector>

namespace perfbench {

/// Ids of the calling process's threads, ascending.
std::vector<pid_t> thread_ids();

/// Restricts thread `tid` (0 = the calling thread) to `cpu`. A sleeping
/// thread moves there when it next wakes. Returns false when the call
/// fails (and off Linux).
///
/// Why: a kernel without scheduler load balancing (cpusets with
/// sched_load_balance=0, as on some container hosts) starts every new
/// thread on its creator's CPU and never moves it, so a 2-worker pool can
/// share one CPU for a whole process. Placing the threads again before each
/// round, one CPU further on, also spreads every engine over all CPUs
/// within one run, so a run's medians do not hinge on how busy one CPU's
/// host core happened to be.
bool place_thread(pid_t tid, int cpu);

}  // namespace perfbench
