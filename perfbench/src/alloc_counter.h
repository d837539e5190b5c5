#pragma once

#include <cstdint>

namespace perfbench {

/// Number of global operator-new calls the calling thread has made. The
/// benchmark replaces the global allocation functions with malloc-backed
/// counting ones, so differences of this value around a call count the
/// heap allocations that call made.
std::uint64_t thread_allocations();

}  // namespace perfbench
