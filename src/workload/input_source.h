#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace xrbench::workload {

/// The three input sources of a metaverse device (paper Table 3).
enum class InputSourceId { kCamera, kLidar, kMicrophone };
inline constexpr std::size_t kNumInputSources = 3;

const char* input_source_name(InputSourceId id);

/// Static description of one input stream (Definition 1: St_input).
struct InputSource {
  InputSourceId id = InputSourceId::kCamera;
  std::string input_type;       ///< "Images", "Sparse Depth Points", "Audio"
  double fps = 60.0;            ///< Streaming rate (Table 3).
  double max_jitter_ms = 0.05;  ///< Jt: max absolute jitter (Table 3).
  double init_latency_ms = 1.0; ///< Linit: stream setup latency.
};

/// The Table-3 source descriptions: camera 60 FPS +-0.05 ms, lidar 60 FPS
/// +-0.05 ms, microphone 3 FPS +-0.1 ms.
const InputSource& input_source(InputSourceId id);
const std::vector<InputSource>& all_input_sources();

/// Frame arrival (inference request) time — Definition 7:
///   Treq = Linit + frame/FPS + 2*Jt*(Dist(rand(src x frame)) - 0.5)
/// Dist is a clipped Gaussian over [0,1] (paper's default); `rand` is a
/// deterministic hash of (trial_seed, source, frame) so a given trial is
/// reproducible while distinct trials see fresh jitter.
double frame_arrival_ms(const InputSource& src, std::int64_t frame,
                        std::uint64_t trial_seed, bool enable_jitter = true);

/// Ideal (jitter-free) arrival time of `frame`: Linit + frame/FPS.
double ideal_arrival_ms(const InputSource& src, std::int64_t frame);

/// Jittered offset component alone, in [-Jt, +Jt].
double jitter_offset_ms(const InputSource& src, std::int64_t frame,
                        std::uint64_t trial_seed);

}  // namespace xrbench::workload
