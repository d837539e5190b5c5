#pragma once

#include <array>
#include <cstddef>
#include <string>

namespace xrbench::models {

/// The 11 unit tasks of XRBench (paper Table 1). KD and SR appear in both
/// the Interaction and Context-Understanding categories; they are one task
/// each here (the category is metadata).
enum class TaskId {
  kHT,  ///< Hand Tracking — Hand Shape/Pose CNN (Ge et al. 2019)
  kES,  ///< Eye Segmentation — RITNet
  kGE,  ///< Gaze Estimation — Eyecod / FBNet-C instance
  kKD,  ///< Keyword Detection — res8-narrow
  kSR,  ///< Speech Recognition — Emformer EM-24L
  kSS,  ///< Semantic Segmentation — HRViT-b1
  kOD,  ///< Object Detection — D2Go Faster-RCNN-FBNetV3A
  kAS,  ///< Action Segmentation — ED-TCN
  kDE,  ///< Depth Estimation — MiDaS v21 small
  kDR,  ///< Depth Refinement — Sparse-to-Dense RGBd-200
  kPD,  ///< Plane Detection — PlaneRCNN
};

inline constexpr std::size_t kNumTasks = 11;

/// All tasks in Table-1 order.
const std::array<TaskId, kNumTasks>& all_tasks();

/// Two-letter task code used throughout the paper ("HT", "ES", ...).
const char* task_code(TaskId t);

/// Full task name ("Hand Tracking", ...).
const char* task_name(TaskId t);

/// Reference model instance name (paper Table 7).
const char* model_instance_name(TaskId t);

/// Task category: "Interaction", "Context Understanding", "World Locking".
const char* task_category(TaskId t);

/// Parses a two-letter code (case-insensitive). Throws on unknown code.
TaskId parse_task_code(const std::string& code);

/// Stable dense index of a task in [0, kNumTasks): its position in
/// all_tasks(), which lists the enumerators in declaration order.
constexpr std::size_t task_index(TaskId t) {
  return static_cast<std::size_t>(t);
}

}  // namespace xrbench::models
