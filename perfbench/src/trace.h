#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

/// In-memory span recorder for the traced replay. A span has a name
/// ("<layer>.<stage>"), start and end (ns since the tracer's origin), the
/// index of the span open when it began (its parent, -1 for a root) and the
/// id of the op it worked for (-1 when it serves no single op). Spans are
/// recorded by the benchmark around calls into each layer's public API, on
/// one thread; the program itself is not instrumented.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;
    std::int64_t op = -1;
    std::int64_t child_ns = 0;  ///< Time covered by direct children.
  };

  Tracer();

  std::int32_t open(const char* name, std::int64_t op = -1);
  void close(std::int32_t id);

  /// Drops every recorded span (the next replay starts a fresh record).
  void clear();

  const std::vector<Span>& spans() const { return spans_; }
  double duration_ns(std::int32_t id) const;

  /// Self time per span name: a span's duration minus the time its direct
  /// children cover, summed over every span of that name.
  std::map<std::string, double> self_ns_by_name() const;
  /// The same, summed per layer (the name's prefix before the first '.').
  std::map<std::string, double> self_ns_by_layer() const;

  /// Total duration of every span named `name`.
  double total_ns(const std::string& name) const;

  /// Tab-separated dump: one header line, then one line per span.
  void write(std::ostream& out) const;

 private:
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::int32_t current_ = -1;
};

/// Layer of a span name: the part before the first '.'.
std::string layer_of(const std::string& span_name);

/// RAII span: opens on construction, closes on destruction.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, std::int64_t op = -1)
      : tracer_(tracer), id_(tracer.open(name, op)) {}
  ~Scope() { tracer_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  std::int32_t id_;
};

}  // namespace perfbench
