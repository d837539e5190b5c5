#include "trace.h"

namespace perfbench {

namespace {
std::int64_t since(std::chrono::steady_clock::time_point origin) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin)
      .count();
}
}  // namespace

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

std::int32_t Tracer::open(const char* name, std::int64_t op) {
  Span s;
  s.name = name;
  s.parent = current_;
  s.op = op;
  s.start_ns = since(origin_);
  spans_.push_back(s);
  current_ = static_cast<std::int32_t>(spans_.size() - 1);
  return current_;
}

void Tracer::close(std::int32_t id) {
  auto& s = spans_[static_cast<std::size_t>(id)];
  s.end_ns = since(origin_);
  if (s.parent >= 0) {
    spans_[static_cast<std::size_t>(s.parent)].child_ns += s.end_ns - s.start_ns;
  }
  current_ = s.parent;
}

void Tracer::clear() {
  spans_.clear();
  current_ = -1;
}

double Tracer::duration_ns(std::int32_t id) const {
  const auto& s = spans_[static_cast<std::size_t>(id)];
  return static_cast<double>(s.end_ns - s.start_ns);
}

std::map<std::string, double> Tracer::self_ns_by_name() const {
  std::map<std::string, double> out;
  for (const auto& s : spans_) {
    out[s.name] += static_cast<double>(s.end_ns - s.start_ns - s.child_ns);
  }
  return out;
}

std::map<std::string, double> Tracer::self_ns_by_layer() const {
  std::map<std::string, double> out;
  for (const auto& [name, ns] : self_ns_by_name()) out[layer_of(name)] += ns;
  return out;
}

double Tracer::total_ns(const std::string& name) const {
  double total = 0.0;
  for (const auto& s : spans_) {
    if (name == s.name) total += static_cast<double>(s.end_ns - s.start_ns);
  }
  return total;
}

void Tracer::write(std::ostream& out) const {
  out << "id\tname\tstart_ns\tend_ns\tparent\top\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    out << i << '\t' << s.name << '\t' << s.start_ns << '\t' << s.end_ns
        << '\t' << s.parent << '\t' << s.op << '\n';
  }
}

std::string layer_of(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

}  // namespace perfbench
