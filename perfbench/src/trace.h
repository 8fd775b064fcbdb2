// In-memory span recorder for traced runs. Spans are recorded only by the
// benchmark's own code, around its calls into a layer's public functions;
// when tracing is off every call returns at the first branch.

#ifndef PERFBENCH_SRC_TRACE_H_
#define PERFBENCH_SRC_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  struct Span {
    const char* name = "";  // static string: layer.function
    uint64_t id = 0;
    uint64_t parent = 0;  // 0 = top level
    uint64_t op = 0;      // spans of one benchmark op share this id; 0 = none
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  struct Total {
    uint64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;  // total minus time covered by child spans
  };

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  // Drops recorded spans (each traced round keeps only its own).
  void Clear() {
    spans_.clear();
    open_.clear();
  }

  uint64_t Begin(const char* name, uint64_t op = 0) {
    if (!enabled_) {
      return 0;
    }
    Span s;
    s.name = name;
    s.id = spans_.size() + 1;
    s.parent = open_.empty() ? 0 : open_.back();
    s.op = op;
    s.start_ns = NowNs();
    spans_.push_back(s);
    open_.push_back(s.id);
    return s.id;
  }

  void End(uint64_t id) {
    if (id == 0) {
      return;
    }
    spans_[id - 1].end_ns = NowNs();
    if (!open_.empty() && open_.back() == id) {
      open_.pop_back();
    }
  }

  // Per-name totals with self time (children subtracted from their parent).
  std::map<std::string, Total> Totals() const {
    std::map<std::string, Total> out;
    std::vector<int64_t> child_ns(spans_.size() + 1, 0);
    for (const Span& s : spans_) {
      if (s.parent != 0) {
        child_ns[s.parent] += s.end_ns - s.start_ns;
      }
    }
    for (const Span& s : spans_) {
      Total& t = out[s.name];
      ++t.count;
      t.total_ns += s.end_ns - s.start_ns;
      t.self_ns += s.end_ns - s.start_ns - child_ns[s.id];
    }
    return out;
  }

  // One JSON object per line: name, id, parent, op, start/end in ns
  // relative to the first span. Only the first `max_spans` are written;
  // Totals() always covers every span.
  bool Write(const std::string& path, size_t max_spans) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    const int64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
    for (size_t i = 0; i < spans_.size() && i < max_spans; ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,\"op\":%llu,"
                   "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   s.name, static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.op),
                   static_cast<long long>(s.start_ns - base),
                   static_cast<long long>(s.end_ns - base));
    }
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<uint64_t> open_;
};

// RAII span; a no-op when the tracer is off.
class Scope {
 public:
  Scope(Tracer* t, const char* name, uint64_t op = 0) : t_(t), id_(t->Begin(name, op)) {}
  ~Scope() { t_->End(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
  uint64_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACE_H_
