// In-memory span store for the benchmark's traced run.
//
// A span is one timed call from the benchmark into a layer's public
// function: name ("<layer>.<what>"), start, end, parent span and replica
// id. Spans nest through an open-span stack, so a span's parent is the span
// that was open when it began. Calls that happen once per probe slice or
// once per scheduler draw would mean millions of spans per replica, so
// those are folded into one aggregate span per (parent, name) that carries
// the call count and the summed duration. Everything stays in memory until
// write_jsonl() at the end of the run.
//
// A span's self time is its duration minus its children's durations; a
// layer's self time is the sum over its spans. The "bench" layer (the
// sweep and replica container spans) is the benchmark's own glue; inside
// replicas the report shows it as the unattributed row.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;   // index of the parent span; -1 = root
  int replica = -1;  // replica id within the run; -1 = sweep level
  // Aggregate spans: number of folded calls and their summed duration.
  // A discrete span has calls == 1 and total_ns == end_ns - start_ns.
  std::uint64_t calls = 1;
  std::int64_t total_ns = 0;
  // True when total_ns is scaled up from a sample of the calls.
  bool estimated = false;
};

class Tracer {
 public:
  // Open a discrete span as a child of the innermost open span.
  int open(std::string name, int replica) {
    Span s;
    s.name = std::move(name);
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.replica = replica;
    s.start_ns = now_ns();
    spans_.push_back(std::move(s));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  // Close the innermost open span, which must be `id`.
  void close(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_ns = now_ns();
    s.total_ns = s.end_ns - s.start_ns;
    stack_.pop_back();
  }

  // An aggregate child of `parent` (default: the innermost open span);
  // feed it with add() or set_estimate().
  static constexpr int kInnermost = -2;
  int aggregate(std::string name, int replica, int parent = kInnermost) {
    Span s;
    s.name = std::move(name);
    s.parent = parent != kInnermost ? parent
               : stack_.empty()     ? -1
                                    : stack_.back();
    s.replica = replica;
    s.calls = 0;
    spans_.push_back(std::move(s));
    return static_cast<int>(spans_.size()) - 1;
  }
  void add(int id, std::int64_t t0, std::int64_t t1) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    if (s.calls == 0) s.start_ns = t0;
    s.end_ns = t1;
    s.total_ns += t1 - t0;
    ++s.calls;
  }
  // Set an aggregate's totals from a sampled timer's estimate.
  void set_estimate(int id, std::uint64_t calls, std::int64_t total_ns) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.calls = calls;
    s.total_ns = total_ns;
    s.estimated = true;
  }

  // Self seconds summed per layer (the name up to the first '.') over the
  // spans inside replicas; together they cover the replicas' wall time.
  [[nodiscard]] std::map<std::string, double> replica_layer_self_s() const {
    std::map<std::string, double> out;
    const std::vector<std::int64_t> self = self_ns();
    for (std::size_t i = 0; i < spans_.size(); ++i)
      if (spans_[i].replica >= 0)
        out[layer_of(spans_[i].name)] += static_cast<double>(self[i]) * 1e-9;
    return out;
  }

  // Durations and call counts summed per span name.
  struct NameTotals {
    double total_s = 0.0;
    std::uint64_t calls = 0;
  };
  [[nodiscard]] std::map<std::string, NameTotals> name_totals() const {
    std::map<std::string, NameTotals> out;
    for (const Span& s : spans_) {
      NameTotals& t = out[s.name];
      t.total_s += static_cast<double>(s.total_ns) * 1e-9;
      t.calls += s.calls;
    }
    return out;
  }

  // One JSON object per span, in open order; times relative to the first
  // span's start.
  void write_jsonl(std::ostream& os) const {
    const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << "{\"id\":" << i << ",\"name\":\"" << s.name
         << "\",\"start_ns\":" << s.start_ns - t0
         << ",\"end_ns\":" << s.end_ns - t0 << ",\"parent\":" << s.parent
         << ",\"replica\":" << s.replica << ",\"calls\":" << s.calls
         << ",\"total_ns\":" << s.total_ns
         << ",\"estimated\":" << (s.estimated ? "true" : "false") << "}\n";
    }
  }

 private:
  // Self time per span: total minus the children's totals.
  [[nodiscard]] std::vector<std::int64_t> self_ns() const {
    std::vector<std::int64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].total_ns;
    for (const Span& s : spans_)
      if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.total_ns;
    return self;
  }

  [[nodiscard]] static std::string layer_of(const std::string& name) {
    return name.substr(0, name.find('.'));
  }

  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// RAII discrete span; a null tracer makes it free (the untraced run).
class Scope {
 public:
  Scope(Tracer* tr, const char* name, int replica)
      : tr_(tr), id_(tr ? tr->open(name, replica) : -1) {}
  ~Scope() {
    if (tr_) tr_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tr_;
  int id_;
};

}  // namespace perfbench
