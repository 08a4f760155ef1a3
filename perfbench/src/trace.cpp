#include "trace.h"

#include <fstream>
#include <stdexcept>

namespace perfbench {

const char* to_string(SpanKind kind) {
  switch (kind) {
    case SpanKind::kWorkload: return "workload";
    case SpanKind::kRun: return "run";
    case SpanKind::kSetup: return "setup";
    case SpanKind::kClusterBuild: return "cluster.build";
    case SpanKind::kWorkloadGen: return "workload.gen";
    case SpanKind::kSimInit: return "sim.init";
    case SpanKind::kStep: return "step";
    case SpanKind::kSchedule: return "schedule";
    case SpanKind::kFinish: return "finish";
  }
  return "?";
}

int Tracer::open(SpanKind kind, int policy) {
  Span span;
  span.kind = kind;
  span.parent = stack_.empty() ? -1 : stack_.back();
  // A span inherits the policy of the run it sits in.
  span.policy = policy >= 0 || span.parent < 0
                    ? policy
                    : spans_[static_cast<std::size_t>(span.parent)].policy;
  span.start_ns = now_ns();
  spans_.push_back(span);
  const int id = static_cast<int>(spans_.size() - 1);
  stack_.push_back(id);
  return id;
}

void Tracer::close(int id) {
  if (stack_.empty() || stack_.back() != id) {
    throw std::logic_error("Tracer: spans closed out of order");
  }
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  stack_.pop_back();
}

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_ns - spans[i].start_ns - spans[i].agg_ns;
  }
  for (const Span& s : spans) {
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.end_ns - s.start_ns;
  }
  return self;
}

void write_chrome_trace(const std::string& path, const std::vector<Span>& spans,
                        const std::vector<std::string>& policies) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  const std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  out << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i == 0 ? "" : ",\n") << "{\"name\":\"" << to_string(s.kind)
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << static_cast<double>(s.start_ns - origin) / 1e3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent;
    if (s.policy >= 0) {
      out << ",\"policy\":\"" << policies[static_cast<std::size_t>(s.policy)] << "\"";
    }
    if (s.agg_count > 0) {
      out << ",\"added_up_us\":" << static_cast<double>(s.agg_ns) / 1e3
          << ",\"added_up_calls\":" << s.agg_count;
    }
    out << "}}";
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("short write to trace file " + path);
}

}  // namespace perfbench
