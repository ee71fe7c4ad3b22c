#include "trace.h"

#include <cstdio>

namespace perfbench {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kHarness: return "harness";
    case Layer::kInject: return "bench.inject";
    case Layer::kXml: return "xml";
    case Layer::kPipeline: return "pipeline";
    case Layer::kDisplayApply: return "display.apply";
    case Layer::kDisplayRender: return "display.render";
    case Layer::kCompile: return "xquery.compile";
    case Layer::kRegister: return "query_server.register";
    case Layer::kServerPush: return "query_server.push";
    case Layer::kParallelPush: return "parallel.push";
    case Layer::kParallelFinish: return "parallel.finish";
    case Layer::kTeardown: return "teardown";
    case Layer::kCount: break;
  }
  return "?";
}

void Tracer::Begin(Layer layer, int query) {
  const Open* parent = open_.empty() ? nullptr : &open_.back();
  if (query < 0) query = parent != nullptr ? parent->query : 0;
  const int64_t now = NowNs();
  int32_t stored = -1;
  if (spans_.size() < kMaxStoredSpans) {
    int32_t parent_index = parent != nullptr ? parent->stored : -1;
    spans_.push_back(
        {now, 0, parent_index, static_cast<int16_t>(query), layer});
    stored = static_cast<int32_t>(spans_.size() - 1);
  }
  bool query_root = query > 0 && (parent == nullptr || parent->query != query);
  open_.push_back(
      {now, 0, stored, static_cast<int16_t>(query), layer, query_root});
}

void Tracer::End() {
  const Open span = open_.back();
  open_.pop_back();
  const int64_t now = NowNs();
  if (span.stored >= 0) spans_[span.stored].end_ns = now;
  const int64_t dur = now - span.start_ns;
  const double self = static_cast<double>(dur - span.child_ns) * 1e-9;
  const size_t layer = static_cast<size_t>(span.layer);
  summary_.self_s[layer] += self;
  if (span.query > 0) {
    summary_.query_self_s[span.query][layer] += self;
    if (span.query_root) {
      summary_.query_wall_s[span.query] += static_cast<double>(dur) * 1e-9;
    }
  }
  if (open_.empty()) {
    summary_.wall_s += static_cast<double>(dur) * 1e-9;
  } else {
    open_.back().child_ns += dur;
  }
  ++summary_.spans;
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name,query,start_ns,end_ns,parent\n");
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& s : spans_) {
    std::fprintf(f, "%s,%d,%lld,%lld,%d\n", LayerName(s.layer), s.query,
                 static_cast<long long>(s.start_ns - origin),
                 static_cast<long long>(s.end_ns - origin), s.parent);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
