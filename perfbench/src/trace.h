// Span recorder for the traced run.  The benchmark wraps each of its calls
// into a layer of xflux in a Scope.  Self time (a span's duration minus the
// time its child spans cover) is summed per layer and per query as spans
// close, so the self times of all layers plus the harness add up to the
// traced wall time exactly.  The first kMaxStoredSpans spans (layer, query,
// start, end, parent) are also kept in memory and written out at exit.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// The layers the benchmark times from outside, by the public call it wraps.
enum class Layer : uint8_t {
  kHarness,         // the benchmark's own loop (one root span per pass/query)
  kInject,          // the benchmark's update injector on the live feed
  kXml,             // SaxParser::Feed / Finish
  kPipeline,        // Pipeline::PushBatch (core pipeline, transform stages)
  kDisplayApply,    // ResultDisplay::Accept(Batch), via a forwarding sink
  kDisplayRender,   // ResultDisplay::LiveText
  kCompile,         // QuerySession::Open (xquery compiler)
  kRegister,        // QueryServer::Register
  kServerPush,      // QueryServer::PushBatch
  kParallelPush,    // Pipeline::PushBatch on a threaded pipeline
  kParallelFinish,  // Pipeline::Finish on a threaded pipeline
  kTeardown,        // destroying sessions and servers
  kCount,
};

const char* LayerName(Layer layer);

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

class Tracer {
 public:
  using LayerSeconds = std::array<double, static_cast<size_t>(Layer::kCount)>;
  struct Summary {
    double wall_s = 0;         // sum of root span durations
    LayerSeconds self_s{};     // per layer
    std::map<int, LayerSeconds> query_self_s;  // per query, per layer
    std::map<int, double> query_wall_s;        // inclusive, per query
    uint64_t spans = 0;
  };

  /// Opens a span under the innermost open one; `query` < 0 inherits the
  /// parent's query (0 when the span serves no one query).
  void Begin(Layer layer, int query);
  /// Closes the innermost open span.
  void End();

  const Summary& summary() const { return summary_; }

  /// Writes the stored spans as CSV (name,query,start_ns,end_ns,parent;
  /// times relative to the first span); false when the file cannot be
  /// written.
  bool Write(const std::string& path) const;

 private:
  static constexpr size_t kMaxStoredSpans = 200000;

  struct Span {
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;  // index into spans_, -1 for a root or an unstored one
    int16_t query;
    Layer layer;
  };
  struct Open {
    int64_t start_ns;
    int64_t child_ns;
    int32_t stored;  // index into spans_, -1 when past the cap
    int16_t query;
    Layer layer;
    bool query_root;  // the outermost span of its query
  };

  std::vector<Open> open_;
  std::vector<Span> spans_;
  Summary summary_;
};

/// RAII span; a no-op when the tracer is null (the timed runs).
class Scope {
 public:
  Scope(Tracer* tracer, Layer layer, int query = -1) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->Begin(layer, query);
  }
  ~Scope() {
    if (tracer_ != nullptr) tracer_->End();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
