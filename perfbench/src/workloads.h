// The workloads of the benchmark (see README.md for why each exists and
// why BENCHMARK.json gates table2 and fleet only):
//
//   table2  the nine Table 2 queries, XML fed through SaxParser in 4 KiB
//           chunks, answer refreshed after every chunk and update;
//   retro   three queries over a pre-tokenized X stream dense with
//           retroactive updates (replace + freeze a short lag later);
//   fleet   15 registrations of the Q1-shaped family in one QueryServer,
//           over 24 small streams of the retro kind, one per pass.
//
// A workload runs whole passes (every query over its whole input once); the
// runner in main.cc repeats passes for the run's duration and reduces them.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

/// Engine counters of one pass, summed (counts) or maxed (high-water marks)
/// over the pass's queries.
struct Counters {
  double xml_bytes_scanned = 0;
  double xml_aliased_texts = 0;
  double xml_events = 0;
  double transformer_calls = 0;
  double adjust_calls = 0;
  double max_live_states = 0;
  double max_buffered_bytes = 0;
  double max_display_regions = 0;
  double full_rescans = 0;
  double prefix_nodes = 0;
  double hit_ratio = 0;
};

/// What one query measured in one pass.
struct QueryRun {
  double seconds = 0;  // first byte or event in → final answer rendered
  double bytes = 0;    // source bytes behind `seconds`
  int64_t state = 0;   // Metrics::MaxApproxStateBytes
  double scale = 1;    // host scale of the run (Workload::after_query)
  std::vector<double> chunk_ms;
  std::vector<double> update_us;
};

/// What one pass measured.  Answers are kept so that they can be checked
/// against the references after the timed part of the run.
struct PassResult {
  size_t input = 0;  // which of the workload's inputs the pass ran
  double wall_s = 0;
  double setup_s = 0;  // set-up sample taken right after the pass
  double probe_s = 0;  // host probe taken right after the pass
  std::map<int, QueryRun> queries;  // by Table 2 number (fleet: 0)
  Counters counters;

  struct Answer {
    int query = 0;     // index into the workload's reference list
    bool ok = false;   // every status OK, and live render == full render
    std::string text;
  };
  std::vector<Answer> answers;
};

/// Provenance of the generated inputs.
struct Provenance {
  uint64_t seed = 0;
  uint64_t bytes = 0;
  uint64_t events = 0;
  uint64_t updates = 0;
  uint64_t digest = 0;
};

/// Reference checks: each comparison or status read is one operation.
struct Checks {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, uint64_t> failures;  // what failed, how often
  void Expect(bool ok, const std::string& what);
};

struct ParallelProbe {
  int threads = 0;
  double speedup_vs_serial = 0;
};

/// Probes of the engine defects the workload's feeds avoid (README.md,
/// "Known defects"): a query fed the way the workload does not feed it, once
/// per run, compared with the answer on Materialize(stream).  They are not
/// checks of what the workload runs; a fix shows as fewer failing probes.
struct KnownDefects {
  int probes = 0;
  std::vector<std::string> failing;  // what each failing probe fed
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual const Provenance& provenance() const = 0;

  /// How many inputs the workload's passes take in turn.
  virtual size_t input_count() const { return 1; }

  /// How strongly the workload's times follow the host probe: a host on
  /// which the probe takes x times as long makes them take about
  /// x^host_exponent() times as long (README.md, "Host speed").
  virtual double host_exponent() const { return 1.0; }

  /// Called after each query's run in a pass, outside its clock; what it
  /// returns is the run's QueryRun::scale.  The timed run times a host
  /// probe there (main.cc).  Unset: scale 1.
  std::function<double()> after_query;

  /// Compiles and opens (or registers) every query of the workload once and
  /// returns the seconds that took; the tear-down after it is not timed.
  virtual double SetUpOnce() = 0;

  /// One pass over every query on input `input` (< input_count());
  /// `tracer` is null in timed runs.
  virtual PassResult RunPass(Tracer* tracer, size_t input) = 0;

 protected:
  double AfterQuery() const { return after_query ? after_query() : 1.0; }

 public:

  /// Checks a pass's answers against the references (built on first use,
  /// after the timed part of the run).
  virtual void Check(const PassResult& pass, Checks* checks) = 0;

  /// Runs the workload's known-defect probes (table2 only).
  virtual KnownDefects ProbeKnownDefects() { return {}; }

  /// The traced run's measurement of the parallel executor (table2 only):
  /// the five multi-stage X queries fed once serially and once on
  /// nproc - 1 worker threads, traced into `tracer`; their answers are
  /// compared into `checks`.  Zeroes for the other workloads.
  virtual ParallelProbe RunParallelProbe(Tracer* tracer, Checks* checks) {
    (void)tracer;
    (void)checks;
    return {};
  }
};

/// Builds a workload's inputs at `scale` (1 = the benchmark's size); null
/// for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       double scale);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
