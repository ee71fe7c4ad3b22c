// xflux end-to-end benchmark runner.
//
//   xflux_perfbench --workload <table2|retro|fleet> --seed <n>
//                   --seconds <s> --trace <0|1>
//
// Builds the workload's inputs from the seed, times the set-up of its
// queries, runs whole passes for the given seconds, checks every answer
// against its reference, and prints one JSON object as the last line of
// stdout: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 the run alternates
// untraced and traced passes, runs the workload again at half size, and
// reports per-layer self times and counters instead (README.md lists both).

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

// A step's latency is the median over its repeats; a run keeps adding
// passes past its seconds until every query has run this many times on
// every input of the workload after the warm-up pass, up to kOvertime x its
// seconds.
constexpr size_t kMinRepeats = 3;
constexpr double kOvertime = 1.5;
// Set-up is tens of microseconds for a few sessions: a sample averages
// back-to-back set-ups over at least kSetupSampleSeconds.  One is taken
// after every pass, so that set-up sees the host state of the passes, and
// setup_s is the median of the faster half of them.
constexpr double kSetupSampleSeconds = 0.05;
// The host's speed moves by up to 1.4x, for seconds to minutes, evenly over
// every query and set-up alike (README.md, "Host speed").  Before the first
// pass and after every query's run a run times a fixed probe that uses no
// xflux code, and scales each query run's times to a host on which the probe
// takes kProbeReferenceSeconds, by the probes on either side of the run
// raised to the workload's host_exponent().
constexpr double kProbeReferenceSeconds = 0.008;
constexpr int kProbeReps = 5;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = 0;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have[4] = {false, false, false, false};
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
      have[0] = true;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      have[1] = end != value && *end == '\0';
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value, &end);
      have[2] = end != value && *end == '\0' && args->seconds > 0;
    } else if (key == "--trace") {
      args->trace = std::atoi(value);
      have[3] = std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0;
    } else {
      return false;
    }
  }
  return (argc - 1) % 2 == 0 && have[0] && have[1] && have[2] && have[3];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile, p in (0, 1].
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// One probe: map updates, number formatting and a sort, about 8 ms on a
// 4-core x86-64 KVM guest.  The median of kProbeReps is returned.
double HostProbeSeconds() {
  static volatile uint64_t sink;
  std::vector<double> times;
  for (int rep = 0; rep < kProbeReps; ++rep) {
    const int64_t start = NowNs();
    uint64_t x = 88172645463325252ull;
    auto next = [&x] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    std::map<uint64_t, std::string> map;
    for (int i = 0; i < 20000; ++i) {
      map[next() % 4096] = std::to_string(x);
      if (i % 3 == 0) map.erase(map.begin());
    }
    std::vector<uint64_t> values(50000);
    for (uint64_t& v : values) v = next();
    std::sort(values.begin(), values.end());
    sink = values[values.size() / 2] + map.size();
    times.push_back(SecondsSince(start));
  }
  return Median(times);
}

double SetupSample(Workload* w) {
  double total = 0;
  int reps = 0;
  while (total < kSetupSampleSeconds) {
    total += w->SetUpOnce();
    ++reps;
  }
  return total / reps;
}

// Per query: the median over passes of query seconds.
std::map<int, double> QuerySeconds(const std::vector<PassResult>& passes) {
  std::map<int, std::vector<double>> per_query;
  for (const PassResult& p : passes) {
    for (const auto& [number, run] : p.queries) {
      per_query[number].push_back(run.seconds);
    }
  }
  std::map<int, double> out;
  for (auto& [number, values] : per_query) out[number] = Median(values);
  return out;
}

int64_t PeakState(const std::vector<PassResult>& passes) {
  int64_t peak = 0;
  for (const PassResult& p : passes) {
    for (const auto& [number, run] : p.queries) {
      peak = std::max(peak, run.state);
    }
  }
  return peak;
}

class MetricsJson {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    char buf[512];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  body_.empty() ? "" : ", ", name.c_str(),
                  std::isfinite(value) ? value : 0.0, unit);
    body_ += buf;
  }
  const std::string& body() const { return body_; }

 private:
  std::string body_;
};

void PrintResult(const Checks& checks, const MetricsJson& metrics) {
  for (const auto& [what, count] : checks.failures) {
    std::fprintf(stderr, "check failed %llux: %s\n",
                 static_cast<unsigned long long>(count), what.c_str());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      checks.failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(checks.attempted),
      static_cast<unsigned long long>(checks.failed), metrics.body().c_str());
}

// Runs the workload's known-defect probes and prints what they found;
// returns how many still fail.
double ReportKnownDefects(Workload* w) {
  const KnownDefects d = w->ProbeKnownDefects();
  if (d.probes == 0) return 0;
  std::printf("known defects: %zu of %d probes differ from Materialize "
              "(README.md, \"Known defects\")",
              d.failing.size(), d.probes);
  for (const std::string& what : d.failing) std::printf("; %s", what.c_str());
  std::printf("\n");
  return static_cast<double>(d.failing.size());
}

// The smaller half of `values` (the larger one when there are odd many).
std::vector<double> FasterHalf(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  values.resize((values.size() + 1) / 2);
  return values;
}

// A run's query runs after the warm-up pass, by (input, query).  The first
// pass warms the allocator and caches and is left out.
using Runs = std::map<std::pair<size_t, int>, std::vector<const QueryRun*>>;

Runs MeasuredRuns(const std::vector<PassResult>& passes) {
  Runs runs;
  for (size_t i = 1; i < passes.size(); ++i) {
    for (const auto& [number, run] : passes[i].queries) {
      runs[{passes[i].input, number}].push_back(&run);
    }
  }
  return runs;
}

// Per step (chunk or update) of each (input, query): the median over the
// query's runs of the step's latency.  A step's cost is fixed by the input,
// so the median over repeats keeps the input's slow steps and drops the
// host's stalls, which hit one repeat of a step and not the others.
std::vector<double> StepMedians(const Runs& runs, bool scaled,
                                std::vector<double> QueryRun::*samples) {
  std::vector<double> out, repeats;
  for (const auto& [key, list] : runs) {
    size_t steps = (list.front()->*samples).size();
    for (const QueryRun* run : list) {
      steps = std::min(steps, (run->*samples).size());
    }
    for (size_t j = 0; j < steps; ++j) {
      repeats.clear();
      for (const QueryRun* run : list) {
        repeats.push_back((run->*samples)[j] * (scaled ? run->scale : 1.0));
      }
      out.push_back(Median(repeats));
    }
  }
  return out;
}

struct Timing {
  const char* name;
  double value;
  const char* unit;
};

struct Summary {
  std::vector<Timing> timings;
  size_t queries = 0;
  size_t chunk_steps = 0;
  size_t update_steps = 0;
};

// The seven timed end-to-end metrics of `passes`; `scaled`: each query
// run's times multiplied by its scale (rates divided by it), and each set-up
// sample by the scale of the probe right before it.
Summary Summarize(const std::vector<PassResult>& passes, bool scaled,
                  double exponent) {
  const Runs runs = MeasuredRuns(passes);
  Summary out;
  // Per query MB/s: of its runs on each input the faster half, a slow spell
  // of the host that the probes miss being what makes a run slower; the
  // median over all inputs' faster halves (a pass's input may differ from the
  // next one's).
  std::map<int, std::vector<double>> per_query;
  for (const auto& [key, list] : runs) {
    std::vector<double> seconds;
    for (const QueryRun* run : list) {
      seconds.push_back(run->seconds * (scaled ? run->scale : 1.0));
    }
    for (double s : FasterHalf(seconds)) {
      per_query[key.second].push_back(list.front()->bytes / s / 1e6);
    }
  }
  double log_sum = 0;
  double min_mbs = 0;
  for (const auto& [number, values] : per_query) {
    const double mbs = Median(values);
    log_sum += std::log(mbs);
    min_mbs = min_mbs == 0 ? mbs : std::min(min_mbs, mbs);
  }
  out.queries = per_query.size();
  const std::vector<double> chunks =
      StepMedians(runs, scaled, &QueryRun::chunk_ms);
  const std::vector<double> updates =
      StepMedians(runs, scaled, &QueryRun::update_us);
  out.chunk_steps = chunks.size();
  out.update_steps = updates.size();
  std::vector<double> setups;
  for (size_t i = 1; i < passes.size(); ++i) {
    setups.push_back(
        passes[i].setup_s *
        (scaled ? std::pow(kProbeReferenceSeconds / passes[i].probe_s, exponent)
                : 1));
  }
  out.timings = {
      {"throughput_mb_s",
       std::exp(log_sum / static_cast<double>(per_query.size())), "MB/s"},
      {"min_query_mb_s", min_mbs, "MB/s"},
      {"chunk_latency_p50_ms", Percentile(chunks, 0.50), "ms"},
      {"chunk_latency_p99_ms", Percentile(chunks, 0.99), "ms"},
      {"update_latency_p50_us", Percentile(updates, 0.50), "us"},
      {"update_latency_p99_us", Percentile(updates, 0.99), "us"},
      {"setup_s", Median(FasterHalf(setups)), "s"},
  };
  return out;
}

int RunTimed(const Args& args, Workload* w) {
  std::vector<PassResult> all;
  std::vector<double> probes = {HostProbeSeconds()};
  const double exponent = w->host_exponent();
  w->after_query = [&probes, exponent] {
    probes.push_back(HostProbeSeconds());
    return std::pow(2 * kProbeReferenceSeconds /
                        (probes[probes.size() - 2] + probes.back()),
                    exponent);
  };
  const int64_t start = NowNs();
  auto enough_repeats = [&] {
    const Runs runs = MeasuredRuns(all);
    std::set<size_t> inputs;
    for (const auto& [key, list] : runs) {
      if (list.size() < kMinRepeats) return false;
      inputs.insert(key.first);
    }
    return inputs.size() == w->input_count();
  };
  while (all.size() < 2 || SecondsSince(start) < args.seconds ||
         (!enough_repeats() &&
          SecondsSince(start) < kOvertime * args.seconds)) {
    all.push_back(w->RunPass(nullptr, all.size() % w->input_count()));
    all.back().probe_s = probes.back();
    all.back().setup_s = SetupSample(w);
  }
  w->after_query = nullptr;
  const double measured_s = SecondsSince(start);
  const double rss_mb = PeakRssMb();

  Checks checks;
  for (const PassResult& p : all) w->Check(p, &checks);
  ReportKnownDefects(w);

  const Summary raw = Summarize(all, false, exponent);
  const Summary scaled = Summarize(all, true, exponent);
  std::printf("measured %.2f s: %zu passes, %zu chunk steps, %zu update "
              "steps, %zu queries\n",
              measured_s, all.size(), scaled.chunk_steps, scaled.update_steps,
              scaled.queries);
  std::printf("host probe: median %.4f ms, reference %.1f ms; raw:",
              Median(std::vector<double>(probes.begin() + 1, probes.end())) *
                  1e3,
              kProbeReferenceSeconds * 1e3);
  for (const Timing& t : raw.timings) {
    std::printf(" %s=%.6g", t.name, t.value);
  }
  std::printf("\n");

  MetricsJson m;
  for (const Timing& t : scaled.timings) m.Add(t.name, t.value, t.unit);
  m.Add("peak_state_kb", static_cast<double>(PeakState(all)) / 1024.0,
        "KB");
  m.Add("peak_rss_mb", rss_mb, "MB");
  PrintResult(checks, m);
  return 0;
}

Counters MeanCounters(const std::vector<PassResult>& passes) {
  Counters c;
  double n = static_cast<double>(passes.size());
  for (const PassResult& p : passes) {
    const Counters& x = p.counters;
    c.xml_bytes_scanned += x.xml_bytes_scanned / n;
    c.xml_aliased_texts += x.xml_aliased_texts / n;
    c.xml_events += x.xml_events / n;
    c.transformer_calls += x.transformer_calls / n;
    c.adjust_calls += x.adjust_calls / n;
    c.max_live_states = std::max(c.max_live_states, x.max_live_states);
    c.max_buffered_bytes = std::max(c.max_buffered_bytes, x.max_buffered_bytes);
    c.max_display_regions =
        std::max(c.max_display_regions, x.max_display_regions);
    c.full_rescans += x.full_rescans / n;
    c.prefix_nodes = x.prefix_nodes;
    c.hit_ratio = x.hit_ratio;
  }
  return c;
}

// Median traced pass over median untraced pass, per input (a workload's
// inputs differ in cost); the median over the inputs.
double TraceOverhead(const std::vector<PassResult>& plain,
                     const std::vector<PassResult>& traced) {
  std::map<size_t, std::vector<double>> plain_walls, traced_walls;
  for (const PassResult& p : plain) plain_walls[p.input].push_back(p.wall_s);
  for (const PassResult& p : traced) {
    traced_walls[p.input].push_back(p.wall_s);
  }
  std::vector<double> ratios;
  for (const auto& [input, walls] : traced_walls) {
    auto it = plain_walls.find(input);
    if (it != plain_walls.end()) {
      ratios.push_back(Median(walls) / Median(it->second));
    }
  }
  return Median(ratios);
}

int RunTraced(const Args& args, Workload* w) {
  Tracer tracer;
  std::vector<PassResult> plain, traced;
  Checks checks;
  w->Check(w->RunPass(nullptr, 0), &checks);  // warm-up, not measured
  const int64_t start = NowNs();
  // An untraced and a traced pass on each input in turn, so that
  // trace.overhead compares like with like.
  for (size_t input = 0; plain.empty() || SecondsSince(start) < args.seconds;
       input = (input + 1) % w->input_count()) {
    plain.push_back(w->RunPass(nullptr, input));
    traced.push_back(w->RunPass(&tracer, input));
    traced.back().probe_s = HostProbeSeconds();
  }

  // Cost shape: the same workload at half size, as many untraced passes.
  std::unique_ptr<Workload> half = MakeWorkload(args.workload, args.seed, 0.5);
  std::vector<PassResult> halves;
  half->Check(half->RunPass(nullptr, 0), &checks);  // warm-up, not measured
  for (size_t i = 0; i < plain.size(); ++i) {
    halves.push_back(half->RunPass(nullptr, plain[i].input));
  }
  std::map<int, double> full_s = QuerySeconds(plain);
  std::map<int, double> half_s = QuerySeconds(halves);
  double full_total = 0, half_total = 0;
  double worst_time = 0, worst_state = 0;
  for (const auto& [number, s] : full_s) {
    full_total += s;
    half_total += half_s.at(number);
    worst_time = std::max(worst_time, s / half_s.at(number));
    double full_state = static_cast<double>(plain[0].queries.at(number).state);
    double half_state =
        static_cast<double>(halves[0].queries.at(number).state);
    if (half_state > 0) worst_state = std::max(worst_state, full_state / half_state);
  }
  Tracer parallel_tracer;
  const ParallelProbe probe = w->RunParallelProbe(&parallel_tracer, &checks);
  const Tracer::Summary& par = parallel_tracer.summary();
  for (const PassResult& p : plain) w->Check(p, &checks);
  for (const PassResult& p : traced) w->Check(p, &checks);
  for (const PassResult& p : halves) half->Check(p, &checks);
  const double known_defects = ReportKnownDefects(w);

  std::filesystem::create_directories(".bench_out");
  std::string path = ".bench_out/trace-" + args.workload + "-seed" +
                     std::to_string(args.seed) + ".csv";
  if (!tracer.Write(path)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("traced %llu spans, wrote the first ones to %s\n",
              static_cast<unsigned long long>(tracer.summary().spans),
              path.c_str());
  if (probe.threads > 0) {
    std::string par_path = ".bench_out/trace-" + args.workload +
                           "-parallel-seed" + std::to_string(args.seed) +
                           ".csv";
    if (!parallel_tracer.Write(par_path)) {
      std::fprintf(stderr, "cannot write %s\n", par_path.c_str());
      return 1;
    }
    std::printf("parallel probe: %d threads, spans in %s\n", probe.threads,
                par_path.c_str());
  }

  const Tracer::Summary& sum = tracer.summary();
  const double n = static_cast<double>(traced.size());
  auto self = [&](Layer layer) {
    return sum.self_s[static_cast<size_t>(layer)] / n;
  };
  double layers_s = 0;
  for (size_t l = 0; l < static_cast<size_t>(Layer::kCount); ++l) {
    if (static_cast<Layer>(l) != Layer::kHarness) layers_s += sum.self_s[l] / n;
  }
  const Counters c = MeanCounters(traced);
  const Provenance& prov = w->provenance();

  MetricsJson m;
  m.Add("xml.tokenize_s", self(Layer::kXml), "s");
  m.Add("xml.bytes_scanned", c.xml_bytes_scanned, "bytes");
  m.Add("xml.aliased_texts", c.xml_aliased_texts, "count");
  m.Add("xml.events", c.xml_events, "count");
  m.Add("pipeline.self_s", self(Layer::kPipeline), "s");
  m.Add("ops.transformer_calls", c.transformer_calls, "count");
  m.Add("core.adjust_calls", c.adjust_calls, "count");
  m.Add("core.max_live_states", c.max_live_states, "count");
  m.Add("core.max_buffered_bytes", c.max_buffered_bytes, "bytes");
  m.Add("display.apply_s", self(Layer::kDisplayApply), "s");
  m.Add("display.max_live_regions", c.max_display_regions, "count");
  m.Add("display.render_s", self(Layer::kDisplayRender), "s");
  m.Add("display.full_rescans", c.full_rescans, "count");
  m.Add("xquery.compile_s", self(Layer::kCompile), "s");
  m.Add("query_server.register_s", self(Layer::kRegister), "s");
  m.Add("query_server.push_s", self(Layer::kServerPush), "s");
  m.Add("query_server.hit_ratio", c.hit_ratio, "ratio");
  m.Add("query_server.prefix_nodes", c.prefix_nodes, "count");
  m.Add("parallel.push_s",
        par.self_s[static_cast<size_t>(Layer::kParallelPush)], "s");
  m.Add("parallel.finish_s",
        par.self_s[static_cast<size_t>(Layer::kParallelFinish)], "s");
  m.Add("parallel.speedup_vs_serial", probe.speedup_vs_serial, "ratio");
  m.Add("teardown_s", self(Layer::kTeardown), "s");
  m.Add("bench.inject_s", self(Layer::kInject), "s");
  m.Add("unattributed_s", sum.wall_s / n - layers_s, "s");
  m.Add("trace.wall_s", sum.wall_s / n, "s");
  m.Add("trace.overhead", TraceOverhead(plain, traced), "ratio");
  std::vector<double> probes;
  for (const PassResult& p : traced) probes.push_back(p.probe_s);
  m.Add("host.probe_s", Median(probes), "s");
  m.Add("known_defects.failing", known_defects, "count");
  m.Add("shape.time_ratio_2x", full_total / half_total, "ratio");
  m.Add("shape.state_ratio_2x",
        static_cast<double>(PeakState(plain)) /
            static_cast<double>(std::max<int64_t>(1, PeakState(halves))),
        "ratio");
  m.Add("shape.worst_query_time_ratio_2x", worst_time, "ratio");
  m.Add("shape.worst_query_state_ratio_2x", worst_state, "ratio");
  m.Add("input.bytes", static_cast<double>(prov.bytes), "bytes");
  m.Add("input.events", static_cast<double>(prov.events), "count");
  m.Add("input.updates", static_cast<double>(prov.updates), "count");
  m.Add("input.digest32", static_cast<double>(prov.digest & 0xffffffffu),
        "count");
  for (int q = 1; q <= 9; ++q) {
    auto it = sum.query_self_s.find(q);
    Tracer::LayerSeconds zero{};
    const Tracer::LayerSeconds& s = it != sum.query_self_s.end() ? it->second : zero;
    auto wall = sum.query_wall_s.find(q);
    std::string p = "q" + std::to_string(q) + ".";
    m.Add(p + "wall_s",
          wall != sum.query_wall_s.end() ? wall->second / n : 0.0, "s");
    m.Add(p + "xml_s", s[static_cast<size_t>(Layer::kXml)] / n, "s");
    m.Add(p + "pipeline_s", s[static_cast<size_t>(Layer::kPipeline)] / n,
          "s");
    m.Add(p + "display_s",
          (s[static_cast<size_t>(Layer::kDisplayApply)] +
           s[static_cast<size_t>(Layer::kDisplayRender)]) / n,
          "s");
  }
  PrintResult(checks, m);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <table2|retro|fleet> "
                 "--seed <n> --seconds <s> --trace <0|1>\n",
                 argv[0]);
    return 2;
  }
  std::unique_ptr<Workload> w = MakeWorkload(args.workload, args.seed, 1.0);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  const Provenance& prov = w->provenance();
  std::printf("inputs: workload=%s seed=%llu bytes=%llu events=%llu "
              "updates=%llu digest=%016llx\n",
              args.workload.c_str(), static_cast<unsigned long long>(prov.seed),
              static_cast<unsigned long long>(prov.bytes),
              static_cast<unsigned long long>(prov.events),
              static_cast<unsigned long long>(prov.updates),
              static_cast<unsigned long long>(prov.digest));
  std::fflush(stdout);
  return args.trace == 1 ? RunTraced(args, w.get()) : RunTimed(args, w.get());
}
