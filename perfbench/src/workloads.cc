#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <string_view>
#include <thread>
#include <utility>

#include "core/region_document.h"
#include "core/result_display.h"
#include "inputs.h"
#include "xml/sax_parser.h"
#include "xquery/engine.h"
#include "xquery/query_server.h"

namespace perfbench {

void Checks::Expect(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  ++failures[what];
}

namespace {

using xflux::Pipeline;
using xflux::QuerySession;
using xflux::ResultDisplay;
using xflux::Status;

// Sizes.  table2 runs X (and D, 1.42x X as in the paper) at 256 KiB: Q9's
// display erase already dominates there, and a pass is short enough for
// several per run, whose medians keep the run steady.  retro and fleet run a
// dense update stream cut into steps of kStepEvents (fleet:
// kFleetStepEvents) source events, so that a pass yields thousands of chunk
// and update samples.
constexpr size_t kXmarkBytes = 256 * 1024;
constexpr double kDblpRatio = 1.42;
constexpr size_t kChunkBytes = 4096;
// Of the targeted texts, in X and in D.  The update p99 sits among the
// costliest few dozen distinct updates of a run; at 5% that was about ten,
// and it moved by 0.3 from seed to seed.
constexpr double kSparseUpdates = 0.2;
constexpr size_t kRetroBytes = 128 * 1024;
constexpr double kRetroUpdates = 1.0;
constexpr size_t kStepEvents = 64;
constexpr size_t kFleetStepEvents = 16;
// kFleetSize registrations, every kFleetStride-th query of the family.  An
// update is replayed into every member context: it costs ~0.3 ms at 15
// registrations, 1.5 ms at 30 and 5.7 ms at 100, where a pass takes tens of
// seconds (README.md).
constexpr int kFleetSize = 15;
constexpr int kFleetStride = 7;
// A fleet pass runs one of kFleetInputs documents, in turn.  The costliest
// ~1% of a document's steps are fixed by its content, so the p99s of a few
// documents move by 0.2-0.3 from seed to seed; many small documents put
// more distinct content into a run.
constexpr size_t kFleetInputs = 24;
constexpr size_t kFleetBytes = 32 * 1024;
// Fleet handles checked against the references: every third registration,
// which walks through regions, locations and fields.
constexpr int kFleetCheckStride = 3;

// Table 2 rows whose answers the engine does not keep exact under X's
// updates (README.md, "Known defects"): table2 feeds them the plain
// document, as the paper's Table 2 does, and every run probes them with the
// update stream and reports how many answers still differ from Materialize.
bool FedUpdates(const Query& q) { return q.number != 2 && q.number != 3; }

uint64_t CountUpdates(const std::vector<Step>& steps) {
  uint64_t n = 0;
  for (const Step& s : steps) n += s.update ? 1 : 0;
  return n;
}

void AddMetrics(const xflux::Metrics& m, Counters* c) {
  c->transformer_calls += static_cast<double>(m.transformer_calls());
  c->adjust_calls += static_cast<double>(m.adjust_calls());
  c->max_live_states =
      std::max(c->max_live_states, static_cast<double>(m.max_live_states()));
  c->max_buffered_bytes = std::max(c->max_buffered_bytes,
                                   static_cast<double>(m.max_buffered_bytes()));
  c->max_display_regions = std::max(
      c->max_display_regions, static_cast<double>(m.max_display_regions()));
}

void AddIngest(const xflux::SaxParser& parser, Counters* c) {
  c->xml_bytes_scanned +=
      static_cast<double>(parser.ingest_stats().bytes_scanned);
  c->xml_aliased_texts +=
      static_cast<double>(parser.ingest_stats().aliased_texts);
  c->xml_events += static_cast<double>(parser.events_emitted());
}

// Sits between a pipeline's last stage and its display in traced runs, so
// that the display's apply time is a span of its own.
class DisplayTap : public xflux::EventSink {
 public:
  DisplayTap(xflux::EventSink* display, Tracer* tracer)
      : display_(display), tracer_(tracer) {}
  void Accept(Event event) override {
    Scope s(tracer_, Layer::kDisplayApply);
    display_->Accept(std::move(event));
  }
  void AcceptBatch(EventBatch batch) override {
    Scope s(tracer_, Layer::kDisplayApply);
    display_->AcceptBatch(std::move(batch));
  }

 private:
  xflux::EventSink* display_;
  Tracer* tracer_;
};

// A session plus, in traced runs, the tap in front of its display.
struct OpenedSession {
  std::unique_ptr<QuerySession> session;
  std::unique_ptr<DisplayTap> tap;
};

OpenedSession Open(const Query& query, int threads, Tracer* tracer) {
  OpenedSession out;
  QuerySession::Options options;
  options.threads = threads;
  {
    Scope s(tracer, Layer::kCompile);
    auto session = QuerySession::Open(query.text, options);
    XFLUX_CHECK(session.ok() && "benchmark query failed to compile");
    out.session = std::move(session).value();
  }
  Pipeline* p = out.session->pipeline();
  if (tracer != nullptr && threads == 0 && p->stage_count() > 0) {
    out.tap = std::make_unique<DisplayTap>(out.session->display(), tracer);
    p->stage(p->stage_count() - 1)->SetNext(out.tap.get());
  }
  return out;
}

// Reads a finished session's answer and health into `pass`.
void Collect(int index, int number, QuerySession* session, PassResult* pass) {
  ResultDisplay* display = session->display();
  PassResult::Answer answer;
  answer.query = index;
  answer.text = display->LiveText();
  auto full = display->FullRenderText();
  answer.ok = session->status().ok() && display->render_status().ok() &&
              full.ok() && full.value() == answer.text;
  pass->answers.push_back(std::move(answer));
  pass->queries[number].state = session->metrics()->MaxApproxStateBytes();
  AddMetrics(*session->metrics(), &pass->counters);
  pass->counters.full_rescans += static_cast<double>(display->full_rescans());
}

// The parser's output on its way into the pipeline: the update injector,
// if any, rewrites each run, then the pipeline takes it as one batch.
class FeedSink : public xflux::EventSink {
 public:
  FeedSink(Pipeline* pipeline, UpdateInjector* injector, Tracer* tracer,
           Layer push_layer)
      : pipeline_(pipeline),
        injector_(injector),
        tracer_(tracer),
        push_layer_(push_layer) {}
  void Accept(Event event) override {
    EventBatch batch;
    batch.push_back(std::move(event));
    AcceptBatch(std::move(batch));
  }
  void AcceptBatch(EventBatch batch) override {
    if (injector_ != nullptr) {
      Scope s(tracer_, Layer::kInject);
      batch = injector_->Rewrite(std::move(batch));
    }
    Scope s(tracer_, push_layer_);
    pipeline_->PushBatch(std::move(batch));
  }

 private:
  Pipeline* pipeline_;
  UpdateInjector* injector_;
  Tracer* tracer_;
  Layer push_layer_;
};

// Feeds one document live: sS, the XML in kChunkBytes chunks through a
// SaxParser whose output passes `inject` (null: none), each due update as
// its own batch, eS.  Serial sessions re-render the answer after every chunk
// and update, and those are the latency samples in `run`; a threaded
// session's answer is defined only after Finish, so its samples end when the
// push returns.  Returns the query's seconds, from sS in to the final answer.
double FeedLive(const std::string& xml, UpdateInjector* inject,
                QuerySession* session, bool threaded, Tracer* t,
                QueryRun* run, Counters* counters) {
  Pipeline* p = session->pipeline();
  ResultDisplay* display = session->display();
  const Layer push = threaded ? Layer::kParallelPush : Layer::kPipeline;
  FeedSink sink(p, inject, t, push);
  xflux::SaxParser::Options parse;
  parse.emit_stream_brackets = false;
  parse.errors = p->context()->errors();
  xflux::SaxParser parser(parse, &sink);

  auto push_one = [&](EventBatch batch) {
    Scope s(t, push);
    p->PushBatch(std::move(batch));
  };
  auto refresh = [&] {
    if (threaded) return;
    Scope s(t, Layer::kDisplayRender);
    (void)display->LiveText();
  };
  std::vector<Step> due;
  auto push_due = [&](bool all) {
    if (inject == nullptr) return;
    inject->TakeDue(all, &due);
    for (Step& update : due) {
      int64_t u0 = NowNs();
      push_one(std::move(update.events));
      push_one(std::move(update.freezes));
      refresh();
      run->update_us.push_back((NowNs() - u0) * 1e-3);
    }
    due.clear();
  };

  const int64_t start = NowNs();
  push_one({Event::StartStream(0)});
  std::string_view doc(xml);
  Status status;
  for (size_t off = 0; off < doc.size() && status.ok(); off += kChunkBytes) {
    int64_t c0 = NowNs();
    {
      Scope s(t, Layer::kXml);
      status = parser.Feed(doc.substr(off, kChunkBytes));
    }
    refresh();
    run->chunk_ms.push_back((NowNs() - c0) * 1e-6);
    push_due(false);
  }
  if (status.ok()) {
    Scope s(t, Layer::kXml);
    status = parser.Finish();
  }
  push_due(true);
  push_one({Event::EndStream(0)});
  if (threaded) {
    Scope s(t, Layer::kParallelFinish);
    p->Finish();
  }
  {
    Scope s(t, Layer::kDisplayRender);
    (void)display->LiveText();
  }
  double seconds = SecondsSince(start);
  AddIngest(parser, counters);
  if (!status.ok()) {
    // Surfaces as a failed answer check: the session status is folded in.
    session->pipeline()->context()->ReportError(status);
  }
  return seconds;
}

// Pushes a pre-built update stream step by step into `push` (an update's
// replacement, then its freezes), re-rendering through `refresh` after each
// step; data steps are chunk samples, update steps update samples, both
// kept in `run`.  Returns the seconds from the first push to the last
// refresh.
template <typename PushFn, typename RefreshFn>
double PushSteps(std::vector<Step> steps, PushFn push, RefreshFn refresh,
                 QueryRun* run) {
  const int64_t start = NowNs();
  for (Step& step : steps) {
    int64_t s0 = NowNs();
    push(std::move(step.events));
    if (step.update) push(std::move(step.freezes));
    refresh();
    double ns = static_cast<double>(NowNs() - s0);
    if (step.update) {
      run->update_us.push_back(ns * 1e-3);
    } else {
      run->chunk_ms.push_back(ns * 1e-6);
    }
  }
  return SecondsSince(start);
}

// The answer of `query` in a fresh session on `threads` worker threads (0:
// serial) whose pipeline `feed` pushes the input into; *ok turns false when
// the session fails.
template <typename FeedFn>
std::string SessionAnswer(const Query& query, FeedFn feed, bool* ok,
                          int threads = 0) {
  QuerySession::Options options;
  options.threads = threads;
  auto session = QuerySession::Open(query.text, options);
  if (!session.ok()) {
    *ok = false;
    return "";
  }
  feed(session.value()->pipeline());
  (void)session.value()->Finish();
  auto text = session.value()->CurrentText();
  *ok = *ok && session.value()->status().ok() && text.ok();
  return text.ok() ? text.value() : "";
}

// ... over `events` pushed whole, in one call.
std::string WholeAnswer(const Query& query, const EventVec& events,
                        bool* ok) {
  return SessionAnswer(
      query, [&](Pipeline* p) { p->PushAll(events); }, ok);
}

// ... over `events` pushed one Push at a time, which is what PushBatch
// promises to equal.
std::string PerEventAnswer(const Query& query, const EventVec& events,
                           bool* ok) {
  return SessionAnswer(
      query,
      [&](Pipeline* p) {
        for (const Event& e : events) p->Push(e);
      },
      ok);
}

// ... over `steps`, each pushed as its own batch: what the fleet's server
// receives.  With `joined`, an update's freezes travel in the batch of its
// replacement instead of a batch of their own.
std::string StepsAnswer(const Query& query, const std::vector<Step>& steps,
                        bool* ok, bool joined = false, int threads = 0) {
  return SessionAnswer(
      query,
      [&](Pipeline* p) {
        for (const Step& step : steps) {
          if (step.update && joined) {
            EventBatch batch = step.events;
            batch.insert(batch.end(), step.freezes.begin(), step.freezes.end());
            p->PushBatch(std::move(batch));
            continue;
          }
          p->PushBatch(step.events);
          if (step.update) p->PushBatch(step.freezes);
        }
      },
      ok, threads);
}

// The paper's exactness oracle: the stream with every update applied
// eagerly (Materialize), re-bracketed in sS/eS (Materialize renders the
// content only) to be queried as a plain stream.
EventVec Materialized(const EventVec& events, bool* ok) {
  auto plain = xflux::Materialize(events);
  *ok = plain.ok();
  EventVec out;
  if (!plain.ok()) return out;
  out.reserve(plain.value().size() + 2);
  out.push_back(Event::StartStream(0));
  out.insert(out.end(), plain.value().begin(), plain.value().end());
  out.push_back(Event::EndStream(0));
  return out;
}

Provenance MakeProvenance(uint64_t seed,
                          const std::vector<const std::string*>& docs,
                          const std::vector<const EventVec*>& streams,
                          uint64_t updates) {
  Provenance p;
  p.seed = seed;
  p.updates = updates;
  p.digest = Fnv1a("");
  for (const std::string* doc : docs) {
    p.bytes += doc->size();
    p.digest = Fnv1a(*doc, p.digest);
  }
  for (const EventVec* events : streams) {
    p.events += events->size();
    p.digest = DigestEvents(*events, p.digest);
  }
  return p;
}

int ParallelThreads() {
  // The feeder thread plus the workers use every core.
  int cores = static_cast<int>(std::thread::hardware_concurrency());
  return std::max(1, cores - 1);
}

// ---------------------------------------------------------------------------
// table2: the live chunked feed of generated X and D.

class Table2Workload : public Workload {
 public:
  Table2Workload(uint64_t seed, double scale) : seed_(seed) {
    size_t x_bytes = static_cast<size_t>(kXmarkBytes * scale);
    x_ = MakeDoc(MakeXmark(seed, x_bytes), false);
    d_ = MakeDoc(MakeDblp(seed + 1, static_cast<size_t>(x_bytes * kDblpRatio)),
                 true);
    provenance_ = MakeProvenance(seed, {&x_.xml, &d_.xml},
                                 {&x_.updated, &d_.updated},
                                 CountUpdates(x_.steps) + CountUpdates(d_.steps));
  }

  const Provenance& provenance() const override { return provenance_; }

  double SetUpOnce() override {
    std::vector<std::unique_ptr<QuerySession>> sessions;
    const int64_t start = NowNs();
    for (const Query& q : Table2Queries()) {
      sessions.push_back(Open(q, 0, nullptr).session);
    }
    return SecondsSince(start);
  }

  PassResult RunPass(Tracer* t, size_t input) override {
    (void)input;
    return Pass(Table2Queries(), t, 0, true);
  }

  void Check(const PassResult& pass, Checks* checks) override {
    BuildReferences();
    for (const PassResult::Answer& a : pass.answers) {
      std::string name = "Q" + std::to_string(Table2Queries()[a.query].number);
      checks->Expect(a.ok, name + ": status OK and live render == full");
      checks->Expect(a.text == per_event_[a.query],
                     name + ": chunked answer == per-event answer");
      checks->Expect(materialized_ok_[a.query] &&
                         a.text == materialized_[a.query],
                     name + ": answer == answer on Materialize(stream)");
    }
  }

  KnownDefects ProbeKnownDefects() override {
    KnownDefects out;
    bool plain_ok = true;
    const EventVec plain = Materialized(x_.updated, &plain_ok);
    auto probe = [&](const Query& q, bool joined, int threads,
                     const std::string& what) {
      bool ok = plain_ok;
      const std::string got = StepsAnswer(q, x_.steps, &ok, joined, threads);
      const std::string want = WholeAnswer(q, plain, &ok);
      ++out.probes;
      if (!ok || got != want) out.failing.push_back(what);
    };
    probe(Table2Queries()[0], true, 0,
          "Q1 with freezes in the replacement's batch");
    for (const Query& q : Table2Queries()) {
      const std::string name = "Q" + std::to_string(q.number);
      if (!FedUpdates(q)) probe(q, false, 0, name + " under X's updates");
    }
    for (int number : {1, 7}) {
      probe(Table2Queries()[number - 1], false, ParallelThreads(),
            "Q" + std::to_string(number) + " threaded under X's updates");
    }
    return out;
  }

  ParallelProbe RunParallelProbe(Tracer* t, Checks* checks) override {
    const int threads = ParallelThreads();
    // Without updates: threaded answers under X's updates differ from the
    // serial ones (README.md, "Known defects").
    PassResult serial = Pass(ParallelQueries(), nullptr, 0, false);
    PassResult threaded = Pass(ParallelQueries(), t, threads, false);
    ParallelProbe probe;
    probe.threads = threads;
    double serial_s = 0, threaded_s = 0;
    for (const auto& [number, run] : serial.queries) serial_s += run.seconds;
    for (const auto& [number, run] : threaded.queries) {
      threaded_s += run.seconds;
    }
    probe.speedup_vs_serial = serial_s / threaded_s;
    for (size_t i = 0; i < threaded.answers.size(); ++i) {
      const PassResult::Answer& a = threaded.answers[i];
      std::string name =
          "Q" + std::to_string(ParallelQueries()[a.query].number);
      checks->Expect(a.ok, name + " threaded: status OK");
      checks->Expect(a.text == serial.answers[i].text,
                     name + ": threaded answer == serial answer");
    }
    return probe;
  }

 private:
  // A document, and the streams the live feed reproduces, built whole: the
  // source of the provenance digest and of the reference answers.
  struct Doc {
    std::string xml;
    std::vector<Step> steps;
    EventVec updated;  // the steps flattened
    EventVec plain;    // no updates
  };

  UpdateInjector::Options Inject(bool dblp) const {
    return InjectorFor(dblp, kSparseUpdates, seed_);
  }

  Doc MakeDoc(std::string xml, bool dblp) const {
    Doc doc;
    doc.xml = std::move(xml);
    doc.steps = BuildUpdateStream(doc.xml, Inject(dblp), kStepEvents);
    doc.updated = Flatten(doc.steps);
    doc.plain = PlainStream(doc.xml);
    return doc;
  }

  // Every query of `queries` once, on `threads` worker threads (0: serial);
  // with `updates`, each query that FedUpdates names is fed its document's
  // updates.
  PassResult Pass(const std::vector<Query>& queries, Tracer* t, int threads,
                  bool updates) {
    PassResult r;
    const int64_t start = NowNs();
    Scope pass_span(t, Layer::kHarness, 0);
    for (size_t i = 0; i < queries.size(); ++i) {
      const Query& q = queries[i];
      Scope query_span(t, Layer::kHarness, q.number);
      OpenedSession opened = Open(q, threads, t);
      const std::string& xml = q.on_dblp ? d_.xml : x_.xml;
      UpdateInjector inject(Inject(q.on_dblp));
      QueryRun& run = r.queries[q.number];
      run.seconds = FeedLive(xml, updates && FedUpdates(q) ? &inject : nullptr,
                             opened.session.get(), threads > 0, t, &run,
                             &r.counters);
      run.bytes = static_cast<double>(xml.size());
      Collect(static_cast<int>(i), q.number, opened.session.get(), &r);
      run.scale = AfterQuery();
      Scope teardown(t, Layer::kTeardown);
      opened.session.reset();
    }
    r.wall_s = SecondsSince(start);
    return r;
  }

  // The chunked feed is compared with the same stream pushed one event at
  // a time and with the answer on the materialized stream.
  void BuildReferences() {
    if (!per_event_.empty()) return;
    bool x_ok = true, d_ok = true;
    const EventVec x_materialized = Materialized(x_.updated, &x_ok);
    const EventVec d_materialized = Materialized(d_.updated, &d_ok);
    for (const Query& q : Table2Queries()) {
      const Doc& doc = q.on_dblp ? d_ : x_;
      const bool updates = FedUpdates(q);
      bool ok = !updates || (q.on_dblp ? d_ok : x_ok);
      materialized_.push_back(WholeAnswer(
          q, !updates ? doc.plain : q.on_dblp ? d_materialized : x_materialized,
          &ok));
      materialized_ok_.push_back(ok);
      bool per_event_ok = true;
      std::string text =
          PerEventAnswer(q, updates ? doc.updated : doc.plain, &per_event_ok);
      per_event_.push_back(per_event_ok ? text : "(per-event run failed)");
    }
  }

  uint64_t seed_;
  Doc x_, d_;
  Provenance provenance_;
  std::vector<std::string> per_event_, materialized_;
  std::vector<bool> materialized_ok_;
};

// ---------------------------------------------------------------------------
// retro: three serial sessions over the pre-tokenized update stream.

// A generated X document pre-tokenized into a dense update stream.
struct UpdateStream {
  std::string doc;
  std::vector<Step> steps;
  EventVec events;  // the steps flattened
};

UpdateStream MakeUpdateStream(uint64_t seed, size_t bytes,
                              size_t step_events) {
  UpdateStream out;
  out.doc = MakeXmark(seed, bytes);
  out.steps = BuildUpdateStream(
      out.doc, InjectorFor(false, kRetroUpdates, seed), step_events);
  out.events = Flatten(out.steps);
  return out;
}

class RetroWorkload : public Workload {
 public:
  RetroWorkload(uint64_t seed, double scale)
      : stream_(MakeUpdateStream(
            seed, static_cast<size_t>(kRetroBytes * scale), kStepEvents)),
        provenance_(MakeProvenance(seed, {&stream_.doc}, {&stream_.events},
                                   CountUpdates(stream_.steps))) {}

  const Provenance& provenance() const override { return provenance_; }

  double SetUpOnce() override {
    std::vector<std::unique_ptr<QuerySession>> sessions;
    const int64_t start = NowNs();
    for (const Query& q : RetroQueries()) {
      sessions.push_back(Open(q, 0, nullptr).session);
    }
    return SecondsSince(start);
  }

  PassResult RunPass(Tracer* t, size_t input) override {
    (void)input;
    PassResult r;
    const int64_t start = NowNs();
    Scope pass_span(t, Layer::kHarness, 0);
    for (size_t i = 0; i < RetroQueries().size(); ++i) {
      const Query& q = RetroQueries()[i];
      Scope query_span(t, Layer::kHarness, q.number);
      OpenedSession opened = Open(q, 0, t);
      Pipeline* p = opened.session->pipeline();
      ResultDisplay* display = opened.session->display();
      QueryRun& run = r.queries[q.number];
      run.seconds = PushSteps(
          stream_.steps,
          [&](EventBatch batch) {
            Scope s(t, Layer::kPipeline);
            p->PushBatch(std::move(batch));
          },
          [&] {
            Scope s(t, Layer::kDisplayRender);
            (void)display->LiveText();
          },
          &run);
      run.bytes = static_cast<double>(provenance_.bytes);
      Collect(static_cast<int>(i), q.number, opened.session.get(), &r);
      run.scale = AfterQuery();
      Scope teardown(t, Layer::kTeardown);
      opened.session.reset();
    }
    r.wall_s = SecondsSince(start);
    return r;
  }

  void Check(const PassResult& pass, Checks* checks) override {
    if (reference_.empty()) {
      bool plain_ok = true;
      EventVec plain = Materialized(stream_.events, &plain_ok);
      for (const Query& q : RetroQueries()) {
        bool ok = plain_ok;
        reference_.push_back(WholeAnswer(q, plain, &ok));
        reference_ok_.push_back(ok);
      }
    }
    for (const PassResult::Answer& a : pass.answers) {
      std::string name = "Q" + std::to_string(RetroQueries()[a.query].number);
      checks->Expect(a.ok, name + ": status OK and live render == full");
      checks->Expect(reference_ok_[a.query] && a.text == reference_[a.query],
                     name + ": answer == answer on Materialize(stream)");
    }
  }

 private:
  UpdateStream stream_;
  Provenance provenance_;
  std::vector<std::string> reference_;
  std::vector<bool> reference_ok_;
};

// ---------------------------------------------------------------------------
// fleet: kFleetSize registrations of the 300-query family in one server.

class FleetWorkload : public Workload {
 public:
  FleetWorkload(uint64_t seed, double scale) : family_(FleetFamily()) {
    std::vector<const std::string*> docs;
    std::vector<const EventVec*> streams;
    uint64_t updates = 0;
    inputs_.reserve(kFleetInputs);
    for (size_t k = 0; k < kFleetInputs; ++k) {
      inputs_.push_back(MakeUpdateStream(
          seed * kFleetInputs + k, static_cast<size_t>(kFleetBytes * scale),
          kFleetStepEvents));
      docs.push_back(&inputs_.back().doc);
      streams.push_back(&inputs_.back().events);
      updates += CountUpdates(inputs_.back().steps);
    }
    provenance_ = MakeProvenance(seed, docs, streams, updates);
  }

  const Provenance& provenance() const override { return provenance_; }
  size_t input_count() const override { return inputs_.size(); }

  // Replaying every update into every member context is bound by memory
  // more than table2's work is; across runs fleet slowed by the probe's
  // slowdown to the power 1.5-2.2.
  double host_exponent() const override { return 1.75; }

  double SetUpOnce() override {
    const int64_t start = NowNs();
    std::unique_ptr<xflux::QueryServer> server = Register(nullptr);
    return SecondsSince(start);
  }

  PassResult RunPass(Tracer* t, size_t input_index) override {
    PassResult r;
    r.input = input_index;
    const UpdateStream& input = inputs_[r.input];
    const int64_t start = NowNs();
    Scope pass_span(t, Layer::kHarness, 0);
    std::unique_ptr<xflux::QueryServer> server = Register(t);
    // Answers are current once PushBatch returns; the final answers are
    // rendered once, after the last step, inside the clock.
    const int64_t clock = NowNs();
    QueryRun& run = r.queries[0];
    PushSteps(
        input.steps,
        [&](EventBatch batch) {
          Scope s(t, Layer::kServerPush);
          server->PushBatch(std::move(batch));
        },
        [] {}, &run);
    {
      Scope s(t, Layer::kDisplayRender);
      for (size_t i = 0; i < server->query_count(); ++i) {
        (void)server->handle(i)->display()->LiveText();
      }
    }
    run.seconds = SecondsSince(clock);
    run.bytes = static_cast<double>(input.doc.size());
    run.scale = AfterQuery();
    xflux::Metrics metrics = server->AggregateMetrics();
    run.state = metrics.MaxApproxStateBytes();
    AddMetrics(metrics, &r.counters);
    for (size_t i = 0; i < server->query_count(); ++i) {
      r.counters.full_rescans +=
          static_cast<double>(server->handle(i)->display()->full_rescans());
    }
    auto sharing = server->sharing();
    r.counters.prefix_nodes = static_cast<double>(sharing.prefix_nodes);
    r.counters.hit_ratio = sharing.HitRatio();
    for (size_t i = 0; i < server->query_count(); i += kFleetCheckStride) {
      xflux::QueryHandle* h = server->handle(i);
      PassResult::Answer answer;
      answer.query = static_cast<int>(i);
      answer.text = h->display()->LiveText();
      answer.ok = server->status().ok() && h->status().ok() &&
                  h->display()->render_status().ok();
      r.answers.push_back(std::move(answer));
    }
    {
      Scope s(t, Layer::kTeardown);
      server.reset();
    }
    r.wall_s = SecondsSince(start);
    return r;
  }

  void Check(const PassResult& pass, Checks* checks) override {
    const UpdateStream& input = inputs_[pass.input];
    bool plain_ok = true;
    EventVec plain;
    for (const PassResult::Answer& a : pass.answers) {
      const size_t index = (a.query * kFleetStride) % family_.size();
      const std::string& text = family_[index];
      Query q{0, text.c_str(), false};
      Reference& ref = references_[{pass.input, index}];
      if (!ref.built) {
        if (plain.empty()) plain = Materialized(input.events, &plain_ok);
        ref.built = true;
        ref.ok = plain_ok;
        ref.session = StepsAnswer(q, input.steps, &ref.ok);
        ref.materialized = WholeAnswer(q, plain, &ref.ok);
      }
      std::string name = "fleet handle " + std::to_string(a.query);
      checks->Expect(a.ok, name + ": status OK");
      checks->Expect(ref.ok && a.text == ref.materialized,
                     name + ": answer == answer on Materialize(stream)");
      checks->Expect(ref.ok && a.text == ref.session,
                     name + ": answer == standalone QuerySession answer");
    }
  }

 private:
  std::unique_ptr<xflux::QueryServer> Register(Tracer* t) {
    auto server = std::make_unique<xflux::QueryServer>();
    for (int i = 0; i < kFleetSize; ++i) {
      Scope s(t, Layer::kRegister);
      auto handle =
          server->Register(family_[(i * kFleetStride) % family_.size()]);
      XFLUX_CHECK(handle.ok() && "fleet query failed to register");
    }
    return server;
  }

  struct Reference {
    bool built = false;
    bool ok = true;
    std::string session;
    std::string materialized;
  };

  std::vector<std::string> family_;
  std::vector<UpdateStream> inputs_;
  Provenance provenance_;
  // By (input, family index).
  std::map<std::pair<size_t, size_t>, Reference> references_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       double scale) {
  if (name == "table2") return std::make_unique<Table2Workload>(seed, scale);
  if (name == "retro") return std::make_unique<RetroWorkload>(seed, scale);
  if (name == "fleet") return std::make_unique<FleetWorkload>(seed, scale);
  return nullptr;
}

}  // namespace perfbench
