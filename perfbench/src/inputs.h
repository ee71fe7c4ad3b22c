// Seeded inputs of the benchmark: the generated X (XMark-like) and D
// (DBLP-like) documents, the retroactive updates injected into their event
// streams, the query sets of the workloads, and the digest that lets
// two runs prove they measured the same bytes.

#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/event.h"
#include "util/prng.h"

namespace perfbench {

using xflux::Event;
using xflux::EventBatch;
using xflux::EventVec;
using xflux::StreamId;

/// One query of a workload.  `number` is its Table 2 row, which names the
/// per-query trace metrics (q<number>.*).
struct Query {
  int number;
  const char* text;
  bool on_dblp;
};

/// The paper's nine Table 2 queries (Section VII).
const std::vector<Query>& Table2Queries();
/// The retro set: a predicate path (Q1), a count over the parent axis (Q4)
/// and a FLWOR constructor (Q7).
const std::vector<Query>& RetroQueries();
/// The five multi-stage X queries of bench_parallel.
const std::vector<Query>& ParallelQueries();
/// The 300 distinct Q1-shaped queries X//<region>//item[location=<loc>]/<f>.
std::vector<std::string> FleetFamily();

/// Generated documents, sized in bytes, deterministic in the seed.
std::string MakeXmark(uint64_t seed, size_t bytes);
std::string MakeDblp(uint64_t seed, size_t bytes);

/// One step of an update stream: a run of source events, or one update
/// pushed on its own as two batches, the replacement in `events` and the
/// freezes of both regions in `freezes`.  The freezes travel apart because
/// Pipeline::PushBatch applies a batch's registry effects before it
/// dispatches the batch, so a freeze(r) in the batch of its sR(r,f) marks r
/// fixed before the replacement reaches the stages, which loses the
/// replacement (README.md, "Known defects").
struct Step {
  EventBatch events;
  EventBatch freezes;
  bool update = false;
};

/// Turns a plain event stream into an update stream, batch by batch: the
/// character data of a fraction of the target elements arrives inside a
/// mutable region sM(0,r) cD(r,...) eM(0,r), and once `lag_events` more
/// source events have passed, that region is replaced and both regions are
/// frozen (Section V):  sR(r,f) cD(f,new) eR(r,f), then freeze(f) freeze(r).
/// The choices depend only on the seed and the event sequence, never on how
/// the stream is cut into batches, so a chunked live feed and a stream
/// built whole at set-up carry the same regions and replacement texts.
class UpdateInjector {
 public:
  struct Target {
    std::string_view tag;
    std::vector<std::string> replacements;  // picked uniformly
  };
  struct Options {
    std::vector<Target> targets;
    double fraction = 0;
    uint64_t lag_events = 0;
    uint64_t seed = 0;
  };

  explicit UpdateInjector(Options options);

  /// Rewrites one run of source events.  A run in which no text is
  /// wrapped is returned as it came, without a copy.
  EventBatch Rewrite(EventBatch in);

  /// Appends to `out` one update step per update that is due (its lag has
  /// passed), or per pending update when `all` is set.
  void TakeDue(bool all, std::vector<Step>* out);

 private:
  struct Pending {
    uint64_t due_at;
    StreamId region;
    const xflux::TextRef* replacement;
  };

  Options options_;
  std::vector<xflux::Symbol> tags_;  // per target
  std::vector<std::vector<xflux::TextRef>> replacements_;  // per target
  xflux::Prng prng_;
  int open_target_ = -1;
  uint64_t events_seen_ = 0;
  StreamId next_id_;
  std::vector<Pending> pending_;  // ascending due_at
  size_t pending_head_ = 0;
};

/// Injector settings for X (the texts of location, quantity, payment, name
/// and shipping elements) or D (author texts), wrapping `fraction` of them;
/// the replacements flip the Table 2 predicates and change what the queries
/// return.
UpdateInjector::Options InjectorFor(bool dblp, double fraction,
                                    uint64_t seed);

/// Tokenizes `xml` (stream 0, no sS/eS) and cuts it into steps of
/// `batch_events` source events, with due updates between them, bracketed
/// by sS(0) ... eS(0) steps — the sequence the live chunked feed produces,
/// with batch boundaries at fixed event counts instead of byte chunks.
std::vector<Step> BuildUpdateStream(const std::string& xml,
                                    const UpdateInjector::Options& injector,
                                    size_t batch_events);

/// Tokenizes `xml` bracketed by sS(0) ... eS(0): the plain stream.
EventVec PlainStream(const std::string& xml);

/// Concatenates steps into one event vector.
EventVec Flatten(const std::vector<Step>& steps);

/// FNV-1a over bytes; DigestEvents folds an event sequence into `h`.
uint64_t Fnv1a(std::string_view bytes, uint64_t h = 1469598103934665603ull);
uint64_t DigestEvents(const EventVec& events, uint64_t h);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
