#include "inputs.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "core/pipeline.h"
#include "data/generators.h"
#include "util/check.h"
#include "xml/sax_parser.h"

namespace perfbench {

const std::vector<Query>& Table2Queries() {
  static const std::vector<Query> queries = {
      {1, "X//europe//item[location=\"Albania\"]/quantity", false},
      {2, "X//item[location=\"Albania\"][payment=\"Cash\"]/location", false},
      {3, "X//*[location=\"Albania\"]/quantity", false},
      {4, "count(X//item[location=\"Albania\"]/..)", false},
      {5, "count(X//item[location=\"Albania\"]/ancestor::europe)", false},
      {6, "count(X//item[location=\"Albania\"]/ancestor::*//location)", false},
      {7,
       "<result>{ for $c in X//item where $c/location = \"Albania\" "
       "return <item>{ $c/quantity, $c/payment }</item> }</result>",
       false},
      {8, "D//inproceedings[author=\"John Smith\"]/title", true},
      {9,
       "for $d in D//inproceedings where contains($d/author,\"Smith\") "
       "order by $d/year "
       "return ($d/year/text(),\": \",$d/title/text(),\"\\n\")",
       true},
  };
  return queries;
}

namespace {

std::vector<Query> Pick(std::initializer_list<int> numbers) {
  std::vector<Query> out;
  for (int n : numbers) out.push_back(Table2Queries()[n - 1]);
  return out;
}

}  // namespace

const std::vector<Query>& RetroQueries() {
  static const std::vector<Query> queries = Pick({1, 4, 7});
  return queries;
}

const std::vector<Query>& ParallelQueries() {
  static const std::vector<Query> queries = Pick({1, 2, 3, 5, 7});
  return queries;
}

std::vector<std::string> FleetFamily() {
  const char* regions[] = {"africa",   "asia",     "australia",
                           "europe",   "namerica", "samerica"};
  const char* locations[] = {"United States", "Germany", "France", "Japan",
                             "Brazil",        "Kenya",   "India",  "Albania",
                             "Iceland",       "Peru"};
  const char* fields[] = {"location", "quantity", "name", "payment",
                          "shipping"};
  std::vector<std::string> family;
  for (const char* region : regions) {
    for (const char* loc : locations) {
      for (const char* field : fields) {
        family.push_back(std::string("X//") + region + "//item[location=\"" +
                         loc + "\"]/" + field);
      }
    }
  }
  return family;
}

std::string MakeXmark(uint64_t seed, size_t bytes) {
  return xflux::GenerateXmark(xflux::XmarkOptionsForBytes(bytes, seed));
}

std::string MakeDblp(uint64_t seed, size_t bytes) {
  return xflux::GenerateDblp(xflux::DblpOptionsForBytes(bytes, seed));
}

UpdateInjector::UpdateInjector(Options options)
    : options_(std::move(options)), prng_(options_.seed), next_id_(1000) {
  for (const Target& target : options_.targets) {
    tags_.push_back(xflux::InternTag(target.tag));
    replacements_.emplace_back();
    for (const std::string& text : target.replacements) {
      replacements_.back().push_back(xflux::TextRef::Copy(text));
    }
  }
}

EventBatch UpdateInjector::Rewrite(EventBatch in) {
  using xflux::EventKind;
  EventBatch out;  // filled only once a text is wrapped
  bool wrapped = false;
  for (size_t i = 0; i < in.size(); ++i) {
    Event& e = in[i];
    ++events_seen_;
    if (e.kind == EventKind::kStartElement) {
      auto it = std::find(tags_.begin(), tags_.end(), e.tag);
      open_target_ = it == tags_.end() ? -1 : static_cast<int>(it - tags_.begin());
    } else if (e.kind == EventKind::kEndElement) {
      open_target_ = -1;
    } else if (open_target_ >= 0 && e.kind == EventKind::kCharacters &&
               prng_.Chance(options_.fraction) &&
               next_id_ + 2 < xflux::kDefaultFirstDynamicId) {
      if (!wrapped) {
        wrapped = true;
        out.reserve(in.size() + 16);
        out.insert(out.end(), std::make_move_iterator(in.begin()),
                   std::make_move_iterator(in.begin() + static_cast<long>(i)));
      }
      const std::vector<xflux::TextRef>& texts = replacements_[open_target_];
      StreamId region = next_id_;
      next_id_ += 2;  // region + 1 is its replacement
      pending_.push_back({events_seen_ + options_.lag_events, region,
                          &texts[prng_.Uniform(texts.size())]});
      out.push_back(Event::StartMutable(0, region));
      e.id = region;
      out.push_back(std::move(e));
      out.push_back(Event::EndMutable(0, region));
      continue;
    }
    if (wrapped) out.push_back(std::move(e));
  }
  if (!wrapped) return in;
  return out;
}

void UpdateInjector::TakeDue(bool all, std::vector<Step>* out) {
  while (pending_head_ < pending_.size() &&
         (all || pending_[pending_head_].due_at <= events_seen_)) {
    const Pending& p = pending_[pending_head_++];
    StreamId fresh = p.region + 1;
    Step update;
    update.update = true;
    update.events.reserve(3);
    update.events.push_back(Event::StartReplace(p.region, fresh));
    update.events.push_back(Event::Characters(fresh, *p.replacement));
    update.events.push_back(Event::EndReplace(p.region, fresh));
    update.freezes.reserve(2);
    update.freezes.push_back(Event::Freeze(fresh));
    update.freezes.push_back(Event::Freeze(p.region));
    out->push_back(std::move(update));
  }
  if (pending_head_ == pending_.size()) {
    pending_.clear();
    pending_head_ = 0;
  }
}

UpdateInjector::Options InjectorFor(bool dblp, double fraction,
                                    uint64_t seed) {
  UpdateInjector::Options options;
  options.fraction = fraction;
  options.lag_events = 256;
  options.seed = seed * 0x9E3779B97F4A7C15ull + (dblp ? 2 : 1);
  if (dblp) {
    options.targets = {{"author", {"John Smith", "Mary Smith", "Ann Jones"}}};
  } else {
    options.targets = {
        {"location", {"Albania", "Norway"}},
        {"quantity", {"1", "9"}},
        {"payment", {"Cash", "Creditcard"}},
        {"name", {"gold ring", "silver lamp"}},
        {"shipping", {"Will ship internationally", "Buyer pays"}}};
  }
  return options;
}

std::vector<Step> BuildUpdateStream(const std::string& xml,
                                    const UpdateInjector::Options& injector,
                                    size_t batch_events) {
  xflux::SaxParser::Options parse;
  parse.emit_stream_brackets = false;
  auto tokens = xflux::SaxParser::Tokenize(xml, parse);
  XFLUX_CHECK(tokens.ok() && "generated document failed to parse");
  const EventVec& events = tokens.value();

  UpdateInjector inject(injector);
  std::vector<Step> steps;
  steps.push_back({{Event::StartStream(0)}, {}, false});
  for (size_t i = 0; i < events.size(); i += batch_events) {
    size_t end = std::min(i + batch_events, events.size());
    EventBatch in(events.begin() + static_cast<long>(i),
                  events.begin() + static_cast<long>(end));
    steps.push_back({inject.Rewrite(std::move(in)), {}, false});
    inject.TakeDue(/*all=*/false, &steps);
  }
  inject.TakeDue(/*all=*/true, &steps);
  steps.push_back({{Event::EndStream(0)}, {}, false});
  return steps;
}

EventVec PlainStream(const std::string& xml) {
  xflux::SaxParser::Options parse;
  parse.emit_stream_brackets = false;
  auto tokens = xflux::SaxParser::Tokenize(xml, parse);
  XFLUX_CHECK(tokens.ok() && "generated document failed to parse");
  EventVec out;
  out.reserve(tokens.value().size() + 2);
  out.push_back(Event::StartStream(0));
  out.insert(out.end(), tokens.value().begin(), tokens.value().end());
  out.push_back(Event::EndStream(0));
  return out;
}

EventVec Flatten(const std::vector<Step>& steps) {
  EventVec out;
  for (const Step& s : steps) {
    out.insert(out.end(), s.events.begin(), s.events.end());
    out.insert(out.end(), s.freezes.begin(), s.freezes.end());
  }
  return out;
}

uint64_t Fnv1a(std::string_view bytes, uint64_t h) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t DigestEvents(const EventVec& events, uint64_t h) {
  for (const Event& e : events) {
    const uint32_t head[3] = {static_cast<uint32_t>(e.kind), e.id, e.uid};
    h = Fnv1a(std::string_view(reinterpret_cast<const char*>(head),
                               sizeof(head)),
              h);
    h = Fnv1a(e.tag_name(), h);
    h = Fnv1a(e.chars(), h);
  }
  return h;
}

}  // namespace perfbench
