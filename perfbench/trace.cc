#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/json.h"

namespace perfbench {

namespace {

/// Length of the union of `intervals`, each clipped to [lo, hi].
Clock::duration UnionLength(
    std::vector<std::pair<Clock::time_point, Clock::time_point>> intervals,
    Clock::time_point lo, Clock::time_point hi) {
  std::sort(intervals.begin(), intervals.end());
  Clock::duration total{0};
  Clock::time_point reach = lo;
  for (auto [s, e] : intervals) {
    s = std::max(s, reach);
    e = std::min(e, hi);
    if (e <= s) continue;
    total += e - s;
    reach = e;
  }
  return total;
}

/// Microseconds with nanosecond digits (Chrome's "ts"/"dur" unit), so
/// that nested events stay nested after formatting.
std::string Micros(Clock::duration d) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", Seconds(d) * 1e6);
  return buf;
}

}  // namespace

Tracer::Scope::Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (!tracer_->enabled_) return;
  const Clock::time_point now = Clock::now();
  id_ = tracer_->Add(name, tracer_->current(), /*query=*/0, now, now);
  tracer_->open_.push_back(id_);
}

Tracer::Scope::~Scope() {
  if (id_ == 0) return;
  tracer_->spans_[static_cast<size_t>(id_ - 1)].end = Clock::now();
  tracer_->open_.pop_back();
}

int64_t Tracer::Add(const std::string& name, int64_t parent, int64_t query,
                    Clock::time_point start, Clock::time_point end) {
  if (!enabled_) return 0;
  Span span;
  span.id = static_cast<int64_t>(spans_.size()) + 1;
  span.parent = parent;
  span.query = query;
  span.name = name;
  span.start = start;
  span.end = end;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

const Span* Tracer::Find(int64_t id) const {
  if (id <= 0 || id > static_cast<int64_t>(spans_.size())) return nullptr;
  return &spans_[static_cast<size_t>(id - 1)];
}

int64_t Tracer::CountBadNesting() const {
  int64_t bad = 0;
  for (const Span& s : spans_) {
    if (s.end < s.start) {
      ++bad;
      continue;
    }
    const Span* p = Find(s.parent);
    if (s.parent != 0 &&
        (p == nullptr || s.start < p->start || s.end > p->end)) {
      ++bad;
    }
  }
  return bad;
}

std::map<std::string, double> Tracer::SelfSeconds() const {
  std::vector<std::vector<std::pair<Clock::time_point, Clock::time_point>>>
      children(spans_.size());
  for (const Span& s : spans_) {
    if (Find(s.parent) != nullptr) {
      children[static_cast<size_t>(s.parent - 1)].emplace_back(s.start, s.end);
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    self[s.name] += Seconds((s.end - s.start) -
                            UnionLength(children[i], s.start, s.end));
  }
  return self;
}

double Tracer::Coverage(int64_t root) const {
  const Span* r = Find(root);
  if (r == nullptr || r->end <= r->start) return 0.0;
  std::vector<std::pair<Clock::time_point, Clock::time_point>> children;
  for (const Span& s : spans_) {
    if (s.parent == root) children.emplace_back(s.start, s.end);
  }
  return Seconds(UnionLength(std::move(children), r->start, r->end)) /
         Seconds(r->end - r->start);
}

std::string Tracer::ToChromeJson() const {
  // Chrome nests the events of one "tid" by time. Scope spans nest on the
  // driving thread (tid 1); served queries overlap each other, so each
  // gets a tid of its own.
  std::vector<std::string> events;
  events.reserve(spans_.size());
  for (const Span& s : spans_) {
    ariadne::json::JsonObject args;
    args.Set("id", s.id).Set("parent", s.parent).Set("query", s.query);
    ariadne::json::JsonObject event;
    event.Set("name", s.name)
        .Set("ph", "X")
        .SetRaw("ts", Micros(s.start - origin_))
        .SetRaw("dur", Micros(s.end - s.start))
        .Set("pid", 1)
        .Set("tid", s.query + 1)
        .SetRaw("args", args.Dump());
    events.push_back(event.Dump());
  }
  ariadne::json::JsonObject top;
  top.SetRaw("traceEvents", ariadne::json::JsonArray(events, 1))
      .Set("displayTimeUnit", "ms");
  return top.Dump();
}

}  // namespace perfbench
