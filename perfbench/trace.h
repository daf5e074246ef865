#ifndef ARIADNE_PERFBENCH_TRACE_H_
#define ARIADNE_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// One recorded interval. `parent` is the id of the span that caused it
/// (0 = none); `query` groups the spans of one served query (0 = none).
struct Span {
  int64_t id = 0;
  int64_t parent = 0;
  int64_t query = 0;
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
};

/// In-memory span recorder for the traced run. The benchmark opens spans
/// around its own calls into the library (nothing inside the library is
/// traced). When disabled every call is a no-op, which is what the
/// untraced run uses. Single-threaded: spans are recorded from the
/// benchmark's driving thread only; served queries are recorded after
/// their responses arrive, from the times the responses carry.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// RAII span around one call; nests under the innermost open Scope.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int64_t id() const { return id_; }

   private:
    Tracer* tracer_;
    int64_t id_ = 0;
  };

  /// Records a span with explicit times (for work that ran on other
  /// threads, e.g. the server's queue wait and execution of one query).
  /// Returns its id, or 0 when disabled.
  int64_t Add(const std::string& name, int64_t parent, int64_t query,
              Clock::time_point start, Clock::time_point end);

  /// Id of the innermost open Scope (0 = none).
  int64_t current() const {
    return open_.empty() ? 0 : open_.back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Checks that every span lies inside its parent's interval; returns
  /// the number of spans that do not.
  int64_t CountBadNesting() const;

  /// Seconds of each span name's self time: its duration minus the part
  /// of it that the union of its children covers.
  std::map<std::string, double> SelfSeconds() const;

  /// Share of span `root`'s duration covered by the union of its
  /// children (1 - root self time / root duration).
  double Coverage(int64_t root) const;

  /// Chrome trace-event JSON ("X" complete events; Scope spans on tid 1,
  /// each served query's spans on a tid of its own).
  std::string ToChromeJson() const;

 private:
  const Span* Find(int64_t id) const;

  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
};

}  // namespace perfbench

#endif  // ARIADNE_PERFBENCH_TRACE_H_
