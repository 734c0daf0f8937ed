#pragma once

// The traced run's layer measurements: the seeded stream replayed
// in-process through the public functions of svc, alloc, utility, aa,
// support and obs, each call wrapped in a span, and the per-layer ledger
// that splits the end-to-end medians into layer shares plus an explicit
// unattributed remainder.

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "metrics.hpp"
#include "workload.hpp"

namespace perfbench {

/// Spans kept in memory and written at the end as Chrome trace_event
/// JSON (loadable in Perfetto). A span's parent is the request span of
/// the same tag.
class SpanLog {
 public:
  static constexpr std::size_t kMaxSpans = 400000;

  /// Returns the span's id (0 when the log is full).
  std::uint64_t add(const std::string& name, int track, double start_us,
                    double dur_us, const std::string& tag,
                    std::uint64_t parent = 0);
  void write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    int track;
    double start_us;
    double dur_us;
    std::string tag;
    std::uint64_t parent;
  };
  std::vector<Span> spans_;
};

/// A request line of the end-to-end run with the reply aa_serve sent.
struct Sample {
  Kind kind = Kind::kSolve;
  std::string line;
  std::string reply;
};

/// What the ledger needs from the untraced end-to-end phase.
struct EndToEnd {
  double req_p50_ms = 0.0;
  double solve_p50_ms = 0.0;
  std::map<Kind, double> traffic;     ///< Share of requests per kind.
  /// Shares among the requests around the median round trip.
  std::map<Kind, double> median_mix;
  std::vector<Sample> samples;      ///< A few per kind.
};

/// Replays setup plus the stream's first requests (as many as fit in
/// `budget_s` of the first pass) in-process, fills the per-layer values
/// and prints the ledger to `out`.
void replay_layers(const WorkloadConfig& config, std::uint64_t seed,
                   double budget_s, const EndToEnd& e2e, SpanLog& spans,
                   Values& values, std::ostream& out);

}  // namespace perfbench
