#pragma once
// Shared pieces of the allocator benchmark: run options, the metric
// report every workload fills, wall-clock helpers, the records digest,
// and the output checker that turns wrong answers into failures.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::uint64_t seed = 1;
  /// Target length of one measured pass. Every workload turns it into a
  /// FIXED amount of work through a rate constant, so the same
  /// (seed, seconds) always does the same work and gives the same counts.
  double seconds = 10.0;
  /// Trace every other unit of work and report the per-layer metrics
  /// instead of the end-to-end ones.
  bool trace = false;
  /// Shrink every workload to a few hundred operations (self-test).
  bool tiny = false;
};

/// Metric values by name; main() owns the names' units and order.
using Report = std::map<std::string, double>;

/// What a workload hands back to main().
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Output-check violations (a subset of `failed`); non-zero makes the
  /// run incorrect and the process exit non-zero.
  std::uint64_t violations = 0;
  std::uint64_t digest = 0;
  Report end_to_end;  // filled by untraced runs
  Report per_layer;   // filled by traced runs
};

/// FNV-1a over the bytes of plain values, for record digests.
class Digest {
 public:
  void add_bytes(const void* data, std::size_t size);
  template <typename T>
  void add(const T& value) {
    add_bytes(&value, sizeof(value));
  }
  std::uint64_t value() const { return state_; }

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

/// One placement as the checker sees it: `gpus` on `server` were held over
/// the simulated interval [start_s, finish_s).
struct Placement {
  int job = 0;
  std::size_t server = 0;
  std::vector<mapa::graph::VertexId> gpus;
  double start_s = 0.0;
  double finish_s = 0.0;
};

/// Collects output-check violations; prints the first few to stderr.
class Checker {
 public:
  explicit Checker(std::string scope) : scope_(std::move(scope)) {}

  void fail(const std::string& what);
  std::uint64_t violations() const { return violations_; }

  /// Every id in `submitted` must appear exactly once across `placed`,
  /// `dead` and `unplaceable`, and no other id may appear there.
  void check_accounting(const std::vector<int>& submitted,
                        const std::vector<int>& placed,
                        const std::vector<int>& dead,
                        const std::vector<int>& unplaceable);

  /// No two placements whose simulated intervals overlap may share a
  /// (server, GPU); each placement must name distinct GPUs below
  /// `gpus_per_server` and have finish_s >= start_s.
  void check_no_double_booking(const std::vector<Placement>& placements,
                               std::size_t gpus_per_server);

 private:
  std::string scope_;
  std::uint64_t violations_ = 0;
};

/// Percentile of a sample (type-7 interpolation); 0 for an empty sample.
double percentile(const std::vector<double>& values, double q);
double median(const std::vector<double>& values);
/// The q-quantile of each run of `block` consecutive values; a short tail
/// is dropped unless it is the only block.
std::vector<double> block_quantiles(const std::vector<double>& values,
                                    std::size_t block, double q);
/// num / den, or 0 when den is 0.
inline double ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}
/// Arithmetic mean; 0 for an empty sample.
double mean(const std::vector<double>& values);
/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();
/// splitmix64 finaliser, for deriving independent sub-seeds.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

Outcome run_paper_sweep(const Options& options);
Outcome run_fleet_churn(const Options& options);
Outcome run_daemon_mixed(const Options& options);

/// Checks the checker: a deliberately double-booked record set and an
/// unaccounted job must be flagged, a clean set must not. Returns the
/// number of failed self-test assertions.
int self_test();

}  // namespace perfbench
