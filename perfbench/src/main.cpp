// mapa_perfbench: the allocator benchmark. One process, one dispatch thread:
//
//   mapa_perfbench --workload <paper-sweep|fleet-churn|daemon-mixed>
//                  --seed <n> --seconds <s> --trace <0|1> [--tiny]
//   mapa_perfbench --self-test
//
// Prints progress lines, a records digest, and as its LAST line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Exits
// non-zero when any output check fails.

#include <cmath>
#include <cstdio>
#include <iostream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "svc/wire.hpp"

namespace {

using perfbench::Outcome;
using perfbench::Report;

using Spec = std::pair<std::string, std::string>;  // metric name, unit

const std::vector<Spec>& end_to_end_specs() {
  static const std::vector<Spec> specs = {
      {"setup_s", "s"},          {"ops_per_s", "1/s"},
      {"peak_rss_mb", "MB"},     {"ok_frac", "ratio"},
      {"exec_p75_s", "sim_s"},   {"exec_max_s", "sim_s"},
      {"latency_p50_us", "us"},  {"latency_p99_us", "us"},
  };
  return specs;
}

// Every workload reports every per-layer metric; a layer it does not
// exercise reads 0.
const std::vector<Spec>& per_layer_specs() {
  static const std::vector<Spec> specs = [] {
    std::vector<Spec> s = {
        {"workload.generate_ms", "ms"},
        {"sim.busy_s.baseline", "s"},
        {"sim.busy_s.topo-aware", "s"},
        {"sim.busy_s.greedy", "s"},
        {"sim.busy_s.preserve", "s"},
        {"sim.run_ms.p50", "ms"},
        {"sim.run_ms.p99", "ms"},
        {"policy.decision_share", "ratio"},
        {"cache.hits", "count"},
        {"cache.misses", "count"},
        {"cache.delta_hits", "count"},
        {"cache.hit_ratio", "ratio"},
        {"cluster.construct_ms", "ms"},
        {"cluster.warmup_s", "s"},
        {"cluster.step_us.p50", "us"},
        {"cluster.step_us.p99", "us"},
        {"cluster.ticks", "count"},
        {"cluster.dispatch_share", "ratio"},
        {"cluster.probes", "count"},
        {"cluster.memo_hit_ratio", "ratio"},
        {"cluster.probes_per_placement", "ratio"},
        {"fault.events", "count"},
        {"fault.kills", "count"},
        {"fault.forks", "count"},
        {"fault.rejoins", "count"},
        {"fault.requeues", "count"},
        {"fault.dead_letters", "count"},
        {"wire.encode_us", "us"},
        {"wire.decode_us", "us"},
        {"svc.ingest_us.p50", "us"},
        {"svc.ingest_us.p99", "us"},
        {"svc.poll_us.p50", "us"},
        {"svc.poll_us.p99", "us"},
        {"svc.batch", "count"},
        {"svc.queue_wait_us", "us"},
        {"cluster.ticks_per_poll", "count"},
    };
    for (int code = 1; code <= static_cast<int>(mapa::svc::ErrorCode::kCancelled);
         ++code) {
      s.emplace_back(std::string("svc.errors.") +
                         mapa::svc::to_string(
                             static_cast<mapa::svc::ErrorCode>(code)),
                     "count");
    }
    s.emplace_back("latency.samples", "count");
    s.emplace_back("trace_overhead", "ratio");
    return s;
  }();
  return specs;
}

/// The metrics object; throws on a metric outside `specs`, a missing
/// required one, or a value JSON cannot carry.
std::string metrics_json(const Report& report, const std::vector<Spec>& specs,
                         bool all_required) {
  for (const auto& [name, value] : report) {
    bool known = false;
    for (const Spec& spec : specs) known = known || spec.first == name;
    if (!known) throw std::logic_error("unlisted metric " + name);
  }
  std::ostringstream out;
  out.precision(std::numeric_limits<double>::max_digits10);
  out << '{';
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto& [name, unit] = specs[i];
    const auto it = report.find(name);
    if (it == report.end() && all_required) {
      throw std::logic_error("missing metric " + name);
    }
    const double value = it == report.end() ? 0.0 : it->second;
    if (!std::isfinite(value)) {
      throw std::logic_error("non-finite metric " + name);
    }
    out << (i == 0 ? "" : ", ") << '"' << name << "\": {\"value\": " << value
        << ", \"unit\": \"" << unit << "\"}";
  }
  out << '}';
  return out.str();
}

int usage(const std::string& problem) {
  std::cerr << "mapa_perfbench: " << problem
            << "\nusage: mapa_perfbench --workload <paper-sweep|fleet-churn|"
               "daemon-mixed> --seed <n> --seconds <s> --trace <0|1> "
               "[--tiny]\n       mapa_perfbench --self-test\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  std::string workload;
  bool self_test = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--workload") {
        workload = value();
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
      } else if (arg == "--trace") {
        const std::string t = value();
        if (t != "0" && t != "1") throw std::invalid_argument("--trace 0|1");
        options.trace = t == "1";
      } else if (arg == "--tiny") {
        options.tiny = true;
      } else if (arg == "--self-test") {
        self_test = true;
      } else {
        throw std::invalid_argument("unknown argument " + arg);
      }
    }
  } catch (const std::exception& e) {
    return usage(e.what());
  }
  if (self_test) {
    const int failures = perfbench::self_test();
    std::cout << "self-test: " << (failures == 0 ? "ok" : "FAILED") << "\n";
    return failures == 0 ? 0 : 1;
  }
  if (!(options.seconds > 0.0 && options.seconds <= 600.0)) {
    return usage("--seconds must be in (0, 600]");
  }

  Outcome outcome;
  try {
    if (workload == "paper-sweep") {
      outcome = perfbench::run_paper_sweep(options);
    } else if (workload == "fleet-churn") {
      outcome = perfbench::run_fleet_churn(options);
    } else if (workload == "daemon-mixed") {
      outcome = perfbench::run_daemon_mixed(options);
    } else {
      return usage("unknown workload '" + workload + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "mapa_perfbench: " << workload << " threw: " << e.what()
              << "\n";
    return 1;
  }

  std::string metrics;
  try {
    metrics = options.trace
                  ? metrics_json(outcome.per_layer, per_layer_specs(), false)
                  : metrics_json(outcome.end_to_end, end_to_end_specs(), true);
  } catch (const std::logic_error& e) {
    std::cerr << "mapa_perfbench: " << e.what() << "\n";
    return 3;
  }
  char digest[32];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(outcome.digest));
  std::cout << "digest " << workload << ' ' << digest << "\n";
  const bool correct = outcome.violations == 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << outcome.attempted
            << ", \"failed\": " << outcome.failed
            << ", \"metrics\": " << metrics << "}" << std::endl;
  return correct ? 0 : 1;
}
