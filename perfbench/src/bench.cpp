#include "bench.hpp"

#include <algorithm>
#include <fstream>
#include <iostream>
#include <map>
#include <span>
#include <tuple>

#include "util/stats.hpp"

namespace perfbench {

void Digest::add_bytes(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    state_ ^= bytes[i];
    state_ *= 0x100000001b3ULL;
  }
}

void Checker::fail(const std::string& what) {
  if (violations_ < 5) {
    std::cerr << "CHECK FAILED [" << scope_ << "]: " << what << "\n";
  }
  ++violations_;
}

void Checker::check_accounting(const std::vector<int>& submitted,
                               const std::vector<int>& placed,
                               const std::vector<int>& dead,
                               const std::vector<int>& unplaceable) {
  std::map<int, int> seen;  // submitted id -> outcomes recorded
  for (const int id : submitted) {
    if (!seen.emplace(id, 0).second) {
      fail("job " + std::to_string(id) + " submitted twice");
    }
  }
  for (const auto* outcomes : {&placed, &dead, &unplaceable}) {
    for (const int id : *outcomes) {
      const auto it = seen.find(id);
      if (it == seen.end()) {
        fail("job " + std::to_string(id) + " has an outcome but was never "
             "submitted");
        continue;
      }
      ++it->second;
    }
  }
  for (const auto& [id, count] : seen) {
    if (count != 1) {
      fail("job " + std::to_string(id) + " has " + std::to_string(count) +
           " outcomes, want exactly 1");
    }
  }
}

void Checker::check_no_double_booking(const std::vector<Placement>& placements,
                                      std::size_t gpus_per_server) {
  struct Hold {
    std::size_t server;
    mapa::graph::VertexId gpu;
    double start_s;
    double finish_s;
    int job;
  };
  std::vector<Hold> holds;
  for (const Placement& p : placements) {
    if (!(p.finish_s >= p.start_s)) {
      fail("job " + std::to_string(p.job) + " finishes before it starts");
    }
    std::vector<mapa::graph::VertexId> gpus = p.gpus;
    std::sort(gpus.begin(), gpus.end());
    if (std::adjacent_find(gpus.begin(), gpus.end()) != gpus.end() ||
        (!gpus.empty() && gpus.back() >= gpus_per_server)) {
      fail("job " + std::to_string(p.job) +
           " holds a repeated or out-of-range GPU");
    }
    for (const auto g : gpus) {
      holds.push_back(Hold{p.server, g, p.start_s, p.finish_s, p.job});
    }
  }
  std::sort(holds.begin(), holds.end(), [](const Hold& a, const Hold& b) {
    return std::tie(a.server, a.gpu, a.start_s, a.finish_s) <
           std::tie(b.server, b.gpu, b.start_s, b.finish_s);
  });
  for (std::size_t i = 1; i < holds.size(); ++i) {
    const Hold& prev = holds[i - 1];
    const Hold& cur = holds[i];
    if (prev.server == cur.server && prev.gpu == cur.gpu &&
        cur.start_s < prev.finish_s) {
      fail("server " + std::to_string(cur.server) + " GPU " +
           std::to_string(cur.gpu) + " double-booked by jobs " +
           std::to_string(prev.job) + " and " + std::to_string(cur.job));
    }
  }
}

double percentile(const std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  return mapa::util::quantile(values, q);
}

double median(const std::vector<double>& values) {
  return percentile(values, 0.5);
}

std::vector<double> block_quantiles(const std::vector<double>& values,
                                    std::size_t block, double q) {
  std::vector<double> out;
  for (std::size_t start = 0; start < values.size(); start += block) {
    const std::size_t end = std::min(values.size(), start + block);
    if (end - start < block && start > 0) break;
    out.push_back(mapa::util::quantile(
        std::span<const double>(values.data() + start, end - start), q));
  }
  return out;
}

double mean(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return values.empty() ? 0.0 : total / static_cast<double>(values.size());
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(1 << 12, '\n');
  }
  return 0.0;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

int self_test() {
  int failures = 0;
  const auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      std::cerr << "SELF-TEST FAILED: " << what << "\n";
      ++failures;
    }
  };

  // Two jobs on server 0; job 2 starts on GPU 3 while job 1 still holds it.
  const std::vector<Placement> double_booked = {
      {1, 0, {2, 3}, 0.0, 10.0},
      {2, 0, {3, 4}, 5.0, 12.0},
  };
  // Same GPUs, but back-to-back (job 2 starts as job 1 finishes), and a
  // third job on another server's GPU 3 at the same time.
  const std::vector<Placement> clean = {
      {1, 0, {2, 3}, 0.0, 10.0},
      {2, 0, {3, 4}, 10.0, 12.0},
      {3, 1, {3}, 5.0, 12.0},
  };

  Checker booked("self-test/double-booked");
  booked.check_no_double_booking(double_booked, 8);
  expect(booked.violations() == 1, "double-booked GPU not flagged once");

  Checker ok("self-test/clean");
  ok.check_no_double_booking(clean, 8);
  ok.check_accounting({1, 2, 3}, {1, 2}, {3}, {});
  expect(ok.violations() == 0, "clean record set flagged");

  Checker range("self-test/range");
  range.check_no_double_booking({{1, 0, {8}, 0.0, 1.0}}, 8);
  expect(range.violations() == 1, "out-of-range GPU not flagged");

  Checker missing("self-test/missing");
  missing.check_accounting({1, 2, 3}, {1, 1, 2}, {}, {});
  expect(missing.violations() == 2,
         "double placement and missing job not both flagged");

  Checker stranger("self-test/stranger");
  stranger.check_accounting({1}, {1, 7}, {}, {});
  expect(stranger.violations() == 1, "outcome for unsubmitted job not flagged");

  return failures;
}

}  // namespace perfbench
