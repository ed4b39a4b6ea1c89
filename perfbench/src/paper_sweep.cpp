// paper-sweep: the paper's §4 experiment. Every job file is 300 jobs of
// 1-5 GPUs from the uniform nine-workload mix, all queued at t=0, and runs
// through sim::run_simulation under the four paper policies on DGX-1V and
// on the two 16-GPU topologies of Fig. 18 (Torus-2d, Cube-mesh). This
// load lives in policy/match/score: on the 16-GPU machines preserve and
// greedy mostly miss the match cache and enumerate, so it is the
// counterweight to fleet-churn, where the same cache mostly hits.

#include <cmath>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "graph/topology.hpp"
#include "policy/match_cache.hpp"
#include "policy/policy.hpp"
#include "sim/engine.hpp"
#include "workload/generator.hpp"
#include "workload/jobfile.hpp"

namespace perfbench {

namespace {

using namespace mapa;

// Job files simulated per second of --seconds; measured on a 4-vCPU x86
// VM (about 110 ms per file for its 12 simulations).
constexpr double kFilesPerSecond = 9.0;
constexpr std::size_t kJobsPerFile = 300;
constexpr int kSetupRepeats = 11;

/// The benchmark's input: one job-file text per file, from the seed.
std::vector<std::string> generate_job_files(std::uint64_t seed,
                                            std::size_t files) {
  std::vector<std::string> texts;
  texts.reserve(files);
  for (std::size_t f = 0; f < files; ++f) {
    workload::GeneratorConfig config;
    config.num_jobs = kJobsPerFile;
    config.seed = mix_seed(seed, f);
    texts.push_back(
        workload::serialize_job_file(workload::generate_jobs(config)));
  }
  return texts;
}

/// Everything the run observed.
struct Pass {
  std::vector<double> file_rates;   // jobs/s of each job file
  std::vector<double> decision_us;  // per placed job, file after file
  std::vector<double> preserve_exec_s;  // preserve runs, run after run
  std::uint64_t attempted = 0;
  std::uint64_t unplaced = 0;
  std::uint64_t violations = 0;
  Digest digest;
  // Traced runs only.
  std::vector<double> overhead;  // traced over untraced rate, per file
  Digest traced_digest;
  std::map<std::string, double> busy_s;  // per policy
  std::vector<double> run_ms;
  double decision_ms = 0.0;
  policy::MatchCacheStats cache;
};

void check_result(const sim::SimResult& result,
                  const std::vector<workload::Job>& jobs, std::size_t gpus,
                  Checker& checker, Digest& digest) {
  std::vector<int> submitted;
  std::vector<int> placed;
  std::vector<Placement> placements;
  for (const workload::Job& job : jobs) submitted.push_back(job.id);
  for (const sim::JobRecord& r : result.records) {
    placed.push_back(r.job.id);
    if (r.gpus.size() != r.job.num_gpus) {
      checker.fail("job " + std::to_string(r.job.id) +
                   " got the wrong GPU count");
    }
    placements.push_back(Placement{r.job.id, 0, r.gpus, r.start_s,
                                   r.finish_s});
    digest.add(r.job.id);
    for (const auto g : r.gpus) digest.add(g);
    digest.add(r.start_s);
    digest.add(r.finish_s);
  }
  checker.check_accounting(submitted, placed, {}, {});
  checker.check_no_double_booking(placements, gpus);
}

/// Simulates one job file under every (machine, policy) pair and returns
/// its rate in jobs/s. Untraced, it goes through sim::run_simulation and
/// keeps the end-to-end samples; traced, it times each simulation and
/// owns the match cache so the per-layer counts can be read.
double simulate_file(const std::vector<graph::Graph>& machines,
                     const std::vector<workload::Job>& jobs, bool traced,
                     Checker& checker, Pass& pass) {
  const auto file_start = Clock::now();
  std::size_t simulated = 0;
  for (const graph::Graph& hardware : machines) {
    for (const std::string& name : policy::paper_policy_names()) {
      sim::SimResult result;
      if (!traced) {
        result = sim::run_simulation(hardware, name, jobs);
        for (const sim::JobRecord& r : result.records) {
          pass.decision_us.push_back(r.scheduling_overhead_ms * 1000.0);
          if (name == "preserve") pass.preserve_exec_s.push_back(r.exec_s);
        }
      } else {
        // run_simulation, unrolled so the benchmark owns the match cache.
        auto cache = std::make_shared<policy::MatchCache>();
        auto chosen = policy::make_policy(name);
        chosen->set_match_cache(cache);
        sim::SimConfig config;
        config.use_match_cache = false;
        sim::Simulator simulator(hardware, std::move(chosen), config);
        const auto run_start = Clock::now();
        result = simulator.run(jobs);
        const double run_s = seconds_since(run_start);
        pass.busy_s[name] += run_s;
        pass.run_ms.push_back(run_s * 1000.0);
        pass.decision_ms += result.total_scheduling_ms;
        const policy::MatchCacheStats s = cache->stats();
        pass.cache.hits += s.hits;
        pass.cache.misses += s.misses;
        pass.cache.delta_hits += s.delta_hits;
      }
      simulated += jobs.size();
      pass.attempted += jobs.size();
      pass.unplaced +=
          jobs.size() - std::min(jobs.size(), result.records.size());
      check_result(result, jobs, hardware.num_vertices(), checker,
                   traced ? pass.traced_digest : pass.digest);
    }
  }
  return static_cast<double>(simulated) / seconds_since(file_start);
}

/// With `trace`, each job file is simulated twice, untraced and then
/// traced, so the overhead is measured on the same input under the same
/// host conditions.
Pass run_pass(const std::vector<graph::Graph>& machines,
              const std::vector<std::vector<workload::Job>>& files,
              bool trace) {
  Pass pass;
  pass.decision_us.reserve(files.size() * machines.size() *
                           policy::paper_policy_names().size() *
                           kJobsPerFile);
  Checker checker("paper-sweep");
  for (const auto& jobs : files) {
    const double rate = simulate_file(machines, jobs, false, checker, pass);
    pass.file_rates.push_back(rate);
    if (trace) {
      pass.overhead.push_back(
          simulate_file(machines, jobs, true, checker, pass) / rate);
    }
  }
  if (trace && pass.traced_digest.value() != pass.digest.value()) {
    checker.fail("traced records differ from untraced records");
  }
  pass.violations = checker.violations();
  return pass;
}

}  // namespace

Outcome run_paper_sweep(const Options& options) {
  // A traced run simulates every file twice, so it takes half the files.
  const double seconds = options.trace ? options.seconds / 2 : options.seconds;
  const std::size_t files =
      options.tiny ? 2
                   : static_cast<std::size_t>(
                         std::max(1.0, std::round(seconds * kFilesPerSecond)));
  const std::size_t runs_per_file = 3 * policy::paper_policy_names().size();

  // Set-up: write every job file of the run and parse it back, as the
  // simulation framework reads its input. It takes about 0.15 s and single
  // repetitions swing by a third on a shared host, so it is repeated and
  // the median reported.
  std::vector<double> setup_s;
  std::vector<double> generate_ms;
  std::vector<std::vector<workload::Job>> job_files;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto start = Clock::now();
    const std::vector<std::string> texts =
        generate_job_files(options.seed, files);
    generate_ms.push_back(seconds_since(start) * 1000.0);
    job_files.clear();
    for (const std::string& text : texts) {
      job_files.push_back(workload::parse_job_file_string(text));
    }
    setup_s.push_back(seconds_since(start));
  }
  const std::vector<graph::Graph> machines = {
      graph::dgx1_v100(), graph::torus2d_16(), graph::cubemesh_16()};

  const Pass pass = run_pass(machines, job_files, options.trace);
  Outcome out;
  out.attempted = pass.attempted;
  out.failed = pass.unplaced + pass.violations;
  out.violations = pass.violations;
  out.digest = pass.digest.value();
  const std::size_t per_file = kJobsPerFile * runs_per_file;
  std::cout << "paper-sweep: " << files << " job files x " << runs_per_file
            << " simulations; " << pass.decision_us.size()
            << " decision-latency samples, " << per_file << " per file\n";

  if (!options.trace) {
    // Per-file latency percentiles and per-run execution-time statistics:
    // the job file is the paper's unit of experiment, and a few heavy
    // files would otherwise decide a pooled tail.
    Report& e2e = out.end_to_end;
    e2e["setup_s"] = median(setup_s);
    e2e["ops_per_s"] = median(pass.file_rates);
    e2e["peak_rss_mb"] = peak_rss_mb();
    e2e["ok_frac"] = 1.0 - static_cast<double>(out.failed) /
                               static_cast<double>(out.attempted);
    e2e["exec_p75_s"] =
        mean(block_quantiles(pass.preserve_exec_s, kJobsPerFile, 0.75));
    e2e["exec_max_s"] =
        mean(block_quantiles(pass.preserve_exec_s, kJobsPerFile, 1.0));
    e2e["latency_p50_us"] =
        median(block_quantiles(pass.decision_us, per_file, 0.50));
    e2e["latency_p99_us"] =
        median(block_quantiles(pass.decision_us, per_file, 0.99));
    return out;
  }

  Report& layer = out.per_layer;
  layer["workload.generate_ms"] = median(generate_ms);
  for (const auto& [name, busy] : pass.busy_s) {
    layer["sim.busy_s." + name] = busy;
  }
  layer["sim.run_ms.p50"] = percentile(pass.run_ms, 0.50);
  layer["sim.run_ms.p99"] = percentile(pass.run_ms, 0.99);
  double run_ms_total = 0.0;
  for (const double ms : pass.run_ms) run_ms_total += ms;
  layer["policy.decision_share"] = ratio(pass.decision_ms, run_ms_total);
  const policy::MatchCacheStats& c = pass.cache;
  layer["cache.hits"] = static_cast<double>(c.hits);
  layer["cache.misses"] = static_cast<double>(c.misses);
  layer["cache.delta_hits"] = static_cast<double>(c.delta_hits);
  layer["cache.hit_ratio"] =
      ratio(static_cast<double>(c.hits),
            static_cast<double>(c.hits + c.misses + c.delta_hits));
  layer["latency.samples"] = static_cast<double>(pass.decision_us.size());
  layer["trace_overhead"] = median(pass.overhead);
  return out;
}

}  // namespace perfbench
