// fleet-churn: 1000 DGX-1V servers stamped from one shared archetype
// (so they share one match cache), 32 shards, least-loaded selection
// (every placement probes its whole shard), the enumerating preserve
// policy and one dispatch thread. The job stream is the fleet-scale
// Poisson trace and a seeded chaos schedule (per-server MTBF 5000 s)
// crashes servers, drops GPUs and cuts links throughout it, all driven
// through the tick API (start/submit/step/finish). This load lives in the
// cluster dispatcher (probe fan-out, cross-tick memo, shard routing) and
// the fault path (forks, private caches, kills); its match cache mostly
// hits, the opposite of paper-sweep.
//
// Set-up is real and large here: a cold fleet's first placements fill the
// cache and memo. It is timed up to Size::warmup_placements placements and
// the measured phase is the steady state after it.

#include <algorithm>
#include <cmath>
#include <iostream>
#include <memory>
#include <vector>

#include "bench.hpp"
#include "cluster/chaos.hpp"
#include "cluster/fleet.hpp"
#include "graph/topology.hpp"
#include "workload/generator.hpp"

namespace perfbench {

namespace {

using namespace mapa;

// Steady-state placements per second of --seconds; measured on a 4-vCPU
// x86 VM with one dispatch thread.
constexpr double kPlacementsPerSecond = 8000.0;
constexpr double kPerServerMtbfS = 5000.0;
constexpr int kSetupRepeats = 3;
constexpr std::size_t kExecBlock = 300;  // records per exec-time sample

struct Size {
  std::size_t servers = 1000;
  std::size_t shards = 32;
  std::size_t jobs_per_server = 0;
  std::size_t warmup_placements = 1000;
  std::size_t chunk = 1000;  // placements per throughput/latency sample
};

/// A fleet that has been built, fed the whole trace and warmed up.
struct WarmFleet {
  std::unique_ptr<cluster::FleetSimulator> fleet;
  std::vector<workload::Job> jobs;
  std::size_t fault_events = 0;
  double generate_s = 0.0;
  double construct_s = 0.0;
  double warmup_s = 0.0;
  double total_s = 0.0;
  std::vector<std::size_t> unplaceable;  // indices into submitted jobs
};

WarmFleet set_up(std::uint64_t seed, const Size& size) {
  WarmFleet w;
  const auto start = Clock::now();
  w.jobs = workload::generate_fleet_trace(workload::fleet_scale_trace_config(
      size.servers, size.jobs_per_server, seed));
  cluster::FleetArchetype arch;
  arch.name = "dgx1v";
  arch.topology = graph::TopologyHandle(graph::dgx1_v100());
  arch.policy = "preserve";
  std::vector<cluster::ServerSpec> specs =
      cluster::archetype_fleet_specs(size.servers, {arch});
  workload::ChaosTraceConfig chaos = workload::chaos_trace_config(
      size.servers, kPerServerMtbfS, mix_seed(seed, 1));
  chaos.horizon_s = w.jobs.back().arrival_time_s;
  cluster::ClusterConfig config;
  config.selection = "least-loaded";
  config.shards = size.shards;
  config.threads = 1;
  config.seed = seed;
  config.events = cluster::generate_fault_schedule(chaos, specs);
  w.fault_events = config.events.size();
  w.generate_s = seconds_since(start);

  const auto construct_start = Clock::now();
  w.fleet = std::make_unique<cluster::FleetSimulator>(std::move(specs),
                                                      std::move(config));
  w.construct_s = seconds_since(construct_start);

  const auto warmup_start = Clock::now();
  cluster::FleetSimulator::StepOptions step_options;
  step_options.collect_unplaceable = true;
  step_options.expected_jobs = w.jobs.size();
  w.fleet->start(step_options);
  for (const workload::Job& job : w.jobs) w.fleet->submit(job);
  while (w.fleet->partial_result().records.size() < size.warmup_placements &&
         w.fleet->step()) {
  }
  w.unplaceable = w.fleet->take_unplaceable();
  w.warmup_s = seconds_since(warmup_start);
  w.total_s = seconds_since(start);
  return w;
}

/// Everything the measured phase observed.
struct Pass {
  std::vector<double> chunk_rates;   // placements/s of untraced chunks
  std::vector<double> traced_rates;  // placements/s of traced chunks
  std::vector<double> decision_us;   // steady-state placements, in order
  std::vector<double> step_us;       // steps of traced chunks
  double traced_dispatch_ms = 0.0;   // dispatch time within those steps
  double steady_s = 0.0;
  std::size_t steady_placements = 0;
  std::size_t placements = 0;        // whole session, killed ones included
  std::uint64_t ticks = 0;
  cluster::FleetResult result;
  std::uint64_t failed = 0;
  std::uint64_t violations = 0;
  std::uint64_t digest = 0;
};

/// Steps the warmed fleet to idle, finishes the session and checks it.
/// With `trace`, every other chunk of placements is traced (each step
/// timed), so traced and untraced chunks see the same host conditions.
Pass measure(WarmFleet& w, const Size& size, bool trace) {
  Pass pass;
  pass.decision_us.reserve(w.jobs.size());
  if (trace) pass.step_us.reserve(2 * w.jobs.size());
  cluster::FleetSimulator& fleet = *w.fleet;
  const std::size_t placed0 = fleet.partial_result().records.size();
  std::size_t mark_n = placed0;
  const auto start = Clock::now();
  auto mark_t = start;
  bool traced = false;
  bool live = true;
  while (live) {
    if (traced) {
      const double sched0 = fleet.partial_result().total_scheduling_ms;
      const auto step_start = Clock::now();
      live = fleet.step();
      pass.step_us.push_back(seconds_since(step_start) * 1e6);
      pass.traced_dispatch_ms +=
          fleet.partial_result().total_scheduling_ms - sched0;
    } else {
      live = fleet.step();
    }
    const std::size_t n = fleet.partial_result().records.size();
    if (n - mark_n >= size.chunk) {
      const auto now = Clock::now();
      (traced ? pass.traced_rates : pass.chunk_rates)
          .push_back(static_cast<double>(n - mark_n) /
                     std::chrono::duration<double>(now - mark_t).count());
      mark_n = n;
      mark_t = now;
      traced = trace && !traced;
    }
  }
  pass.steady_s = seconds_since(start);

  const cluster::FleetResult& partial = fleet.partial_result();
  pass.placements = partial.records.size();
  pass.steady_placements = pass.placements - placed0;
  pass.ticks = fleet.ticks();
  for (std::size_t i = placed0; i < partial.records.size(); ++i) {
    pass.decision_us.push_back(
        partial.records[i].record.scheduling_overhead_ms * 1000.0);
  }
  std::vector<std::size_t> unplaceable = fleet.take_unplaceable();
  unplaceable.insert(unplaceable.end(), w.unplaceable.begin(),
                     w.unplaceable.end());
  std::vector<int> unplaceable_ids;
  for (const std::size_t ji : unplaceable) {
    unplaceable_ids.push_back(fleet.submitted_jobs()[ji].id);
  }
  pass.result = fleet.finish();

  // Output checks on the final (compacted) records.
  Checker checker("fleet-churn");
  Digest digest;
  std::vector<int> submitted;
  std::vector<int> placed;
  std::vector<int> dead;
  std::vector<Placement> placements;
  for (const workload::Job& job : w.jobs) submitted.push_back(job.id);
  for (const cluster::FleetRecord& fr : pass.result.records) {
    const sim::JobRecord& r = fr.record;
    placed.push_back(r.job.id);
    if (r.gpus.size() != r.job.num_gpus) {
      checker.fail("job " + std::to_string(r.job.id) +
                   " got the wrong GPU count");
    }
    placements.push_back(
        Placement{r.job.id, fr.server, r.gpus, r.start_s, r.finish_s});
    digest.add(r.job.id);
    digest.add(fr.server);
    for (const auto g : r.gpus) digest.add(g);
    digest.add(r.start_s);
    digest.add(r.finish_s);
  }
  for (const cluster::DeadLetter& dl : pass.result.dead_letters) {
    dead.push_back(dl.job.id);
    digest.add(dl.job.id);
  }
  checker.check_accounting(submitted, placed, dead, unplaceable_ids);
  checker.check_no_double_booking(placements,
                                  graph::dgx1_v100().num_vertices());
  pass.digest = digest.value();
  pass.violations = checker.violations();
  pass.failed = dead.size() + unplaceable_ids.size() + pass.violations;
  return pass;
}

}  // namespace

Outcome run_fleet_churn(const Options& options) {
  Size size;
  if (options.tiny) {
    size = Size{32, 4, 10, 50, 50};
  } else {
    size.jobs_per_server = static_cast<std::size_t>(std::ceil(
        (static_cast<double>(size.warmup_placements) +
         options.seconds * kPlacementsPerSecond) /
        static_cast<double>(size.servers)));
  }

  std::vector<double> setup_s, generate_ms, construct_ms, warmup_s;
  WarmFleet warm;
  for (int i = 0; i < kSetupRepeats; ++i) {
    warm = WarmFleet{};  // free the previous fleet before building the next
    warm = set_up(options.seed, size);
    setup_s.push_back(warm.total_s);
    generate_ms.push_back(warm.generate_s * 1000.0);
    construct_ms.push_back(warm.construct_s * 1000.0);
    warmup_s.push_back(warm.warmup_s);
  }
  const Pass pass = measure(warm, size, options.trace);

  Outcome out;
  out.attempted = warm.jobs.size();
  out.failed = pass.failed;
  out.violations = pass.violations;
  out.digest = pass.digest;
  std::cout << "fleet-churn: " << size.servers << " servers, "
            << out.attempted << " jobs, " << warm.fault_events
            << " fault events, " << pass.steady_placements
            << " steady placements in " << pass.steady_s << " s ("
            << pass.chunk_rates.size() + pass.traced_rates.size()
            << " chunks of " << size.chunk << ")\n";

  if (!options.trace) {
    std::vector<double> exec_s;
    for (const cluster::FleetRecord& fr : pass.result.records) {
      exec_s.push_back(fr.record.exec_s);
    }
    Report& e2e = out.end_to_end;
    e2e["setup_s"] = median(setup_s);
    e2e["ops_per_s"] = median(pass.chunk_rates);
    e2e["peak_rss_mb"] = peak_rss_mb();
    e2e["ok_frac"] = 1.0 - static_cast<double>(out.failed) /
                               static_cast<double>(out.attempted);
    // Percentiles per block of work, then summarised over blocks, so one
    // straggler job or one host stall moves a single block only.
    e2e["exec_p75_s"] = mean(block_quantiles(exec_s, kExecBlock, 0.75));
    e2e["exec_max_s"] = mean(block_quantiles(exec_s, kExecBlock, 1.0));
    e2e["latency_p50_us"] =
        median(block_quantiles(pass.decision_us, size.chunk, 0.50));
    e2e["latency_p99_us"] =
        median(block_quantiles(pass.decision_us, size.chunk, 0.99));
    return out;
  }

  const cluster::FleetResult& r = pass.result;
  std::uint64_t hits = 0, misses = 0, delta_hits = 0, probes = 0, memo = 0;
  for (const cluster::ServerResult& sr : r.servers) {
    hits += sr.match_cache_hits;
    misses += sr.match_cache_misses;
    delta_hits += sr.match_cache_delta_hits;
    probes += sr.probes;
    memo += sr.probe_memo_hits;
  }
  double step_total_us = 0.0;
  for (const double us : pass.step_us) step_total_us += us;

  Report& layer = out.per_layer;
  layer["workload.generate_ms"] = median(generate_ms);
  layer["cache.hits"] = static_cast<double>(hits);
  layer["cache.misses"] = static_cast<double>(misses);
  layer["cache.delta_hits"] = static_cast<double>(delta_hits);
  layer["cache.hit_ratio"] = ratio(static_cast<double>(hits),
                                   static_cast<double>(hits + misses +
                                                       delta_hits));
  layer["cluster.construct_ms"] = median(construct_ms);
  layer["cluster.warmup_s"] = median(warmup_s);
  layer["cluster.step_us.p50"] = percentile(pass.step_us, 0.50);
  layer["cluster.step_us.p99"] = percentile(pass.step_us, 0.99);
  layer["cluster.ticks"] = static_cast<double>(pass.ticks);
  layer["cluster.dispatch_share"] =
      ratio(pass.traced_dispatch_ms * 1000.0, step_total_us);
  layer["cluster.probes"] = static_cast<double>(probes);
  layer["cluster.memo_hit_ratio"] =
      ratio(static_cast<double>(memo), static_cast<double>(probes + memo));
  layer["cluster.probes_per_placement"] =
      ratio(static_cast<double>(probes), static_cast<double>(pass.placements));
  layer["fault.events"] = static_cast<double>(warm.fault_events);
  layer["fault.kills"] = static_cast<double>(r.resilience.jobs_killed);
  layer["fault.forks"] = static_cast<double>(r.resilience.topology_forks);
  layer["fault.rejoins"] = static_cast<double>(r.resilience.archetype_rejoins);
  layer["fault.requeues"] = static_cast<double>(r.resilience.jobs_requeued);
  layer["fault.dead_letters"] =
      static_cast<double>(r.resilience.jobs_dead_lettered);
  layer["latency.samples"] = static_cast<double>(pass.decision_us.size());
  layer["trace_overhead"] =
      ratio(median(pass.traced_rates), median(pass.chunk_rates));
  return out;
}

}  // namespace perfbench
