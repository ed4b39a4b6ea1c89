// daemon-mixed: svc::AllocationService over 64 DGX-1V servers in 4
// shards, behind the full wire codec (client encode -> ingest -> poll ->
// decode_reply), with the non-enumerating topo-aware policy so the
// matcher stays out of the way. Load is a CLOSED loop: 4 connections keep
// 16 requests in flight each, about 75% allocate, 15% release of a job the
// connection already holds, 10% query, plus a stats request every 1000th
// request. Callers of an allocation daemon wait for their grant, which is
// what a closed loop models, and it makes the request sequence identical
// on every run. An open loop was rejected: on a shared VM its p99 swings
// with scheduler stalls of the host, not with the daemon.
//
// The run is split into epochs, each a fresh service fed fresh inputs, so
// the daemon's per-job bookkeeping (which never shrinks) stays bounded.
// Each epoch warms the service up before it is measured.

#include <algorithm>
#include <array>
#include <cmath>
#include <deque>
#include <iostream>
#include <unordered_map>
#include <variant>
#include <vector>

#include "bench.hpp"
#include "cluster/fleet.hpp"
#include "graph/topology.hpp"
#include "svc/service.hpp"
#include "svc/wire.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace perfbench {

namespace {

using namespace mapa;

// Measured requests per second of --seconds. With each epoch's warm-up,
// a 20-second run serves 3M requests: about 15 s on a 4-vCPU x86 VM.
constexpr double kRequestsPerSecond = 100000.0;
constexpr std::size_t kConnections = 4;
constexpr std::size_t kWindow = 16;  // requests in flight per connection
constexpr std::size_t kStatsEvery = 1000;
constexpr std::size_t kErrorCodes = 15;  // svc::ErrorCode values 0..14
constexpr std::size_t kExecBlock = 300;    // grants per exec-time sample

struct Size {
  std::size_t servers = 64;
  std::size_t shards = 4;
  std::size_t epochs = 0;
  /// Requests served before an epoch's measurement starts. A fresh
  /// daemon's ledger and record vectors regrow from empty, and their early
  /// doublings stall whole polls; a daemon that has been running a while
  /// is past them.
  std::size_t warmup_requests = 50000;
  std::size_t requests_per_epoch = 100000;  // measured
};

enum class Kind : std::uint8_t { kAllocate, kRelease, kQuery, kStats };

/// One epoch's inputs, a pure function of its seed.
struct Inputs {
  std::vector<workload::Job> jobs;  // allocate payloads, ids 1..n
  std::vector<Kind> kinds;          // intended kind of request i
  std::uint64_t pick_seed = 0;      // which submitted job a query names
};

Inputs generate_inputs(std::uint64_t seed, std::size_t requests) {
  Inputs in;
  // The fleet trace's job mix (1-5 GPUs, heavy-tailed durations); its
  // arrival times are dropped, every allocate asks to start now.
  workload::FleetTraceConfig config;
  config.num_jobs = requests;
  config.max_gpus = 5;
  config.seed = seed;
  in.jobs = workload::generate_fleet_trace(config);
  for (workload::Job& job : in.jobs) job.arrival_time_s = 0.0;
  util::Rng rng(mix_seed(seed, 1));
  in.kinds.reserve(requests);
  for (std::size_t i = 0; i < requests; ++i) {
    const double u = rng.uniform();
    Kind k = u < 0.75 ? Kind::kAllocate
                      : (u < 0.90 ? Kind::kRelease : Kind::kQuery);
    if (i % kStatsEvery == kStatsEvery - 1) k = Kind::kStats;
    in.kinds.push_back(k);
  }
  in.pick_seed = mix_seed(seed, 2);
  return in;
}

std::unique_ptr<svc::AllocationService> make_service(const Size& size,
                                                     std::uint64_t seed) {
  cluster::FleetArchetype arch;
  arch.name = "dgx1v";
  arch.topology = graph::TopologyHandle(graph::dgx1_v100());
  arch.policy = "topo-aware";
  svc::ServiceConfig config;
  config.cluster.shards = size.shards;
  config.cluster.threads = 1;
  config.cluster.seed = seed;
  return std::make_unique<svc::AllocationService>(
      cluster::archetype_fleet_specs(size.servers, {arch}), config);
}

struct InFlight {
  Clock::time_point sent;
  Kind kind = Kind::kAllocate;
  int job = 0;
  std::size_t num_gpus = 0;
};

struct Connection {
  std::uint64_t id = 0;
  std::unordered_map<std::uint64_t, InFlight> in_flight;  // by request id
  std::deque<int> held;        // granted, not yet released; oldest first
  std::vector<int> submitted;  // every job this connection allocated
};

/// Accumulates over all epochs of a run.
struct Pass {
  std::vector<double> setup_s;
  std::vector<double> generate_ms;
  std::vector<double> epoch_rates;   // answered requests/s, untraced epochs
  std::vector<double> traced_rates;  // the same for traced epochs
  std::vector<double> latency_us;    // epoch after epoch
  std::vector<double> exec_s;        // granted jobs, in reply order
  std::array<std::uint64_t, kErrorCodes> errors{};
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t violations = 0;
  std::uint64_t measured = 0;  // requests, polls and ticks after warm-up
  std::uint64_t polls = 0;
  std::uint64_t ticks = 0;
  Digest digest;
  // Traced epochs only.
  std::vector<double> encode_us, decode_us, ingest_us, poll_us;
  double queue_wait_us = 0.0;  // summed over requests
  std::uint64_t traced_requests = 0;
};

double micros(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

void run_epoch(const Size& size, std::uint64_t seed, bool traced,
               Pass& pass) {
  const std::size_t total = size.warmup_requests + size.requests_per_epoch;
  const auto setup_start = Clock::now();
  const Inputs in = generate_inputs(seed, total);
  pass.generate_ms.push_back(seconds_since(setup_start) * 1000.0);
  std::unique_ptr<svc::AllocationService> service = make_service(size, seed);

  Checker checker("daemon-mixed");
  std::vector<Connection> conns(kConnections);
  for (std::size_t c = 0; c < kConnections; ++c) conns[c].id = c + 1;
  util::Rng pick(in.pick_seed);
  std::vector<Placement> placements;
  placements.reserve(total);
  std::vector<svc::Outbound> out;
  std::vector<Clock::time_point> ingested;  // traced: per request this round
  std::size_t issued = 0;
  std::size_t next_job = 0;
  std::uint64_t next_request_id = 1;
  std::size_t answered = 0;
  std::size_t limit = size.warmup_requests;  // issue cap of this phase
  bool measuring = false;
  std::uint64_t ticks0 = 0;
  Clock::time_point loop_start;

  while (answered < total) {
    if (!measuring && answered == size.warmup_requests) {
      pass.setup_s.push_back(seconds_since(setup_start));
      measuring = true;
      limit = total;
      ticks0 = service->fleet().ticks();
      loop_start = Clock::now();
    }
    const bool timed = measuring && traced;
    // Top every connection's window up, through the client-side codec.
    for (Connection& conn : conns) {
      while (conn.in_flight.size() < kWindow && issued < limit) {
        Kind kind = in.kinds[issued++];
        if ((kind == Kind::kRelease && conn.held.empty()) ||
            (kind == Kind::kQuery && conn.submitted.empty())) {
          kind = Kind::kAllocate;
        }
        InFlight f;
        f.kind = kind;
        svc::Request request;
        request.id = next_request_id++;
        switch (kind) {
          case Kind::kAllocate: {
            const workload::Job& job = in.jobs[next_job++];
            f.job = job.id;
            f.num_gpus = job.num_gpus;
            conn.submitted.push_back(job.id);
            request.payload = svc::AllocateRequest::from_job(job);
            break;
          }
          case Kind::kRelease:
            f.job = conn.held.front();
            conn.held.pop_front();
            request.payload = svc::ReleaseRequest{f.job};
            break;
          case Kind::kQuery:
            f.job = conn.submitted[static_cast<std::size_t>(pick.uniform_int(
                0, static_cast<std::int64_t>(conn.submitted.size()) - 1))];
            request.payload = svc::QueryRequest{f.job};
            break;
          case Kind::kStats:
            request.payload = svc::StatsRequest{};
            break;
        }
        f.sent = Clock::now();
        const std::vector<std::uint8_t> frame = svc::encode(request);
        if (timed) {
          const auto encoded = Clock::now();
          pass.encode_us.push_back(micros(f.sent, encoded));
          service->ingest(conn.id, frame.data(), frame.size(), out);
          ingested.push_back(Clock::now());
          pass.ingest_us.push_back(micros(encoded, ingested.back()));
        } else {
          service->ingest(conn.id, frame.data(), frame.size(), out);
        }
        conn.in_flight.emplace(request.id, f);
      }
    }

    if (timed) {
      const auto poll_start = Clock::now();
      for (const auto t : ingested) pass.queue_wait_us += micros(t, poll_start);
      ingested.clear();
      service->poll(out);
      pass.poll_us.push_back(micros(poll_start, Clock::now()));
    } else {
      service->poll(out);
    }
    if (measuring) ++pass.polls;
    if (out.empty()) {
      checker.fail("service went idle with requests unanswered");
      break;
    }

    for (const svc::Outbound& o : out) {
      if (o.client == 0 || o.client > kConnections || o.frame.size() < 4) {
        checker.fail("reply frame without a connection or length prefix");
        continue;
      }
      const auto decode_start = timed ? Clock::now() : Clock::time_point{};
      svc::DecodedReply decoded =
          svc::decode_reply(o.frame.data() + 4, o.frame.size() - 4);
      const auto received = Clock::now();
      if (timed) pass.decode_us.push_back(micros(decode_start, received));
      Connection& conn = conns[o.client - 1];
      const svc::Reply* reply = std::get_if<svc::Reply>(&decoded);
      if (reply == nullptr) {
        checker.fail("undecodable reply frame");
        continue;
      }
      const auto it = conn.in_flight.find(reply->id);
      if (it == conn.in_flight.end()) {
        checker.fail("reply to request " + std::to_string(reply->id) +
                     " that is not in flight");
        continue;
      }
      const InFlight f = it->second;
      conn.in_flight.erase(it);
      ++answered;
      if (measuring) pass.latency_us.push_back(micros(f.sent, received));
      pass.digest.add(reply->id);
      pass.digest.add(reply->payload.index());

      if (const auto* e = std::get_if<svc::ErrorReply>(&reply->payload)) {
        ++pass.errors[std::min<std::size_t>(
            static_cast<std::size_t>(e->code), kErrorCodes - 1)];
        ++pass.failed;
        continue;
      }
      bool ok = false;
      switch (f.kind) {
        case Kind::kAllocate:
          if (const auto* a = std::get_if<svc::AllocateReply>(
                  &reply->payload)) {
            ok = a->job_id == f.job && a->gpus.size() == f.num_gpus &&
                 a->server < size.servers;
            Placement p{a->job_id, a->server, {}, a->start_s, a->finish_s};
            for (const auto g : a->gpus) {
              p.gpus.push_back(g);
              pass.digest.add(g);
            }
            pass.digest.add(a->server);
            pass.digest.add(a->start_s);
            pass.digest.add(a->finish_s);
            pass.exec_s.push_back(a->finish_s - a->start_s);
            placements.push_back(std::move(p));
            conn.held.push_back(f.job);
          }
          break;
        case Kind::kRelease:
          if (const auto* r = std::get_if<svc::ReleaseReply>(
                  &reply->payload)) {
            ok = r->job_id == f.job;
            pass.digest.add(r->outcome);
          }
          break;
        case Kind::kQuery:
          if (const auto* q = std::get_if<svc::QueryReply>(&reply->payload)) {
            ok = q->job_id == f.job;
            pass.digest.add(q->state);
          }
          break;
        case Kind::kStats:
          if (const auto* s = std::get_if<svc::StatsReply>(&reply->payload)) {
            ok = !s->json.empty() && s->json.front() == '{';
          }
          break;
      }
      if (!ok) {
        checker.fail("reply to request " + std::to_string(reply->id) +
                     " does not answer it");
      }
    }
    out.clear();
  }
  const double loop_s = seconds_since(loop_start);

  for (const Connection& conn : conns) {
    for (const auto& [id, f] : conn.in_flight) {
      checker.fail("request " + std::to_string(id) + " never answered");
    }
  }
  checker.check_no_double_booking(placements,
                                  graph::dgx1_v100().num_vertices());
  pass.ticks += service->fleet().ticks() - ticks0;
  (traced ? pass.traced_rates : pass.epoch_rates)
      .push_back(static_cast<double>(size.requests_per_epoch) / loop_s);
  if (traced) pass.traced_requests += size.requests_per_epoch;
  pass.measured += size.requests_per_epoch;
  pass.attempted += total;
  pass.failed += checker.violations();
  pass.violations += checker.violations();
}

/// With `trace`, every other epoch is traced, so traced and untraced
/// epochs see the same host conditions.
Pass run_pass(const Options& options, const Size& size) {
  // Sample buffers are sized up front so their growth never stalls a round.
  const std::size_t requests = size.epochs * size.requests_per_epoch;
  Pass pass;
  pass.latency_us.reserve(requests);
  pass.exec_s.reserve(size.epochs * (size.warmup_requests +
                                     size.requests_per_epoch));
  if (options.trace) {
    for (auto* v : {&pass.encode_us, &pass.decode_us, &pass.ingest_us}) {
      v->reserve(requests / 2 + size.requests_per_epoch);
    }
  }
  for (std::size_t e = 0; e < size.epochs; ++e) {
    run_epoch(size, mix_seed(options.seed, e), options.trace && e % 2 == 1,
              pass);
  }
  return pass;
}

}  // namespace

Outcome run_daemon_mixed(const Options& options) {
  Size size;
  if (options.tiny) {
    size = Size{8, 2, 2, 100, 500};
  } else {
    size.epochs = static_cast<std::size_t>(std::max(
        3.0, std::round(options.seconds * kRequestsPerSecond /
                        static_cast<double>(size.requests_per_epoch))));
  }

  const Pass pass = run_pass(options, size);
  Outcome out;
  out.attempted = pass.attempted;
  out.failed = pass.failed;
  out.violations = pass.violations;
  out.digest = pass.digest.value();
  std::cout << "daemon-mixed: " << size.epochs << " epochs x "
            << size.requests_per_epoch << " requests, "
            << pass.latency_us.size() << " latency samples\n";

  if (!options.trace) {
    Report& e2e = out.end_to_end;
    e2e["setup_s"] = median(pass.setup_s);
    e2e["ops_per_s"] = median(pass.epoch_rates);
    e2e["peak_rss_mb"] = peak_rss_mb();
    e2e["ok_frac"] = 1.0 - static_cast<double>(out.failed) /
                               static_cast<double>(out.attempted);
    // Percentiles per epoch (latency) and per block of grants (execution
    // time), then summarised over them, so one host stall or one
    // straggler job moves a single sample only.
    e2e["exec_p75_s"] = mean(block_quantiles(pass.exec_s, kExecBlock, 0.75));
    e2e["exec_max_s"] = mean(block_quantiles(pass.exec_s, kExecBlock, 1.0));
    e2e["latency_p50_us"] = median(
        block_quantiles(pass.latency_us, size.requests_per_epoch, 0.50));
    e2e["latency_p99_us"] = median(
        block_quantiles(pass.latency_us, size.requests_per_epoch, 0.99));
    return out;
  }

  Report& layer = out.per_layer;
  layer["workload.generate_ms"] = median(pass.generate_ms);
  layer["wire.encode_us"] = mean(pass.encode_us);
  layer["wire.decode_us"] = mean(pass.decode_us);
  layer["svc.ingest_us.p50"] = percentile(pass.ingest_us, 0.50);
  layer["svc.ingest_us.p99"] = percentile(pass.ingest_us, 0.99);
  layer["svc.poll_us.p50"] = percentile(pass.poll_us, 0.50);
  layer["svc.poll_us.p99"] = percentile(pass.poll_us, 0.99);
  const double polls = static_cast<double>(pass.polls);
  layer["svc.batch"] = ratio(static_cast<double>(pass.measured), polls);
  layer["svc.queue_wait_us"] =
      ratio(pass.queue_wait_us, static_cast<double>(pass.traced_requests));
  layer["cluster.ticks"] = static_cast<double>(pass.ticks);
  layer["cluster.ticks_per_poll"] =
      ratio(static_cast<double>(pass.ticks), polls);
  for (std::size_t code = 1; code < kErrorCodes; ++code) {
    layer[std::string("svc.errors.") +
          svc::to_string(static_cast<svc::ErrorCode>(code))] =
        static_cast<double>(pass.errors[code]);
  }
  layer["latency.samples"] = static_cast<double>(pass.latency_us.size());
  layer["trace_overhead"] =
      ratio(median(pass.traced_rates), median(pass.epoch_rates));
  return out;
}

}  // namespace perfbench
