// serve-qec and serve-cached: open-loop Poisson arrivals at a fixed
// wall-clock rate into one serve::Server, then the same stream offered
// all at once to a second server for the peak completion rate.
//
//  * serve-qec: uniform mix over the catalog, ft+rag with 3 passes,
//    per-request QEC planning on ibm_brisbane (200 trials), caches off,
//    unlimited admission so every request does its full work. BM25 runs
//    on every generation and QEC planning is about a third of the CPU.
//  * serve-cached: the same server with its three shared caches on, a
//    Zipf mix and no QEC. The same llm/qasm/sim code runs, mostly as
//    memoized lookups, so a change that speeds computation but slows
//    lookups, or deletes a cache layer, shows here and not on serve-qec.
//
// Load comes from this process: the generator is the main thread and the
// server runs kServeWorkers workers, so generator plus workers stay
// within the machine's threads. Latency is timed from each request's due
// time; on each wake the generator submits every request already due.

#include <algorithm>
#include <future>
#include <limits>
#include <span>
#include <thread>

#include "agents/technique_resources.hpp"
#include "common/cache/hash.hpp"
#include "common/trace.hpp"
#include "eval/judge.hpp"
#include "eval/suite.hpp"
#include "serve/server.hpp"
#include "serve/workload.hpp"
#include "workloads.hpp"

namespace qcgen::perfbench {

namespace {

constexpr std::size_t kServeWorkers = 2;
constexpr std::size_t kSetupRepeats = 9;
/// The peak phase offers the stream in this many chunks and reports the
/// median chunk rate.
constexpr std::size_t kPeakChunks = 5;
/// Requests whose outcomes form the fingerprint: a prefix of the stream,
/// so the fingerprint does not depend on the run length.
constexpr std::size_t kFingerprintRequests = 1000;
/// Share of --seconds the open-loop phase is scheduled to last in an
/// untraced run; the peak phase then offers the same stream.
constexpr double kOpenShare = 0.5;
/// Seconds of arrivals at the workload's rate in a traced run (its work
/// is fixed; spans are kept in memory). At least kFingerprintRequests.
constexpr double kTracedOpenSeconds = 2.0;
/// serve-cached warms each server's caches with this many requests of
/// the same mix before anything is timed.
constexpr std::size_t kWarmupRequests = 2000;
constexpr std::uint64_t kWarmupIdBase = std::uint64_t{1} << 40;
/// The benchmark's bound on generator lag: a run whose p99 lag exceeds
/// it fell behind the offered schedule, so its latencies do not describe
/// the stated rate and the run is invalid. A generator that cannot keep
/// up falls further behind with every request and soon passes any fixed
/// bound. A generator descheduled once for a few tens of milliseconds
/// delays every request due in that time, which in a 2 s phase is more
/// than 1 % of them, so one such stall sets the p99 lag; its requests are
/// timed from their due time, so the latencies stay honest. The bound
/// sits above those stalls (see README.md, Serving load).
constexpr double kMaxGeneratorLagMs = 100.0;
/// Ids of the second stream a traced run offers to measure the cost of
/// tracing, disjoint from the measured stream and the warm-up.
constexpr std::uint64_t kOverheadIdBase = std::uint64_t{1} << 41;

struct ServeConfig {
  double rate;  ///< open-loop arrivals per wall-clock second
  serve::CaseMix mix;
  bool qec;
  bool caches;
};

ServeConfig config_for(bool cached) {
  if (cached) return {4000.0, serve::CaseMix::kZipf, false, true};
  return {600.0, serve::CaseMix::kUniform, true, false};
}

std::vector<eval::TestCase> make_catalog() {
  // bench_serving's catalog: every third gold case across the tiers.
  const auto full = eval::semantic_suite();
  std::vector<eval::TestCase> catalog;
  for (std::size_t i = 0; i < full.size(); i += 3) catalog.push_back(full[i]);
  return catalog;
}

agents::TechniqueConfig technique() {
  auto config =
      agents::TechniqueConfig::with_rag(llm::ModelProfile::kStarCoder3B);
  config.max_passes = 3;
  return config;
}

std::optional<agents::QecDecoderAgent::Options> qec_options(
    const ServeConfig& config) {
  if (!config.qec) return std::nullopt;
  agents::QecDecoderAgent::Options options;
  options.trials = 200;
  return options;
}

std::optional<agents::DeviceTopology> device(const ServeConfig& config) {
  if (!config.qec) return std::nullopt;
  return agents::DeviceTopology::ibm_brisbane();
}

serve::Server::Options server_options(const ServeConfig& config,
                                      std::uint64_t seed) {
  serve::Server::Options options;
  options.technique = technique();
  options.qec = qec_options(config);
  options.device = device(config);
  options.admission = serve::AdmissionOptions::unlimited();
  options.seed = seed;
  options.threads = std::min(kServeWorkers,
                             std::max<std::size_t>(1, hardware_threads() - 1));
  options.cache.enabled = config.caches;
  return options;
}

std::vector<serve::Arrival> arrivals(const ServeConfig& config,
                                     std::uint64_t seed, std::size_t count,
                                     std::size_t cases) {
  serve::WorkloadOptions workload;
  workload.process = serve::ArrivalProcess::kPoisson;
  workload.count = count;
  workload.rate = config.rate;
  workload.seed = seed;
  workload.mix = config.mix;
  return serve::generate_arrivals(workload, cases);
}

serve::Request request_for(const serve::Arrival& arrival,
                           const std::vector<eval::TestCase>& catalog,
                           std::uint64_t id_base = 0) {
  return {id_base + arrival.request_id, catalog[arrival.case_idx], arrival.vt,
          {}};
}

/// Per-request outputs the checks compare.
struct Outcomes {
  std::vector<std::uint64_t> digests;  ///< pipeline_digest per request
  std::vector<double> latency_ms;      ///< from due time; inf when failed
  std::size_t failed = 0;
};

void harvest(std::future<serve::RequestResult>& future, std::size_t index,
             double submit_delay_s, Outcomes& out) {
  const serve::RequestResult result = future.get();
  const bool ok = result.outcome == serve::RequestOutcome::kCompleted;
  if (!ok) ++out.failed;
  out.digests[index] = ok ? pipeline_digest(result.pipeline) : 0;
  out.latency_ms[index] =
      ok ? (submit_delay_s + result.wall_latency_seconds) * 1e3
         : std::numeric_limits<double>::infinity();
}

struct OpenLoop {
  Outcomes outcomes;
  std::vector<double> lag_ms;
  std::size_t backlog_max = 0;
  double submit_s = 0.0;  ///< time spent inside Server::submit
};

/// Replays `stream` against `server` at its arrival instants.
OpenLoop open_loop(serve::Server& server,
                   const std::vector<serve::Arrival>& stream,
                   const std::vector<eval::TestCase>& catalog) {
  const std::size_t n = stream.size();
  OpenLoop run;
  run.outcomes.digests.assign(n, 0);
  run.outcomes.latency_ms.assign(n, 0.0);
  run.lag_ms.assign(n, 0.0);
  std::vector<std::future<serve::RequestResult>> futures(n);
  std::vector<double> submit_delay(n, 0.0);
  const auto origin = Clock::now() + std::chrono::milliseconds(5);
  const auto due = [&](std::size_t i) {
    return origin + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(stream[i].vt));
  };
  std::size_t next = 0;
  std::size_t harvested = 0;
  while (next < n) {
    run.backlog_max =
        std::max(run.backlog_max, server.queued() + server.pool_backlog());
    while (next < n && due(next) <= Clock::now()) {
      submit_delay[next] =
          std::chrono::duration<double>(Clock::now() - due(next)).count();
      run.lag_ms[next] = submit_delay[next] * 1e3;
      const auto submit_start = Clock::now();
      futures[next] = server.submit(request_for(stream[next], catalog));
      run.submit_s += seconds_since(submit_start);
      ++next;
    }
    while (harvested < next &&
           futures[harvested].wait_for(std::chrono::seconds(0)) ==
               std::future_status::ready) {
      harvest(futures[harvested], harvested, submit_delay[harvested],
              run.outcomes);
      ++harvested;
    }
    if (next < n) std::this_thread::sleep_until(due(next));
  }
  for (; harvested < n; ++harvested) {
    harvest(futures[harvested], harvested, submit_delay[harvested],
            run.outcomes);
  }
  return run;
}

/// Offers requests [begin, end) of the stream all at once, digests the
/// results as they arrive and returns the completion rate.
double offer_at_once(serve::Server& server,
                     const std::vector<serve::Arrival>& stream,
                     std::size_t begin, std::size_t end,
                     const std::vector<eval::TestCase>& catalog, Outcomes& out,
                     std::uint64_t id_base = 0) {
  std::vector<std::future<serve::RequestResult>> futures(end - begin);
  std::size_t harvested = begin;
  const auto start = Clock::now();
  for (std::size_t i = begin; i < end; ++i) {
    futures[i - begin] = server.submit(request_for(stream[i], catalog, id_base));
    // Results are digested as they arrive so memory stays bounded.
    while (harvested < i &&
           futures[harvested - begin].wait_for(std::chrono::seconds(0)) ==
               std::future_status::ready) {
      harvest(futures[harvested - begin], harvested, 0.0, out);
      ++harvested;
    }
  }
  for (; harvested < end; ++harvested) {
    harvest(futures[harvested - begin], harvested, 0.0, out);
  }
  return static_cast<double>(end - begin) / seconds_since(start);
}

Outcomes empty_outcomes(std::size_t n) {
  Outcomes out;
  out.digests.assign(n, 0);
  out.latency_ms.assign(n, 0.0);
  return out;
}

/// Offers the stream in kPeakChunks consecutive chunks, each all at
/// once, and returns the median chunk completion rate.
double peak_rate(serve::Server& server,
                 const std::vector<serve::Arrival>& stream,
                 const std::vector<eval::TestCase>& catalog, Outcomes& out) {
  const std::size_t n = stream.size();
  out = empty_outcomes(n);
  std::vector<double> rates;
  for (std::size_t chunk = 0; chunk < kPeakChunks; ++chunk) {
    rates.push_back(offer_at_once(server, stream, n * chunk / kPeakChunks,
                                  n * (chunk + 1) / kPeakChunks, catalog, out));
  }
  return percentile(rates, 50.0);
}

void warm_up(serve::Server& server, const ServeConfig& config,
             std::uint64_t seed, const std::vector<eval::TestCase>& catalog) {
  if (!config.caches) return;
  std::vector<std::future<serve::RequestResult>> futures;
  for (const serve::Arrival& arrival :
       arrivals(config, derive_seed(seed, 99), kWarmupRequests, catalog.size())) {
    futures.push_back(server.submit(request_for(arrival, catalog, kWarmupIdBase)));
  }
  for (auto& future : futures) future.get();
}

std::uint64_t fingerprint(const std::vector<std::uint64_t>& digests) {
  cache::KeyHasher hasher;
  const std::size_t n = std::min(digests.size(), kFingerprintRequests);
  for (std::size_t i = 0; i < n; ++i) hasher.mix(digests[i]);
  return hasher.digest();
}

}  // namespace

RunReport run_serving(const RunOptions& options, bool cached) {
  RunReport report;
  const ServeConfig config = config_for(cached);
  const auto catalog = make_catalog();
  const serve::Server::Options server_opts = server_options(config, options.seed);

  // Set-up: the server (resources, oracle prewarm, pool) built several
  // times; the last two serve the open-loop and the peak phases.
  std::vector<double> server_s;
  std::vector<std::unique_ptr<serve::Server>> servers;
  for (std::size_t i = 0; i < kSetupRepeats; ++i) {
    const auto start = Clock::now();
    auto server = std::make_unique<serve::Server>(server_opts, catalog);
    server_s.push_back(seconds_since(start));
    servers.push_back(std::move(server));
    if (servers.size() > 2) servers.erase(servers.begin());
  }
  report.note(std::string(cached ? "serve-cached" : "serve-qec") + ": " +
              std::to_string(config.rate) + " req/s open loop, " +
              std::to_string(server_opts.threads) + " workers, catalog " +
              std::to_string(catalog.size()) + " cases");

  // The traced run serves the open loop from a server that records the
  // library's spans into an event-keeping sink; the untraced run from
  // one of the servers built above.
  const auto sink = options.trace ? make_event_sink() : nullptr;
  std::unique_ptr<serve::Server> traced_server;
  if (options.trace) {
    serve::Server::Options traced_opts = server_opts;
    traced_opts.trace = sink.get();
    traced_server = std::make_unique<serve::Server>(traced_opts, catalog);
  }
  serve::Server& open_server = options.trace ? *traced_server : *servers[0];
  serve::Server& peak_server = *servers[1];

  const double open_seconds =
      options.trace ? kTracedOpenSeconds : kOpenShare * options.seconds;
  const std::size_t count = std::max<std::size_t>(
      kFingerprintRequests, static_cast<std::size_t>(config.rate * open_seconds));
  const auto stream = arrivals(config, options.seed, count, catalog.size());

  warm_up(open_server, config, options.seed, catalog);
  open_server.drain();
  const std::size_t warm_events = options.trace ? sink->events().size() : 0;
  const trace::Summary warm_summary =
      options.trace ? sink->summary() : trace::Summary{};
  const OpenLoop open = open_loop(open_server, stream, catalog);
  report.attempted += count;
  report.failed += open.outcomes.failed;
  if (open.outcomes.failed > 0) {
    report.fail(std::to_string(open.outcomes.failed) +
                " open-loop requests did not complete");
  }
  report.fingerprint = hex(fingerprint(open.outcomes.digests));
  const double lag_p99 = percentile(open.lag_ms, 99.0);
  report.note(tail_note("open-loop request", open.outcomes.latency_ms) +
              "; generator lag p99 " + std::to_string(lag_p99) +
              " ms; backlog max " + std::to_string(open.backlog_max));
  if (lag_p99 > kMaxGeneratorLagMs) {
    report.fail("generator lag p99 " + std::to_string(lag_p99) +
                " ms exceeds the bound of " +
                std::to_string(kMaxGeneratorLagMs) +
                " ms: the open-loop schedule was not kept");
  }

  // The same stream offered all at once to the untraced peak server.
  // Its results must equal the open-loop server's request by request.
  warm_up(peak_server, config, options.seed, catalog);
  Outcomes peak;
  const double rps = peak_rate(peak_server, stream, catalog, peak);
  report.attempted += count;
  report.failed += peak.failed;
  std::size_t mismatched = 0;
  for (std::size_t i = 0; i < count; ++i) {
    if (peak.digests[i] != open.outcomes.digests[i]) ++mismatched;
  }
  if (mismatched > 0) {
    report.failed += mismatched;
    report.fail(std::to_string(mismatched) + " requests differ between the " +
                (options.trace ? "traced open-loop" : "open-loop") +
                " and the peak servers");
  }

  if (!options.trace) {
    report.set("setup_s", percentile(server_s, 50.0));
    report.set("ops_per_s", rps);
    report.set("latency_p50_ms", percentile(open.outcomes.latency_ms, 50.0));
    report.note("peak: " + std::to_string(rps) + " req/s");
    return report;
  }

  // Traced run. Set-up split into its parts.
  {
    const auto start = Clock::now();
    agents::TechniqueResources resources(server_opts.technique);
    report.set("setup.resources_s", seconds_since(start));
  }
  {
    eval::ReferenceOracle oracle;
    const auto start = Clock::now();
    oracle.prewarm(catalog);
    report.set("setup.oracle_s", seconds_since(start));
  }
  report.set("setup.server_s", percentile(server_s, 50.0));
  for (const serve::CacheLayerReport& layer : open_server.cache_reports()) {
    report.set("common.cache." + layer.layer + ".hit_share",
               layer.stats.hit_rate());
  }

  // Layers of the open-loop requests: the spans and counters recorded
  // after the warm-up, one pipeline.run tree per request in id order.
  open_server.drain();
  check_sink(report, *sink);
  LayerProfile profile;
  {
    const std::vector<trace::SpanEvent> events = sink->events();
    profile.add(std::span(events).subspan(warm_events),
                summary_delta(sink->summary(), warm_summary));
  }
  report_layers(report, profile);
  if (profile.root_seconds().size() != count) {
    report.fail(std::to_string(profile.root_seconds().size()) +
                " traced pipeline runs for " + std::to_string(count) +
                " requests");
  } else {
    // Waiting: latency from the due time less the request's own run.
    std::vector<double> wait_ms(count);
    for (std::size_t i = 0; i < count; ++i) {
      wait_ms[i] =
          open.outcomes.latency_ms[i] - profile.root_seconds()[i] * 1e3;
    }
    report.set("serve.wait_ms.p50", percentile(wait_ms, 50.0));
    report.set("serve.wait_ms.p99", percentile(wait_ms, 99.0));
  }
  report.set("serve.submit.us_per_call",
             open.submit_s / static_cast<double>(count) * 1e6);
  report.set("serve.backlog.max", static_cast<double>(open.backlog_max));
  report.set("serve.generator_lag_ms.p99", lag_p99);
  report.set("serve.latency_ms.p99", percentile(open.outcomes.latency_ms, 99.0));
  if (config.qec && report.values["qec.defects_per_decode"] <= 0.0) {
    report.fail("serve-qec: no detection events reached a decoder");
  }

  // The cost of tracing: a second stream offered at once, chunk by
  // chunk, alternately to the untraced and the traced server (both have
  // served the same warm-up and the same stream so far).
  const auto second = arrivals(config, derive_seed(options.seed, 7),
                               count / 2, catalog.size());
  Outcomes untraced_out = empty_outcomes(second.size());
  Outcomes traced_out = empty_outcomes(second.size());
  double untraced_s = 0.0, traced_s = 0.0;
  for (std::size_t chunk = 0; chunk < kPeakChunks; ++chunk) {
    const std::size_t begin = second.size() * chunk / kPeakChunks;
    const std::size_t end = second.size() * (chunk + 1) / kPeakChunks;
    const auto requests = static_cast<double>(end - begin);
    untraced_s += requests / offer_at_once(peak_server, second, begin, end,
                                           catalog, untraced_out,
                                           kOverheadIdBase);
    traced_s += requests / offer_at_once(open_server, second, begin, end,
                                         catalog, traced_out, kOverheadIdBase);
  }
  report.attempted += 2 * second.size();
  report.failed += untraced_out.failed + traced_out.failed;
  if (untraced_out.digests != traced_out.digests) {
    report.fail("traced and untraced servers differ on the second stream");
  }
  report.set("trace.overhead_share", traced_s / untraced_s - 1.0);
  return report;
}

}  // namespace qcgen::perfbench
