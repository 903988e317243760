// qec-sweep: QecDecoderAgent::plan_for on ibm_brisbane over distances
// {3, 5} and decoders {mwpm, union-find, greedy; lookup at d = 3}, with
// the agent's default 3000 Monte-Carlo trials. One operation is a sweep:
// the seven points with four Monte-Carlo replicas each, every plan with
// a distinct seed drawn from the workload seed, on a pool with one
// worker per hardware thread. This is the QEC agent's own job (Fig 2,
// Fig 4, ABL-DEC); the qec layer does nearly all of the work.
//
// The sweep runs on every hardware thread because one thread's speed
// on a shared host moved by up to 1.5x between runs. It is one parallel
// operation rather than one sweep per thread because the host's threads
// differ in speed at any moment: per-thread sweep times then fall into a
// fast and a slow cluster, and their median jumped between them from run
// to run (quartile spread 0.29 of the median over ten runs, against
// 0.14 for the parallel sweep in the same series of runs).

#include <cmath>
#include <memory>
#include <numeric>
#include <optional>

#include "agents/qec_agent.hpp"
#include "agents/topology.hpp"
#include "common/cache/hash.hpp"
#include "common/thread_pool.hpp"
#include "common/trace.hpp"
#include "qec/decoder.hpp"
#include "qec/surface_code.hpp"
#include "workloads.hpp"

namespace qcgen::perfbench {

namespace {

/// Set-up takes well under a millisecond, so it is repeated and the
/// median reported.
constexpr std::size_t kSetupRepeats = 101;

constexpr std::size_t kReplicas = 4;

/// The sweep's plans: the seven points, then the seven again for each
/// further replica.
std::vector<agents::QecDecoderAgent::Options> sweep(std::uint64_t seed) {
  struct Point {
    int distance;
    qec::DecoderKind decoder;
  };
  static constexpr Point kPoints[] = {
      {3, qec::DecoderKind::kMwpm},   {3, qec::DecoderKind::kUnionFind},
      {3, qec::DecoderKind::kGreedy}, {3, qec::DecoderKind::kLookup},
      {5, qec::DecoderKind::kMwpm},   {5, qec::DecoderKind::kUnionFind},
      {5, qec::DecoderKind::kGreedy},
  };
  std::vector<agents::QecDecoderAgent::Options> out;
  for (std::size_t replica = 0; replica < kReplicas; ++replica) {
    for (const Point& point : kPoints) {
      agents::QecDecoderAgent::Options options;
      options.target_distance = point.distance;
      options.decoder = point.decoder;
      options.seed = derive_seed(seed, out.size());
      out.push_back(options);
    }
  }
  return out;
}

/// The order the pool is handed the plans: distance 5 first, so that
/// the longest plans do not start last.
std::vector<std::size_t> schedule(
    const std::vector<agents::QecDecoderAgent::Options>& plans) {
  std::vector<std::size_t> order(plans.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return plans[a].target_distance > plans[b].target_distance;
  });
  return order;
}

/// The sweep's shared state: the device, an agent per plan, and each
/// plan's surface code with its pair of decoders (for mwpm and
/// union-find this builds the matching graphs). plan_for builds its own
/// code and decoders again on every call, so the codes and decoders here
/// are not used by the sweep; they price the construction a plan needs,
/// which set-up would carry if it were hoisted out of plan_for.
struct Setup {
  agents::DeviceTopology device;
  std::vector<agents::QecDecoderAgent> agents;
  std::vector<qec::SurfaceCode> codes;
  std::vector<std::unique_ptr<qec::Decoder>> decoders;
};

Setup build_setup(const std::vector<agents::QecDecoderAgent::Options>& plans) {
  Setup setup{agents::DeviceTopology::ibm_brisbane(), {}, {}, {}};
  for (const auto& options : plans) {
    setup.agents.emplace_back(options);
    const qec::SurfaceCode& code = setup.codes.emplace_back(
        qec::SurfaceCode::rotated(options.target_distance));
    for (const auto type : {qec::PauliType::kZ, qec::PauliType::kX}) {
      setup.decoders.push_back(qec::make_decoder(options.decoder, code, type));
    }
  }
  return setup;
}

/// Logical failures behind a plan's per-round logical error rate (the
/// inverse of LogicalErrorEstimate::per_round_rate).
std::size_t plan_failures(const agents::QecPlan& plan, std::size_t trials) {
  const double rounds = plan.distance;
  const double total =
      1.0 - std::pow(1.0 - plan.lifetime.logical_error_per_round, rounds);
  return static_cast<std::size_t>(
      std::llround(total * static_cast<double>(trials)));
}

/// Digest of one plan's distance, decoder and failure count.
void mix_plan(cache::KeyHasher& hasher, int distance, qec::DecoderKind decoder,
              std::size_t failures) {
  hasher.mix(static_cast<std::uint64_t>(distance));
  hasher.mix(std::string(qec::decoder_kind_name(decoder)));
  hasher.mix(static_cast<std::uint64_t>(failures));
}

}  // namespace

RunReport run_qec_sweep(const RunOptions& options) {
  RunReport report;
  const auto plans = sweep(options.seed);
  std::vector<double> setup_s;
  std::optional<Setup> setup;
  for (std::size_t i = 0; i < kSetupRepeats; ++i) {
    const auto start = Clock::now();
    setup.emplace(build_setup(plans));
    setup_s.push_back(seconds_since(start));
  }
  report.set("setup_s", percentile(setup_s, 50.0));

  if (!options.trace) {
    ThreadPool pool(hardware_threads());
    const std::vector<std::size_t> order = schedule(plans);
    std::vector<double> sweep_ms;
    std::vector<std::size_t> first_failures;
    std::uint64_t first = 0;
    const auto start = Clock::now();
    do {
      std::vector<agents::QecPlan> results(plans.size());
      const auto sweep_start = Clock::now();
      pool.parallel_for(plans.size(), [&](std::size_t k) {
        results[order[k]] = setup->agents[order[k]].plan_for(setup->device);
      });
      sweep_ms.push_back(seconds_since(sweep_start) * 1e3);
      cache::KeyHasher hasher;
      for (std::size_t i = 0; i < plans.size(); ++i) {
        if (!results[i].feasible) ++report.failed;
        const std::size_t failed = plan_failures(results[i], plans[i].trials);
        if (sweep_ms.size() == 1) first_failures.push_back(failed);
        mix_plan(hasher, results[i].distance, results[i].decoder, failed);
      }
      if (sweep_ms.size() == 1) first = hasher.digest();
      if (hasher.digest() != first) report.fail("qec-sweep: sweep outputs differ");
      report.attempted += plans.size();
    } while (seconds_since(start) < options.seconds);
    const double elapsed = seconds_since(start);
    if (report.failed > 0) report.fail("qec-sweep: infeasible plans");
    report.fingerprint = hex(first);
    report.set("ops_per_s", static_cast<double>(report.attempted) / elapsed);
    report.set("latency_p50_ms", percentile(sweep_ms, 50.0));
    std::string line = "qec-sweep: " + std::to_string(sweep_ms.size()) +
                       " sweeps of " + std::to_string(plans.size()) +
                       " plans on " + std::to_string(pool.size()) +
                       " threads; failures per plan:";
    for (const std::size_t f : first_failures) line += " " + std::to_string(f);
    report.note(line);
    report.note(tail_note("sweep", sweep_ms));
    return report;
  }

  // Traced run: plan by plan, plan_for untraced and then with an
  // event-keeping trace sink installed on this thread (the span around
  // the call is the benchmark's own; the spans under it are the
  // library's), so that neither runs on a colder machine.
  const auto sink = make_event_sink();
  cache::KeyHasher library_hasher, traced_hasher;
  double library_s = 0.0, traced_s = 0.0;
  for (std::size_t i = 0; i < plans.size(); ++i) {
    auto start = Clock::now();
    const agents::QecPlan plan = setup->agents[i].plan_for(setup->device);
    library_s += seconds_since(start);
    mix_plan(library_hasher, plan.distance, plan.decoder,
             plan_failures(plan, plans[i].trials));

    start = Clock::now();
    agents::QecPlan traced;
    {
      trace::SinkScope scope(sink.get());
      trace::TraceSpan span("qec.plan_for");
      traced = setup->agents[i].plan_for(setup->device);
    }
    traced_s += seconds_since(start);
    mix_plan(traced_hasher, traced.distance, traced.decoder,
             plan_failures(traced, plans[i].trials));
    report.attempted += 2;
    for (const agents::QecPlan& result : {plan, traced}) {
      if (!result.feasible) {
        ++report.failed;
        report.fail("qec-sweep: infeasible plan: " + result.reason);
      }
    }
  }
  const std::uint64_t untraced = library_hasher.digest();
  report.fingerprint = hex(untraced);
  if (traced_hasher.digest() != untraced) {
    report.fail("qec-sweep: traced plans differ from untraced plans");
  }
  check_sink(report, *sink);
  LayerProfile profile;
  profile.add(sink->events(), sink->summary());
  report_layers(report, profile);
  if (report.values["qec.defects_per_decode"] <= 0.0) {
    report.fail("qec-sweep: no detection events reached a decoder");
  }
  report.set("trace.overhead_share", traced_s / library_s - 1.0);
  return report;
}

}  // namespace qcgen::perfbench
