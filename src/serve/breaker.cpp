#include "serve/breaker.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/trace.hpp"

namespace qcgen::serve {

namespace {

// Salts the breaker seed away from the request / chaos streams derived
// from the same server seed.
constexpr std::uint64_t kProbeSalt = 0x6d1c3b59e8f4a273ULL;

}  // namespace

std::string_view breaker_state_name(BreakerState state) noexcept {
  switch (state) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: return "half-open";
  }
  return "unknown";
}

BreakerBoard::BreakerBoard(BreakerOptions options) : options_(options) {
  require(options_.failure_threshold >= 1,
          "BreakerBoard: failure_threshold must be >= 1");
  require(options_.half_open_successes >= 1,
          "BreakerBoard: half_open_successes must be >= 1");
  require(options_.cooldown_vt >= 0.0,
          "BreakerBoard: cooldown_vt must be >= 0");
  require(options_.probe_probability >= 0.0 &&
              options_.probe_probability <= 1.0,
          "BreakerBoard: probe_probability out of [0,1]");
}

void BreakerBoard::register_request(std::uint64_t id, double arrival_vt,
                                    double finish_vt) {
  std::lock_guard<std::mutex> lock(mutex_);
  require(entries_.find(id) == entries_.end(),
          "BreakerBoard: request registered twice");
  // The completeness argument in the header needs nondecreasing arrival
  // order and strictly positive virtual service; fail loudly if the
  // admission contract ever changes under us.
  if (!order_.empty()) {
    require(arrival_vt >= entries_.at(order_.back()).arrival_vt,
            "BreakerBoard: arrivals must be registered in virtual order");
  }
  require(finish_vt > arrival_vt,
          "BreakerBoard: virtual finish must exceed arrival");
  Entry entry;
  entry.id = id;
  entry.index = order_.size();
  entry.arrival_vt = arrival_vt;
  entry.finish_vt = finish_vt;
  entries_.emplace(id, std::move(entry));
  order_.push_back(id);
}

bool BreakerBoard::probes(agents::Site site,
                          std::uint64_t id) const noexcept {
  std::uint64_t state =
      (options_.seed ^ kProbeSalt ^ fnv1a64(agents::site_name(site))) +
      0x9e3779b97f4a7c15ULL * (id + 1);
  const std::uint64_t mixed = splitmix64(state);
  // 53-bit mantissa draw in [0, 1), the Rng::uniform discipline.
  const double u =
      static_cast<double>(mixed >> 11) * (1.0 / 9007199254740992.0);
  return u < options_.probe_probability;
}

void BreakerBoard::thaw(Fold& fold, agents::Site site, double now,
                        std::vector<BreakerTransition>* sink) const {
  if (fold.state != BreakerState::kOpen) return;
  const double ready = fold.opened_at + options_.cooldown_vt;
  if (now < ready) return;
  fold.state = BreakerState::kHalfOpen;
  fold.probe_successes = 0;
  if (sink != nullptr) {
    sink->push_back({std::string(agents::site_name(site)), BreakerState::kOpen,
                     BreakerState::kHalfOpen, ready, 0});
  }
}

void BreakerBoard::apply(Fold& fold, agents::Site site, const Entry& entry,
                         std::vector<BreakerTransition>* sink) const {
  thaw(fold, site, entry.finish_vt, sink);
  if (!entry.decided) return;  // never ran (e.g. cancelled pre-execution)
  const agents::SiteSet mask = agents::bit(site);
  if (entry.verdicts.short_circuit & mask) return;  // never exercised
  const bool failed = (entry.failed & mask) != 0;
  const bool succeeded = (entry.succeeded & mask) != 0;
  const auto edge = [&](BreakerState from, BreakerState to) {
    if (sink != nullptr) {
      sink->push_back({std::string(agents::site_name(site)), from, to,
                       entry.finish_vt, entry.id});
    }
  };
  switch (fold.state) {
    case BreakerState::kClosed:
      if (failed) {
        if (++fold.consecutive_failures >= options_.failure_threshold) {
          fold.state = BreakerState::kOpen;
          fold.opened_at = entry.finish_vt;
          edge(BreakerState::kClosed, BreakerState::kOpen);
        }
      } else if (succeeded) {
        // Only a request that demonstrably exercised the site vouches
        // for it; one that skipped or aborted before the site is
        // no-signal (see report()).
        fold.consecutive_failures = 0;
      }
      break;
    case BreakerState::kOpen:
      // Stragglers decided while the site was still closed may land
      // here; their signal is stale — the breaker is already open.
      break;
    case BreakerState::kHalfOpen:
      if (!(entry.verdicts.probing & mask)) break;
      if (failed) {
        fold.state = BreakerState::kOpen;
        fold.opened_at = entry.finish_vt;
        fold.consecutive_failures = 0;
        edge(BreakerState::kHalfOpen, BreakerState::kOpen);
      } else if (!succeeded) {
        break;  // probe never reached the site: no-signal either way
      } else if (++fold.probe_successes >= options_.half_open_successes) {
        fold.state = BreakerState::kClosed;
        fold.consecutive_failures = 0;
        fold.probe_successes = 0;
        edge(BreakerState::kHalfOpen, BreakerState::kClosed);
      }
      break;
  }
}

BreakerBoard::Fold BreakerBoard::fold_site_locked(
    agents::Site site, double up_to_vt,
    std::vector<BreakerTransition>* sink) const {
  Fold fold;
  // order_ is registration order; report events replay ordered by
  // (finish_vt, registration index).
  std::vector<const Entry*> events;
  events.reserve(order_.size());
  for (const std::uint64_t id : order_) {
    const Entry& entry = entries_.at(id);
    if (!entry.reported) continue;
    if (entry.finish_vt > up_to_vt) continue;
    events.push_back(&entry);
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const Entry* a, const Entry* b) {
                     return a->finish_vt < b->finish_vt;
                   });
  for (const Entry* entry : events) apply(fold, site, *entry, sink);
  // A finite horizon is a decision point: the cooldown may have elapsed
  // with no report landing since, so materialise the half-open edge the
  // arriving request observes. The full-log fold (transitions()) keeps
  // only edges some event actually witnessed.
  if (std::isfinite(up_to_vt)) thaw(fold, site, up_to_vt, sink);
  return fold;
}

BreakerVerdicts BreakerBoard::decide(std::uint64_t id) {
  std::unique_lock<std::mutex> lock(mutex_);
  auto it = entries_.find(id);
  require(it != entries_.end(), "BreakerBoard: decide for unregistered id");
  Entry& entry = it->second;
  if (entry.decided) return entry.verdicts;
  // Gate: the event log below our arrival must be complete. Only
  // earlier-registered requests can finish at or before our arrival
  // (admission hands out nondecreasing starts), and under FIFO pop each
  // of them is already executing on some worker, so this wait is
  // deadlock-free and bounded by their service times.
  reported_cv_.wait(lock, [&] {
    for (const std::uint64_t other_id : order_) {
      const Entry& other = entries_.at(other_id);
      if (other.index >= entry.index) break;
      if (other.finish_vt <= entry.arrival_vt && !other.reported) {
        return false;
      }
    }
    return true;
  });
  for (const agents::Site site : agents::sites_by_name()) {
    const BreakerState state =
        fold_site_locked(site, entry.arrival_vt, nullptr).state;
    if (state == BreakerState::kClosed) continue;
    if (state == BreakerState::kHalfOpen && probes(site, id)) {
      entry.verdicts.probing |= agents::bit(site);
      trace::Metrics::counter("breaker.probe");
    } else {
      entry.verdicts.short_circuit |= agents::bit(site);
      trace::Metrics::counter("breaker.short_circuit");
    }
  }
  entry.decided = true;
  return entry.verdicts;
}

void BreakerBoard::report(std::uint64_t id, agents::SiteSet failed,
                          agents::SiteSet succeeded) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(id);
    require(it != entries_.end(), "BreakerBoard: report for unregistered id");
    // After finalize() (abandoned-drain shutdown) late reports are
    // ignored instead of treated as double-report bugs: finalize already
    // marked everything reported to release waiters.
    require(!it->second.reported || finalized_,
            "BreakerBoard: request reported twice");
    if (it->second.reported) return;
    it->second.reported = true;
    it->second.failed = failed;
    it->second.succeeded = succeeded;
  }
  reported_cv_.notify_all();
}

void BreakerBoard::finalize() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    finalized_ = true;
    for (const std::uint64_t id : order_) {
      entries_.at(id).reported = true;
    }
  }
  reported_cv_.notify_all();
}

std::vector<BreakerTransition> BreakerBoard::transitions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<BreakerTransition> all;
  for (const agents::Site site : agents::sites_by_name()) {
    (void)fold_site_locked(site, std::numeric_limits<double>::infinity(),
                           &all);
  }
  return all;
}

BreakerState BreakerBoard::state(agents::Site site) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return fold_site_locked(site, std::numeric_limits<double>::infinity(),
                          nullptr)
      .state;
}

}  // namespace qcgen::serve
