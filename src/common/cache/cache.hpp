#pragma once
// Sharded, thread-safe, content-addressed cache with single-flight
// computation.
//
// Keys are 64-bit content digests (see hash.hpp); values are immutable
// once published (handed out as shared_ptr<const V>). The design targets
// the serving layer's determinism contract:
//
//  * Single-flight get_or_compute: concurrent lookups of one missing key
//    coalesce onto one computation — the first caller computes, the rest
//    block and receive the published value as hits. Hit/miss totals are
//    therefore schedule-independent: however the worker threads
//    interleave, a key's first resolution is exactly one miss and every
//    other lookup is a hit (misses == unique keys). Per-request
//    *attribution* of who missed is schedule-shaped; only the totals
//    are deterministic, which is what the merged TraceSink summary and
//    Cache::stats() report.
//  * No eviction: eviction order under concurrency is schedule-
//    dependent, so replacement policies run only in offline replay of
//    the recorded access trace (replay.hpp).
//  * Access-trace recording: with CacheOptions::record_trace, every
//    lookup appends (tag, seq, key) from the bound RequestContext (the
//    serving layer tags each request with its id). A compute's own
//    lookups are tagged with the computed key instead, since which
//    request wins a single flight is schedule-shaped. Sorting by (tag,
//    seq) then reconstructs one canonical access order at any thread
//    count and submission order. Untagged lookups (no context) are
//    sequenced per cache.
//
// A compute that throws unpublishes the in-flight placeholder and wakes
// the waiters, which retry (the first becomes the new computer); nothing
// is ever cached from a failed computation.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/cache/hash.hpp"
#include "common/cache/policy.hpp"
#include "common/error.hpp"
#include "common/request_context.hpp"
#include "common/trace.hpp"

namespace qcgen::cache {

struct CacheOptions {
  /// Metrics prefix: counters surface as cache.<name>.{hits,misses} on
  /// the thread-local TraceSink.
  std::string name = "cache";
  std::size_t shards = 8;
  /// Record the (tag, seq, key) access trace for offline policy replay.
  bool record_trace = false;
};

/// One recorded lookup.
struct TraceEntry {
  std::uint64_t tag = 0;
  std::uint64_t seq = 0;
  std::uint64_t key = 0;
};

template <typename V>
class Cache {
 public:
  explicit Cache(CacheOptions options) : options_(std::move(options)) {
    require(options_.shards >= 1, "Cache: shards >= 1");
    hits_name_ = "cache." + options_.name + ".hits";
    misses_name_ = "cache." + options_.name + ".misses";
    shards_ = std::vector<Shard>(options_.shards);
  }

  /// Returns the cached value for `key`, computing it via `fn` on a
  /// miss. `fn` runs outside the shard lock; concurrent callers for the
  /// same key wait for the in-flight computation instead of duplicating
  /// it, and count as hits (exactly what a sequential re-lookup would).
  template <typename Fn>
  std::shared_ptr<const V> get_or_compute(std::uint64_t key, Fn&& fn) {
    RequestContext* const context = current_context();
    Shard& shard = shard_for(key);
    std::unique_lock<std::mutex> lock(shard.mutex);
    if (options_.record_trace) {
      shard.trace.push_back(
          context != nullptr
              ? TraceEntry{context->cache_tag, context->cache_seq++, key}
              : TraceEntry{0, untagged_seq_++, key});
    }
    for (;;) {
      auto it = shard.entries.find(key);
      if (it == shard.entries.end()) break;  // become the computer
      if (it->second.value != nullptr) {
        ++shard.stats.lookups;
        ++shard.stats.hits;
        trace::Metrics::counter(hits_name_);
        return it->second.value;
      }
      // In flight on another thread: single-flight wait, then re-check
      // (the computation may have failed and unpublished itself).
      shard.cv.wait(lock, [&] {
        const auto found = shard.entries.find(key);
        return found == shard.entries.end() || found->second.value != nullptr;
      });
    }
    ++shard.stats.lookups;
    ++shard.stats.misses;
    shard.entries.emplace(key, Entry{});  // in-flight placeholder
    trace::Metrics::counter(misses_name_);
    lock.unlock();

    // The compute's own lookups are filed under this entry's key, counted
    // from 0, whichever request won the single flight.
    RequestContext compute = context != nullptr ? *context : RequestContext{};
    compute.cache_tag = key;
    compute.cache_seq = 0;
    std::shared_ptr<const V> value;
    try {
      const ContextScope scope(&compute);
      value = std::make_shared<const V>(fn());
    } catch (...) {
      lock.lock();
      shard.entries.erase(key);
      shard.cv.notify_all();
      throw;
    }

    lock.lock();
    shard.entries[key].value = value;
    ++shard.stats.inserts;
    ++shard.resident;
    shard.cv.notify_all();
    return value;
  }

  /// Resident value for `key`, or nullptr. Does not touch the stats — an observation aid for tests, not a lookup path.
  std::shared_ptr<const V> peek(std::uint64_t key) const {
    const Shard& shard = shard_for(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.entries.find(key);
    return it == shard.entries.end() ? nullptr : it->second.value;
  }

  /// Counters aggregated over shards.
  PolicyStats stats() const {
    PolicyStats total;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mutex);
      total.merge(shard.stats);
    }
    return total;
  }

  /// Resident (published) entries across shards.
  std::size_t size() const {
    std::size_t total = 0;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mutex);
      total += shard.resident;
    }
    return total;
  }

  /// The recorded lookup keys in canonical (tag, seq) order — the input
  /// replay_trace consumes. Empty unless record_trace was set.
  std::vector<std::uint64_t> access_trace() const {
    std::vector<TraceEntry> entries;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mutex);
      entries.insert(entries.end(), shard.trace.begin(), shard.trace.end());
    }
    std::sort(entries.begin(), entries.end(),
              [](const TraceEntry& a, const TraceEntry& b) {
                return a.tag != b.tag ? a.tag < b.tag : a.seq < b.seq;
              });
    std::vector<std::uint64_t> keys;
    keys.reserve(entries.size());
    for (const TraceEntry& entry : entries) keys.push_back(entry.key);
    return keys;
  }

 private:
  struct Entry {
    std::shared_ptr<const V> value;  ///< null while the compute is in flight
  };
  struct Shard {
    mutable std::mutex mutex;
    std::condition_variable cv;
    std::unordered_map<std::uint64_t, Entry> entries;
    std::size_t resident = 0;  ///< published entries (excludes in-flight)
    PolicyStats stats;
    std::vector<TraceEntry> trace;
  };

  Shard& shard_for(std::uint64_t key) noexcept {
    return const_cast<Shard&>(std::as_const(*this).shard_for(key));
  }
  const Shard& shard_for(std::uint64_t key) const noexcept {
    // Re-mix before sharding so shard choice is independent of any
    // structure in the key's low bits.
    std::uint64_t state = key;
    return shards_[splitmix64(state) % shards_.size()];
  }

  CacheOptions options_;
  std::string hits_name_;
  std::string misses_name_;
  std::vector<Shard> shards_;
  std::atomic<std::uint64_t> untagged_seq_{0};
};

}  // namespace qcgen::cache
