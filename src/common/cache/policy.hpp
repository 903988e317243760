#pragma once
// Replacement policies for offline replay of a cache's access trace.
//
// A ReplacementPolicy tracks the resident key set of a replayed cache
// and answers "which key should go next" when it is full. The live
// caches never evict (cache.hpp); replay_trace (replay.hpp) drives these
// policies over a recorded trace. Policies are deliberately tiny —
// replay calls exactly one hook per lookup resolution — and deterministic: every tie is broken by a stable rule,
// so a replayed access trace always produces the same eviction sequence.
//
// Three policies are provided:
//   * LRU — evict the least-recently-used key.
//   * LFU — evict the least-frequently-used key (recency breaks ties).
//   * LTI — "longest time to next use": Belady's oracle. It needs the
//     future, so it is constructed from a recorded access trace and is
//     only usable in offline replay (replay_trace), where it gives the
//     optimal-hit-rate upper bound the online policies are judged against.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string_view>
#include <vector>

namespace qcgen::cache {

enum class PolicyKind {
  kLru,  ///< least recently used
  kLfu,  ///< least frequently used, LRU among ties
  kLti,  ///< longest time to next use (Belady oracle; replay only)
};

std::string_view policy_kind_name(PolicyKind kind) noexcept;
std::optional<PolicyKind> parse_policy_kind(std::string_view name) noexcept;

/// Per-policy lookup/eviction counters. Conservation invariants (checked
/// by tests and the bench validator): hits + misses == lookups,
/// evictions <= inserts, inserts <= misses.
struct PolicyStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t inserts = 0;
  std::uint64_t evictions = 0;

  double hit_rate() const noexcept {
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  }
  void merge(const PolicyStats& other) noexcept;
  friend bool operator==(const PolicyStats&, const PolicyStats&) = default;
};

/// Residency bookkeeping for one replayed cache. Replay guarantees the call
/// discipline: on_insert for keys not resident, on_access only for
/// resident keys, victim()/on_erase only while non-empty.
class ReplacementPolicy {
 public:
  virtual ~ReplacementPolicy() = default;
  virtual std::string_view name() const noexcept = 0;
  virtual void on_insert(std::uint64_t key) = 0;
  virtual void on_access(std::uint64_t key) = 0;
  virtual void on_erase(std::uint64_t key) = 0;
  /// The key the policy would evict now. Requires a non-empty resident
  /// set; does not remove the key (replay follows up with on_erase).
  virtual std::uint64_t victim() const = 0;
};

class LruPolicy final : public ReplacementPolicy {
 public:
  std::string_view name() const noexcept override { return "lru"; }
  void on_insert(std::uint64_t key) override;
  void on_access(std::uint64_t key) override;
  void on_erase(std::uint64_t key) override;
  std::uint64_t victim() const override;

 private:
  void touch(std::uint64_t key);

  std::uint64_t clock_ = 0;  ///< logical access counter
  std::map<std::uint64_t, std::uint64_t> last_use_;       ///< key -> clock
  std::set<std::pair<std::uint64_t, std::uint64_t>> by_age_;  ///< (clock, key)
};

class LfuPolicy final : public ReplacementPolicy {
 public:
  std::string_view name() const noexcept override { return "lfu"; }
  void on_insert(std::uint64_t key) override;
  void on_access(std::uint64_t key) override;
  void on_erase(std::uint64_t key) override;
  std::uint64_t victim() const override;

 private:
  struct Use {
    std::uint64_t frequency = 0;
    std::uint64_t last_use = 0;
  };
  void bump(std::uint64_t key);

  std::uint64_t clock_ = 0;
  std::map<std::uint64_t, Use> uses_;
  /// (frequency, last_use, key): begin() is the least-frequent key, with
  /// the least-recently-used one first among equal frequencies.
  std::set<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>> order_;
};

/// Belady's oracle over a fully known access sequence. Each processed
/// trace element advances an internal clock (replay calls exactly one
/// of on_access/on_insert per lookup), so the policy always knows where
/// in the future it stands. victim() picks the resident key whose next
/// use is farthest away (never-used-again keys first, largest key among
/// exact ties).
class LtiPolicy final : public ReplacementPolicy {
 public:
  /// `trace` is the exact key sequence the replay will drive.
  explicit LtiPolicy(std::span<const std::uint64_t> trace);

  std::string_view name() const noexcept override { return "lti"; }
  void on_insert(std::uint64_t key) override;
  void on_access(std::uint64_t key) override;
  void on_erase(std::uint64_t key) override;
  std::uint64_t victim() const override;

 private:
  static constexpr std::uint64_t kNever = ~std::uint64_t{0};
  void place(std::uint64_t key);

  std::size_t clock_ = 0;  ///< trace position of the current lookup
  std::vector<std::uint64_t> next_use_;  ///< per position; kNever at last use
  std::map<std::uint64_t, std::uint64_t> resident_;  ///< key -> next use
  std::set<std::pair<std::uint64_t, std::uint64_t>> by_next_;  ///< (next, key)
};

/// Online policies (LRU, LFU). LTI needs the future: constructing it
/// here throws InvalidArgumentError — build an LtiPolicy from a recorded
/// trace instead (see replay.hpp).
std::unique_ptr<ReplacementPolicy> make_policy(PolicyKind kind);

}  // namespace qcgen::cache
