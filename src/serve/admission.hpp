#pragma once
// Deterministic admission control and load shedding for the serving layer.
//
// Decisions are made sequentially at enqueue time against a
// *virtual-time* queue model, never against the wall clock: each
// admitted request occupies one of `virtual_servers` model servers for a
// configurable per-level service cost, and the backlog depth observed at
// a request's virtual arrival instant picks its admission level:
//
//   depth <  no_rag_depth       -> kFull
//   depth >= no_rag_depth       -> kNoRag
//   depth >= static_only_depth  -> kStaticOnly
//   depth >= shed_depth         -> kShed  (structured rejection)
//
// Because the model consumes only (arrival time, costs, thresholds) —
// never wall-clock measurements or the worker schedule — the decision
// sequence, the structured shed/degradation events and the virtual
// latency distribution are bit-identical at any --threads value. The
// degradation table (agents/degradation.hpp) maps each degraded level
// to the stage rungs it forces — the same rungs a failure steps to.

#include <cstdint>
#include <queue>
#include <mutex>
#include <string>
#include <vector>

#include "serve/request.hpp"

namespace qcgen::serve {

struct AdmissionOptions {
  /// Model servers in the virtual-time queue (NOT the worker thread
  /// count — tying admission to real threads would make shed decisions
  /// schedule-dependent).
  std::size_t virtual_servers = 4;
  /// Virtual service cost per admission level, in workload-clock
  /// seconds. Degraded levels cost less: no-rag skips retrieval,
  /// static-only additionally skips behavioural simulation.
  double full_cost = 1.0;
  double no_rag_cost = 0.8;
  double static_only_cost = 0.5;
  /// Backlog-depth thresholds (admitted-but-unfinished requests at the
  /// arrival instant). Each must not exceed the next.
  std::size_t no_rag_depth = 8;
  std::size_t static_only_depth = 16;
  std::size_t shed_depth = 32;

  /// Thresholds high enough that every request is admitted at kFull —
  /// the configuration for closed-loop tests and admission ablations.
  static AdmissionOptions unlimited() noexcept;
};

/// Admission verdict plus the virtual-time queue model figures for one
/// request (start/finish are 0 for kShed).
struct AdmissionTicket {
  AdmissionLevel level = AdmissionLevel::kFull;
  std::size_t depth = 0;  ///< backlog observed at the arrival instant
  double virtual_start = 0.0;
  double virtual_finish = 0.0;
};

/// Structured rejection: a request shed at admission.
struct ShedEvent {
  std::uint64_t request_id = 0;
  double arrival_vt = 0.0;
  std::size_t depth = 0;
  friend bool operator==(const ShedEvent&, const ShedEvent&) = default;
};

/// One stage start an admission level forces below its full rung (the
/// degradation table's admission column); a kStaticOnly admission
/// records both generate and verify.
struct AdmissionDegradation {
  std::uint64_t request_id = 0;
  double arrival_vt = 0.0;
  std::size_t depth = 0;
  std::string stage;  ///< "generate" or "verify"
  std::string from;
  std::string to;
  friend bool operator==(const AdmissionDegradation&,
                         const AdmissionDegradation&) = default;
};

/// Thread-safe but sequential by contract: offers are processed in call
/// order under one mutex, and callers should offer requests in
/// non-decreasing arrival_vt (the virtual clock never runs backwards; a
/// late offer is evaluated at the clock's high-water mark).
class AdmissionController {
 public:
  explicit AdmissionController(AdmissionOptions options);

  /// Decides one request's admission level and, when admitted, books it
  /// into the virtual queue model.
  AdmissionTicket offer(std::uint64_t request_id, double arrival_vt);

  const AdmissionOptions& options() const noexcept { return options_; }

  // -- deterministic snapshots (event order = offer order) --------------
  std::vector<ShedEvent> shed_events() const;
  std::vector<AdmissionDegradation> degradations() const;
  std::size_t offered() const;
  std::size_t shed() const;
  std::size_t admitted_at(AdmissionLevel level) const;

 private:
  /// Retires every virtually-finished request at instant `now`
  /// (caller holds the mutex).
  void advance(double now);

  AdmissionOptions options_;
  mutable std::mutex mutex_;
  double clock_ = 0.0;  ///< high-water mark of arrival instants
  /// Next-free instants of the model servers (min-heap, fixed size).
  std::priority_queue<double, std::vector<double>, std::greater<>> free_at_;
  /// Virtual finish instants of admitted-but-unfinished requests
  /// (min-heap); its size at an arrival instant is the backlog depth.
  std::priority_queue<double, std::vector<double>, std::greater<>>
      outstanding_;
  std::vector<ShedEvent> shed_events_;
  std::vector<AdmissionDegradation> degradations_;
  std::size_t offered_ = 0;
  std::size_t admitted_[3] = {0, 0, 0};  ///< per non-shed level
};

}  // namespace qcgen::serve
