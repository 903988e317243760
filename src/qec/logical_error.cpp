#include "qec/logical_error.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/trace.hpp"
#include "qec/history_sampler.hpp"

namespace qcgen::qec {

double LogicalErrorEstimate::per_round_rate(std::size_t rounds) const {
  if (rounds == 0 || trials == 0) return 0.0;
  // Solve (1 - p_round)^rounds = 1 - p_total.
  const double p_total = logical_error_rate;
  if (p_total >= 1.0) return 1.0;
  return 1.0 - std::pow(1.0 - p_total, 1.0 / static_cast<double>(rounds));
}

namespace {

std::vector<std::uint64_t> pack(const std::vector<std::uint8_t>& bits) {
  std::vector<std::uint64_t> words((bits.size() + 63) / 64, 0);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    words[i / 64] |= static_cast<std::uint64_t>(bits[i] & 1) << (i % 64);
  }
  return words;
}

std::vector<std::uint64_t> pack_support(const std::vector<std::size_t>& support,
                                        std::size_t num_qubits) {
  std::vector<std::uint64_t> words((num_qubits + 63) / 64, 0);
  for (std::size_t q : support) words[q / 64] |= std::uint64_t{1} << (q % 64);
  return words;
}

bool odd_overlap(const std::vector<std::uint64_t>& a,
                 const std::vector<std::uint64_t>& b) {
  std::uint64_t parity = 0;
  for (std::size_t w = 0; w < a.size(); ++w) parity ^= a[w] & b[w];
  return (std::popcount(parity) & 1) != 0;
}

}  // namespace

TrialDecoder::TrialDecoder(const SurfaceCode& code, Decoder& z_decoder,
                           Decoder& x_decoder)
    : num_qubits_(code.num_data_qubits()),
      z_decoder_(z_decoder),
      x_decoder_(x_decoder),
      logical_x_(pack_support(code.logical_x_support(), num_qubits_)),
      logical_z_(pack_support(code.logical_z_support(), num_qubits_)),
      residual_x_((num_qubits_ + 63) / 64, 0),
      residual_z_((num_qubits_ + 63) / 64, 0) {
  require(z_decoder.stabilizer_type() == PauliType::kZ,
          "decode_history: z_decoder must decode Z stabilizers");
  require(x_decoder.stabilizer_type() == PauliType::kX,
          "decode_history: x_decoder must decode X stabilizers");
}

std::size_t TrialDecoder::correct(Decoder& decoder,
                                  std::span<const DetectionEvent> events,
                                  std::vector<std::uint64_t>& residual) {
  trace::TraceSpan span("qec.decode");
  qubits_.clear();
  decoder.decode_into(events, qubits_);
  for (std::size_t q : qubits_) {
    residual[q / 64] ^= std::uint64_t{1} << (q % 64);
  }
  return qubits_.size();
}

DecodeOutcome TrialDecoder::decode(std::span<const std::uint64_t> frame_x,
                                   std::span<const std::uint64_t> frame_z,
                                   std::span<const DetectionEvent> z_events,
                                   std::span<const DetectionEvent> x_events) {
  require(frame_x.size() == residual_x_.size() &&
              frame_z.size() == residual_z_.size(),
          "TrialDecoder::decode: frame size mismatch");
  std::copy_n(frame_x.begin(), residual_x_.size(), residual_x_.begin());
  std::copy_n(frame_z.begin(), residual_z_.size(), residual_z_.begin());
  DecodeOutcome outcome;
  // X errors: Z-stabilizer detection events; Z errors: X-stabilizer ones.
  outcome.corrections_applied += correct(z_decoder_, z_events, residual_x_);
  outcome.corrections_applied += correct(x_decoder_, x_events, residual_z_);
  trace::Metrics::counter(
      "qec.detection_events",
      static_cast<std::int64_t>(z_events.size() + x_events.size()));
  trace::Metrics::counter("qec.corrections",
                          static_cast<std::int64_t>(outcome.corrections_applied));
  // Residual X errors flip the logical qubit when they anticommute with
  // logical Z (odd overlap with its support); symmetrically for Z.
  outcome.x_flip = odd_overlap(residual_x_, logical_z_);
  outcome.z_flip = odd_overlap(residual_z_, logical_x_);
  return outcome;
}

PauliFrame TrialDecoder::residual() const {
  PauliFrame frame(num_qubits_);
  for (std::size_t q = 0; q < num_qubits_; ++q) {
    frame.x[q] = static_cast<std::uint8_t>((residual_x_[q / 64] >> (q % 64)) & 1);
    frame.z[q] = static_cast<std::uint8_t>((residual_z_[q / 64] >> (q % 64)) & 1);
  }
  return frame;
}

DecodeOutcome decode_history(const SurfaceCode& code, Decoder& z_decoder,
                             Decoder& x_decoder,
                             const SyndromeHistory& history) {
  TrialDecoder trial(code, z_decoder, x_decoder);
  require(history.frame.x.size() == code.num_data_qubits(),
          "decode_history: frame size mismatch");
  const auto z_events = detection_events(history, PauliType::kZ);
  const auto x_events = detection_events(history, PauliType::kX);
  return trial.decode(pack(history.frame.x), pack(history.frame.z), z_events,
                      x_events);
}

LogicalErrorEstimate estimate_logical_error(const SurfaceCode& code,
                                            DecoderKind kind,
                                            const LogicalErrorConfig& config) {
  require(config.trials >= 1, "estimate_logical_error: need trials >= 1");
  const std::size_t rounds =
      config.rounds == 0 ? static_cast<std::size_t>(code.distance())
                         : config.rounds;
  auto z_decoder = make_decoder(kind, code, PauliType::kZ);
  auto x_decoder = make_decoder(kind, code, PauliType::kX);
  HistorySampler sampler(code, rounds);
  TrialDecoder trial(code, *z_decoder, *x_decoder);

  LogicalErrorEstimate estimate;
  estimate.trials = config.trials;
  Rng rng(config.seed);
  trace::TraceSpan mc_span("qec.estimate_logical_error");
  // A decoder estimate is the pipeline's longest uninterruptible stretch,
  // so the Monte-Carlo loop is a cooperative cancellation point: a
  // cancelled or past-deadline request aborts between decoder rounds
  // instead of finishing the full trial budget. Checked every 32 trials
  // to keep the hot loop unburdened (the RNG stream is untouched, so
  // completed runs stay bit-identical with or without an armed deadline).
  constexpr std::size_t kCancelCheckStride = 32;
  for (std::size_t t = 0; t < config.trials; ++t) {
    if (t % kCancelCheckStride == 0) cancel::checkpoint("qec.decode.round");
    {
      trace::TraceSpan span("qec.syndrome_extraction");
      sampler.sample(config.noise, rng);
    }
    const DecodeOutcome outcome =
        trial.decode(sampler.frame_x(), sampler.frame_z(),
                     sampler.events(PauliType::kZ),
                     sampler.events(PauliType::kX));
    if (outcome.x_flip) ++estimate.x_failures;
    if (outcome.z_flip) ++estimate.z_failures;
    if (outcome.x_flip || outcome.z_flip) ++estimate.failures;
  }
  estimate.logical_error_rate = static_cast<double>(estimate.failures) /
                                static_cast<double>(estimate.trials);
  estimate.confidence = wilson_interval(estimate.failures, estimate.trials);
  return estimate;
}

}  // namespace qcgen::qec
