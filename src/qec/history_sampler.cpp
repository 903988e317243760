#include "qec/history_sampler.hpp"

#include <algorithm>
#include <bit>

#include "common/error.hpp"

namespace qcgen::qec {

namespace {
constexpr std::size_t words_for(std::size_t bits) { return (bits + 63) / 64; }
}  // namespace

HistorySampler::HistorySampler(const SurfaceCode& code, std::size_t num_rounds)
    : num_qubits_(code.num_data_qubits()),
      num_rounds_(num_rounds),
      words_(words_for(num_qubits_)),
      frame_x_(words_, 0),
      frame_z_(words_, 0) {
  require(num_rounds >= 1, "sample_history: need at least one round");
  for (PauliType type : {PauliType::kX, PauliType::kZ}) {
    Side& side = type == PauliType::kX ? x_ : z_;
    side.bits = code.num_stabilizers(type);
    side.words = words_for(side.bits);
    side.masks.assign(num_qubits_ * side.words, 0);
    for (std::size_t q = 0; q < num_qubits_; ++q) {
      for (std::size_t pos : code.stabilizers_on_qubit(type, q)) {
        side.masks[q * side.words + pos / 64] |= std::uint64_t{1} << (pos % 64);
      }
    }
    side.clean.assign(side.words, 0);
    side.rows.assign((num_rounds + 2) * side.words, 0);
  }
}

void HistorySampler::measure(Side& side, std::size_t round, double meas_error,
                             Rng& rng) {
  std::uint64_t* row = side.row(round);
  std::copy(side.clean.begin(), side.clean.end(), row);
  for (std::size_t pos = 0; pos < side.bits; ++pos) {
    if (rng.bernoulli(meas_error)) row[pos / 64] ^= std::uint64_t{1} << (pos % 64);
  }
}

void HistorySampler::emit(const Side& side, std::size_t round,
                          std::vector<DetectionEvent>& events) {
  const std::uint64_t* prev = side.rows.data() + round * side.words;
  const std::uint64_t* cur = prev + side.words;
  for (std::size_t w = 0; w < side.words; ++w) {
    for (std::uint64_t diff = cur[w] ^ prev[w]; diff != 0; diff &= diff - 1) {
      events.push_back(DetectionEvent{
          w * 64 + static_cast<std::size_t>(std::countr_zero(diff)), round});
    }
  }
}

void HistorySampler::sample(const PhenomenologicalNoise& noise, Rng& stream) {
  // Draw from a local copy: the frame and syndrome stores could otherwise
  // alias the generator's state, forcing it through memory on every draw.
  Rng rng = stream;
  std::fill(frame_x_.begin(), frame_x_.end(), 0);
  std::fill(frame_z_.begin(), frame_z_.end(), 0);
  std::fill(x_.clean.begin(), x_.clean.end(), 0);
  std::fill(z_.clean.begin(), z_.clean.end(), 0);
  x_events_.clear();
  z_events_.clear();
  for (std::size_t round = 0; round < num_rounds_; ++round) {
    // Depolarising data noise: X, Y, Z each with probability p/3. Z
    // stabilizers detect the X part, X stabilizers the Z part.
    for (std::size_t q = 0; q < num_qubits_; ++q) {
      if (!rng.bernoulli(noise.data_error)) continue;
      const std::uint64_t bit = std::uint64_t{1} << (q % 64);
      const std::uint64_t kind = rng.uniform_int(static_cast<std::uint64_t>(3));
      if (kind != 2) {  // X or Y
        frame_x_[q / 64] ^= bit;
        z_.toggle(q);
      }
      if (kind != 0) {  // Y or Z
        frame_z_[q / 64] ^= bit;
        x_.toggle(q);
      }
    }
    // Faulty readout: every X-syndrome flip is drawn before any Z one.
    measure(x_, round, noise.meas_error, rng);
    measure(z_, round, noise.meas_error, rng);
    emit(x_, round, x_events_);
    emit(z_, round, z_events_);
  }
  // Final perfect round.
  measure(x_, num_rounds_, 0.0, rng);
  measure(z_, num_rounds_, 0.0, rng);
  emit(x_, num_rounds_, x_events_);
  emit(z_, num_rounds_, z_events_);
  stream = rng;
}

SyndromeHistory HistorySampler::history() const {
  SyndromeHistory history(num_qubits_);
  const auto bit = [](const std::uint64_t* words, std::size_t i) {
    return static_cast<std::uint8_t>((words[i / 64] >> (i % 64)) & 1);
  };
  for (std::size_t q = 0; q < num_qubits_; ++q) {
    history.frame.x[q] = bit(frame_x_.data(), q);
    history.frame.z[q] = bit(frame_z_.data(), q);
  }
  history.rounds.resize(num_rounds_ + 1);
  for (std::size_t round = 0; round <= num_rounds_; ++round) {
    Syndrome& syn = history.rounds[round];
    for (const auto& [side, bits] : {std::pair{&x_, &syn.x}, std::pair{&z_, &syn.z}}) {
      const std::uint64_t* row = side->rows.data() + (round + 1) * side->words;
      bits->resize(side->bits);
      for (std::size_t pos = 0; pos < bits->size(); ++pos) {
        (*bits)[pos] = bit(row, pos);
      }
    }
  }
  return history;
}

}  // namespace qcgen::qec
