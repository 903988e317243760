#include "qec/pauli_frame.hpp"

#include "common/error.hpp"
#include "qec/history_sampler.hpp"

namespace qcgen::qec {

std::size_t PauliFrame::weight() const {
  std::size_t w = 0;
  for (std::size_t q = 0; q < x.size(); ++q) {
    if (x[q] || z[q]) ++w;
  }
  return w;
}

void PauliFrame::apply(const PauliFrame& other) {
  require(other.x.size() == x.size(), "PauliFrame::apply: size mismatch");
  for (std::size_t q = 0; q < x.size(); ++q) {
    x[q] ^= other.x[q];
    z[q] ^= other.z[q];
  }
}

Syndrome measure_syndrome(const SurfaceCode& code, const PauliFrame& frame) {
  require(frame.x.size() == code.num_data_qubits(),
          "measure_syndrome: frame size mismatch");
  Syndrome syn;
  const auto& x_idx = code.stabilizer_indices(PauliType::kX);
  const auto& z_idx = code.stabilizer_indices(PauliType::kZ);
  syn.x.assign(x_idx.size(), 0);
  syn.z.assign(z_idx.size(), 0);
  // X stabilizers anticommute with Z errors on their support.
  for (std::size_t pos = 0; pos < x_idx.size(); ++pos) {
    std::uint8_t parity = 0;
    for (std::size_t q : code.stabilizers()[x_idx[pos]].data_qubits) {
      parity ^= frame.z[q];
    }
    syn.x[pos] = parity;
  }
  // Z stabilizers anticommute with X errors on their support.
  for (std::size_t pos = 0; pos < z_idx.size(); ++pos) {
    std::uint8_t parity = 0;
    for (std::size_t q : code.stabilizers()[z_idx[pos]].data_qubits) {
      parity ^= frame.x[q];
    }
    syn.z[pos] = parity;
  }
  return syn;
}

SyndromeHistory sample_history(const SurfaceCode& code,
                               const PhenomenologicalNoise& noise,
                               std::size_t num_rounds, Rng& rng) {
  HistorySampler sampler(code, num_rounds);
  sampler.sample(noise, rng);
  return sampler.history();
}

bool logical_flip(const SurfaceCode& code, const PauliFrame& residual,
                  PauliType error_type) {
  // Residual X errors flip the logical qubit when they anticommute with
  // logical Z, i.e. odd overlap with its support; symmetrically for Z.
  std::uint8_t parity = 0;
  if (error_type == PauliType::kX) {
    for (std::size_t q : code.logical_z_support()) parity ^= residual.x[q];
  } else {
    for (std::size_t q : code.logical_x_support()) parity ^= residual.z[q];
  }
  return parity != 0;
}

}  // namespace qcgen::qec
