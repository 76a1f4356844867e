// The link a campaign measures, one grid point at a time: Mother-Model
// TX -> RF chain (optional PA / phase noise, channel preset, AWGN at
// the point's SNR) -> reference receiver -> BER/EVM counters.
//
// A LinkRunner is built per (point, worker task); run_trial() is a pure
// function of (campaign_seed, point_index, trial_index) — payload bits
// and every stochastic block seed derive from Rng::substream — so the
// same trial computed by any worker, in any order, after any resume,
// contributes identical counts.
#pragma once

#include <cstddef>
#include <memory>

#include "core/transmitter.hpp"
#include "sim/deck.hpp"
#include "sim/estimator.hpp"

namespace ofdm::sim {

class LinkRunner {
 public:
  LinkRunner(const ScenarioDeck& deck, const PointSpec& point);
  ~LinkRunner();
  LinkRunner(LinkRunner&&) noexcept;
  LinkRunner& operator=(LinkRunner&&) noexcept;

  /// Run one Monte-Carlo trial; TrialResult::seconds is filled with the
  /// trial's wall time. The burst and receive buffers are reused
  /// across calls on the same thread; the result does not depend on
  /// which trials ran before.
  TrialResult run_trial(std::size_t trial_index);

  /// Payload bits per trial after resolving the deck's payload_bits=0
  /// ("recommended") default for this point's standard.
  std::size_t payload_bits() const;

 private:
  struct State;
  std::unique_ptr<State> state_;
};

}  // namespace ofdm::sim
