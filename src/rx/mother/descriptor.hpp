// Human-readable description of the receiver instance a given OfdmParams
// reconfigures the RX Mother Model into: which sync front-end, channel
// estimator, demapper, interleaver and FEC decoders the chain engages.
// Backs `ofdm_campaign --list-rx` and the per-standard coverage tests.
#pragma once

#include <string>

#include "core/params.hpp"

namespace ofdm::rx {

struct RxDescriptor {
  std::string sync;         ///< "stf-ltf" | "cp-correlation" | "none"
  std::string equalizer;    ///< "ltf-average" | "phase-reference" | "none"
  std::string demapper;     ///< constellation / differential / bit-table
  std::string interleaver;  ///< "wlan" | "block RxC" | "cell" | "none"
  std::string inner_code;   ///< "conv K=k R=a/b" | "none"
  std::string outer_code;   ///< "RS(n,k)" | "none"
  bool soft_capable = false;  ///< soft demap + soft Viterbi available
  std::string chain;        ///< the full block order, arrow-joined
};

/// Describe the receiver the RX Mother Model instantiates for `params`.
RxDescriptor describe_receiver(const core::OfdmParams& params);

}  // namespace ofdm::rx
