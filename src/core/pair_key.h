// The one unordered pair-key packer shared by every per-pair table.
//
// The worker models' sticky tables and the round engine's one memo (its
// PairTable) all key pairs through this header, so the layout (lower id in
// the low word) is defined exactly once and every cache/table stays
// key-compatible with every other (serial memoized replays depend on it).
//
// The packing static_casts each id to uint32_t, so a negative ElementId —
// a kUnresolvedWinner sentinel or an uninitialized -1 leaking into a pair —
// would silently alias a huge valid-looking key instead of failing. The
// debug CHECK below catches that at the source; release-mode callers that
// accept untrusted pairs (VoteBatchComparator::GenerateVotes) refuse them
// via PairKeyable() before packing.

#ifndef CROWDMAX_CORE_PAIR_KEY_H_
#define CROWDMAX_CORE_PAIR_KEY_H_

#include <algorithm>
#include <cstdint>

#include "common/check.h"
#include "core/instance.h"

namespace crowdmax {

/// True iff both ids can be packed without aliasing: ElementIds are dense
/// non-negative indices, so any negative id is a sentinel, not an element.
inline bool PairKeyable(ElementId a, ElementId b) { return a >= 0 && b >= 0; }

/// Canonical unordered pair key: lower id in the low 32 bits, higher id in
/// the high 32 bits. PackPairKey(a, b) == PackPairKey(b, a).
inline uint64_t PackPairKey(ElementId a, ElementId b) {
  CROWDMAX_DCHECK(PairKeyable(a, b));
  const uint32_t lo = static_cast<uint32_t>(std::min(a, b));
  const uint32_t hi = static_cast<uint32_t>(std::max(a, b));
  return (static_cast<uint64_t>(hi) << 32) | lo;
}

}  // namespace crowdmax

#endif  // CROWDMAX_CORE_PAIR_KEY_H_
