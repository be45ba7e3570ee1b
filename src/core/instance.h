// Problem instances for max-finding.
//
// An Instance is a multiset L of n elements with a hidden real value v(e)
// per element (Section 3 of the paper). Algorithms identify elements by
// dense ElementId and never read values directly; only comparators (the
// simulated workers) and evaluation code do.

#ifndef CROWDMAX_CORE_INSTANCE_H_
#define CROWDMAX_CORE_INSTANCE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"

namespace crowdmax {

/// Dense element identifier: index into the instance's value array.
using ElementId = int32_t;

/// An immutable multiset of elements with hidden values.
class Instance {
 public:
  /// Takes ownership of `values`; element i has value values[i].
  explicit Instance(std::vector<double> values);

  int64_t size() const { return static_cast<int64_t>(values_.size()); }
  bool empty() const { return values_.empty(); }

  double value(ElementId e) const {
    CROWDMAX_DCHECK(Contains(e));
    return values_[static_cast<size_t>(e)];
  }

  /// The paper's distance d(a, b) = |v(a) - v(b)|.
  double Distance(ElementId a, ElementId b) const;

  /// Relative difference |v(a)-v(b)| / max(|v(a)|, |v(b)|); 0 when both
  /// values are 0. Used by the empirically calibrated worker models.
  double RelativeDifference(ElementId a, ElementId b) const;

  bool Contains(ElementId e) const {
    return e >= 0 && static_cast<size_t>(e) < values_.size();
  }

  /// An element M with maximum value (lowest id among ties). Instance must
  /// be non-empty.
  ElementId MaxElement() const;

  /// True 1-based rank of `e`: 1 + number of elements with strictly greater
  /// value. The maximum has rank 1.
  int64_t Rank(ElementId e) const;

  /// u(delta) = |{e : d(M, e) <= delta}|, counting M itself, as in the
  /// paper's definition of u_n(n). Instance must be non-empty.
  int64_t CountWithin(double delta) const;

  /// |{e' : d(e, e') <= delta}|, counting `e` itself — the blind-spot size
  /// around an arbitrary element (used by the top-k extension, where the
  /// relevant quantity is the largest blind spot over the top-k elements).
  int64_t CountWithinOf(ElementId e, double delta) const;

  /// The smallest distance delta such that CountWithin(delta) >= u; i.e.
  /// the distance from M to its u-th closest element (M itself is the
  /// 1st). Requires 1 <= u <= size(). Used by instance generators to derive
  /// a threshold realizing a target u_n.
  double DeltaForU(int64_t u) const;

  /// Element ids [0, size()) in order, as the default input list for
  /// algorithms.
  std::vector<ElementId> AllElements() const;

 private:
  std::vector<double> values_;
};

/// OK when `ids` are distinct element ids; InvalidArgument naming the
/// first negative id (ElementIds are non-negative, core/pair_key.h) or a
/// repeated one otherwise. The one input check of every entry point that
/// takes an id list. Marks ids in an id-indexed bitmap, or sorts a copy
/// when the largest id would make that bitmap large next to the list (an
/// id near 2^31 would need 256 MiB).
Status CheckDistinctIds(std::span<const ElementId> ids);

}  // namespace crowdmax

#endif  // CROWDMAX_CORE_INSTANCE_H_
