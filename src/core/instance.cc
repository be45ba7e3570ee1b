#include "core/instance.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

namespace crowdmax {

Instance::Instance(std::vector<double> values) : values_(std::move(values)) {}

double Instance::Distance(ElementId a, ElementId b) const {
  return std::fabs(value(a) - value(b));
}

double Instance::RelativeDifference(ElementId a, ElementId b) const {
  const double va = std::fabs(value(a));
  const double vb = std::fabs(value(b));
  const double denom = std::max(va, vb);
  if (denom == 0.0) return 0.0;
  return std::fabs(value(a) - value(b)) / denom;
}

ElementId Instance::MaxElement() const {
  CROWDMAX_CHECK(!values_.empty());
  size_t best = 0;
  for (size_t i = 1; i < values_.size(); ++i) {
    if (values_[i] > values_[best]) best = i;
  }
  return static_cast<ElementId>(best);
}

int64_t Instance::Rank(ElementId e) const {
  CROWDMAX_DCHECK(Contains(e));
  const double v = value(e);
  int64_t greater = 0;
  for (double other : values_) {
    if (other > v) ++greater;
  }
  return greater + 1;
}

int64_t Instance::CountWithin(double delta) const {
  return CountWithinOf(MaxElement(), delta);
}

int64_t Instance::CountWithinOf(ElementId e, double delta) const {
  CROWDMAX_DCHECK(Contains(e));
  const double ve = value(e);
  int64_t count = 0;
  for (double v : values_) {
    if (std::fabs(ve - v) <= delta) ++count;
  }
  return count;
}

double Instance::DeltaForU(int64_t u) const {
  CROWDMAX_CHECK(u >= 1 && u <= size());
  const double vmax = value(MaxElement());
  std::vector<double> distances;
  distances.reserve(values_.size());
  for (double v : values_) distances.push_back(std::fabs(vmax - v));
  // The u-th smallest distance (1-based); nth_element is O(n).
  std::nth_element(distances.begin(),
                   distances.begin() + static_cast<size_t>(u - 1),
                   distances.end());
  return distances[static_cast<size_t>(u - 1)];
}

std::vector<ElementId> Instance::AllElements() const {
  std::vector<ElementId> out(values_.size());
  for (size_t i = 0; i < values_.size(); ++i) {
    out[i] = static_cast<ElementId>(i);
  }
  return out;
}

Status CheckDistinctIds(std::span<const ElementId> ids) {
  ElementId max_id = -1;
  for (const ElementId id : ids) {
    if (id < 0) {
      return Status::InvalidArgument("negative element id " +
                                     std::to_string(id) + " in input");
    }
    max_id = std::max(max_id, id);
  }
  const auto repeated = [](ElementId id) {
    return Status::InvalidArgument("duplicate element id " +
                                   std::to_string(id) + " in input");
  };
  // A bitmap of at most 64 bits per listed id (plus a small floor) is no
  // larger than twice the list itself.
  const size_t bitmap_ids = static_cast<size_t>(max_id) + 1;
  if (bitmap_ids <= 64 * ids.size() + 4096) {
    std::vector<uint64_t> seen((bitmap_ids + 63) / 64, 0);
    for (const ElementId id : ids) {
      uint64_t& word = seen[static_cast<size_t>(id) >> 6];
      const uint64_t bit = uint64_t{1} << (id & 63);
      if ((word & bit) != 0) return repeated(id);
      word |= bit;
    }
    return Status::OK();
  }
  std::vector<ElementId> sorted(ids.begin(), ids.end());
  std::sort(sorted.begin(), sorted.end());
  const auto repeat = std::adjacent_find(sorted.begin(), sorted.end());
  return repeat == sorted.end() ? Status::OK() : repeated(*repeat);
}

}  // namespace crowdmax
