// The ABOVE (selection) query: CrowdScreen-style filtering with the
// paper's expert twist. Each item is compared against an anchor by a naive
// vote panel; unanimous panels classify the item, split panels escalate it
// to one expert judgment. An item farther than delta_n from the anchor is
// misclassified only by a unanimity fluke (<= 2^(1-votes) under the
// threshold model). A panel asks one pair several times for fresh
// answers, so both classes run unmemoized: one round each.

#ifndef CROWDMAX_CORE_ABOVE_H_
#define CROWDMAX_CORE_ABOVE_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/cost.h"
#include "core/execution.h"
#include "core/instance.h"

namespace crowdmax {

struct AboveQueryOptions {
  /// Naive votes per item-vs-anchor comparison; odd, >= 1.
  int64_t votes_per_item = 5;
  /// Send items with non-unanimous votes to one expert comparison each;
  /// when false, the naive majority decides them.
  bool expert_refine = true;
};

struct AboveResult {
  /// Items classified as larger than the anchor, and as smaller: the
  /// unanimous items in item order, then the escalated ones.
  std::vector<ElementId> above;
  std::vector<ElementId> below;
  /// Items whose panel was not unanimous, in item order.
  std::vector<ElementId> escalated;
  ComparisonStats paid;
  int64_t naive_steps = 0;
  int64_t expert_steps = 0;
  /// Executor backends only: a vote or a verdict was lost. An item with a
  /// lost vote escalates; an escalated item without a verdict takes the
  /// naive majority of the votes that arrived, the anchor winning ties.
  bool partial = false;
};

/// Classifies `items` against `anchor`: every vote panel, in item order,
/// on the `naive` class, then the escalated items on the `expert` class.
/// Returns InvalidArgument for no items, negative or repeated ids, an
/// anchor among the items, or an even or non-positive votes_per_item. A
/// whole-batch executor failure ends the query with its status.
Result<AboveResult> FindAbove(const std::vector<ElementId>& items,
                              ElementId anchor,
                              const AboveQueryOptions& options,
                              Execution naive, Execution expert);

}  // namespace crowdmax

#endif  // CROWDMAX_CORE_ABOVE_H_
