#ifndef TEMPO_SAMPLING_RELATION_SAMPLER_H_
#define TEMPO_SAMPLING_RELATION_SAMPLER_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/statusor.h"
#include "storage/stored_relation.h"
#include "temporal/interval.h"

namespace tempo {

/// Draws uniform samples of a stored relation's validity intervals,
/// without replacement, incrementally.
///
/// determinePartIntervals (Appendix A.2) grows its sample set as it
/// examines larger candidate partition sizes, so the sampler keeps its
/// position across calls: DrawRandom(k) returns k *additional* samples,
/// each costing one random page read.
///
/// The paper's Section 4.2 optimization: when the required number of
/// samples exceeds the sequential-scan break-even point, the algorithm
/// "sequentially scans the outer relation, drawing samples randomly when a
/// page of the relation is brought into main memory". SwitchToScan()
/// implements this — it charges one full sequential scan and thereafter any
/// number of samples is free.
class RelationSampler {
 public:
  RelationSampler(StoredRelation* relation, Random* rng);

  /// Total tuples available to sample.
  uint64_t population() const { return population_; }
  /// Samples drawn so far (all modes).
  uint64_t num_drawn() const { return drawn_.size(); }
  bool scanned() const { return scanned_; }

  /// Draws `count` additional distinct samples by random page reads and
  /// appends their intervals to the internal sample set. Clamped to the
  /// remaining population. Returns the number actually drawn.
  StatusOr<uint64_t> DrawRandom(uint64_t count);

  /// Charges one sequential scan of the relation and makes the entire
  /// population available as samples at no further I/O cost. Subsequent
  /// DrawRandom calls draw from the in-memory residue for free.
  Status SwitchToScan();

  /// All sample intervals drawn so far, in draw order.
  const std::vector<Interval>& samples() const { return drawn_; }

  /// Moves the sample set out, leaving the sampler with none.
  std::vector<Interval> TakeSamples() { return std::move(drawn_); }

  /// I/O (in random-read units under `random_weight`:1 weighting) that
  /// drawing `additional` more samples would cost in the current mode.
  /// Used by the optimizer to decide when scanning becomes cheaper.
  double EstimateDrawCost(uint64_t additional, double random_weight) const;

  /// Cost of SwitchToScan() if not yet scanned: 1 random + (pages-1)
  /// sequential.
  double ScanCost(double random_weight) const;

 private:
  StoredRelation* relation_;
  Random* rng_;
  uint64_t population_;
  // Lazily shuffled permutation of tuple ordinals; next_ is the cursor.
  std::vector<uint64_t> permutation_;
  uint64_t next_ = 0;
  std::vector<Interval> drawn_;
  bool scanned_ = false;
  // When scanned_, intervals of the whole relation indexed by ordinal.
  std::vector<Interval> all_intervals_;
};

}  // namespace tempo

#endif  // TEMPO_SAMPLING_RELATION_SAMPLER_H_
