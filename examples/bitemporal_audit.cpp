// Bitemporal auditing — the paper's Section 5 destination ("a DBMS that
// supports both valid and transaction time").
//
// A payroll ledger records salaries with valid time (when the salary
// applied in the real world) under transaction time (when the database
// learned it). A correction arrives late: the database first believed one
// history, then revised it. Auditors need both answers:
//   "what do we NOW believe the March salary was?"      (current, vt=March)
//   "what did we believe IN FEBRUARY it was?"           (as-of, vt=March)
// plus headcount-over-time analytics via temporal aggregation.

#include <cstdio>

#include "bitemporal/bitemporal_relation.h"
#include "query/temporal_aggregate.h"

using namespace tempo;

namespace {

void Print(const char* title, const std::vector<Tuple>& tuples) {
  std::printf("%s\n", title);
  for (const Tuple& t : tuples) std::printf("  %s\n", t.ToString().c_str());
  std::printf("\n");
}

}  // namespace

int main() {
  Disk disk;
  // Valid time in days-of-year; transaction time in commit sequence.
  Schema schema({{"emp", ValueType::kString},
                 {"salary", ValueType::kInt64}});
  BitemporalRelation payroll(&disk, schema, "payroll");

  auto tuple = [&](const char* emp, int64_t salary, Chronon from,
                   Chronon to) {
    return Tuple({Value(emp), Value(salary)}, Interval(from, to));
  };

  // Tx 10 (January): the year's salaries are loaded.
  TEMPO_CHECK(payroll.Insert(tuple("ada", 5000, 1, 365), 10).ok());
  TEMPO_CHECK(payroll.Insert(tuple("grace", 5500, 1, 365), 10).ok());

  // Tx 40 (February): grace gets a raise effective day 90.
  TEMPO_CHECK(payroll
                  .Update(tuple("grace", 5500, 1, 365),
                          tuple("grace", 5500, 1, 89), 40)
                  .ok());
  TEMPO_CHECK(payroll.Insert(tuple("grace", 6200, 90, 365), 40).ok());

  // Tx 70 (March): a late correction — ada's salary had actually been
  // 5200 since day 60 all along. The old belief is retracted, the
  // corrected history recorded.
  TEMPO_CHECK(payroll
                  .Update(tuple("ada", 5000, 1, 365),
                          tuple("ada", 5000, 1, 59), 70)
                  .ok());
  TEMPO_CHECK(payroll.Insert(tuple("ada", 5200, 60, 365), 70).ok());

  // --- The two audit questions about valid day 75. ----------------------
  auto now_belief = payroll.Timeslice(/*as_of=*/80, /*vt=*/75);
  TEMPO_CHECK(now_belief.ok());
  Print("current belief about day 75:", *now_belief);

  auto feb_belief = payroll.Timeslice(/*as_of=*/50, /*vt=*/75);
  TEMPO_CHECK(feb_belief.ok());
  Print("what the database believed at tx 50 about day 75:", *feb_belief);

  // --- Full current history, reconstructed. ----------------------------
  auto current = payroll.SnapshotAsOf(80);
  TEMPO_CHECK(current.ok());
  Print("current valid-time history:", *current);

  // --- Analytics: total salary burn over time (temporal SUM). ----------
  AggregationSpec spec;
  spec.fn = AggregateFn::kSum;
  spec.value_attr = 1;
  auto burn = TemporalAggregate(schema, *current, spec);
  TEMPO_CHECK(burn.ok());
  Print("total salary over time (temporal SUM):", burn->second);

  // --- The audit trail itself: every version with its tx interval. -----
  auto versions = payroll.ReadAllVersions();
  TEMPO_CHECK(versions.ok());
  std::printf("audit trail (%llu versions, none ever deleted):\n",
              static_cast<unsigned long long>(payroll.num_versions()));
  for (const Tuple& v : *versions) {
    std::printf("  %s\n", v.ToString().c_str());
  }
  return 0;
}
