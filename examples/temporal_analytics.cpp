// The wider valid-time join family (paper Section 4.1) and sequenced
// queries, on a reservation-system scenario.
//
// `bookings` holds room reservations; `maintenance` holds maintenance
// windows per room. We answer:
//  - which reservations clash with maintenance at all (overlap join),
//  - which maintenance windows fall entirely inside one reservation
//    (contain join, evaluated through the partition framework),
//  - the rooms' total booked time (projection, then coalescing), and
//  - the booked time net of maintenance (sequenced difference of the
//    two room projections, then coalescing).

#include <cstdio>
#include <string>

#include "core/partition_coalesce.h"
#include "query/query_plan.h"
#include "query/sequenced_exec.h"
#include "service/join_request.h"
#include "storage/disk.h"
#include "storage/stored_relation.h"

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

  Schema booking_schema({{"room", ValueType::kInt64},
                         {"guest", ValueType::kString}});
  Schema maint_schema({{"room", ValueType::kInt64},
                       {"task", ValueType::kString}});

  StoredRelation bookings(&disk, booking_schema, "bookings");
  auto book = [&](int64_t room, const char* guest, Chronon from, Chronon to) {
    TEMPO_CHECK(bookings.Append(Tuple({Value(room), Value(guest)},
                                      Interval(from, to)))
                    .ok());
  };
  book(101, "ada", 10, 40);
  book(101, "alan", 41, 45);
  book(102, "grace", 0, 90);
  book(103, "edsger", 20, 25);
  TEMPO_CHECK(bookings.Flush().ok());

  StoredRelation maintenance(&disk, maint_schema, "maintenance");
  auto maintain = [&](int64_t room, const char* task, Chronon from,
                      Chronon to) {
    TEMPO_CHECK(maintenance.Append(Tuple({Value(room), Value(task)},
                                         Interval(from, to)))
                    .ok());
  };
  maintain(101, "hvac", 35, 42);     // clashes with two bookings
  maintain(102, "paint", 30, 33);    // inside grace's long stay
  maintain(103, "roof", 50, 60);     // no clash
  TEMPO_CHECK(maintenance.Flush().ok());

  auto layout = DeriveNaturalJoinLayout(booking_schema, maint_schema);
  TEMPO_CHECK(layout.ok());

  JoinRequest req;
  req.From(&bookings, &maintenance)
      .Using(JoinExecutor::kPartition)
      .BufferPages(32);

  // --- Overlap join: every clash, stamped with the clash interval. -----
  {
    StoredRelation out(&disk, layout->output, "clashes");
    req.Predicate(TemporalPredicate::Overlap());
    auto stats = RunJoin(req, &out);
    TEMPO_CHECK(stats.ok());
    auto tuples = out.ReadAll();
    TEMPO_CHECK(tuples.ok());
    Print("reservation/maintenance clashes (overlap join):", *tuples);
  }

  // --- Contain join: maintenance wholly inside one reservation. Its r
  // side is also the answer to "which bookings contain a maintenance
  // window" (the contain-semijoin). -------------------------------------
  {
    StoredRelation out(&disk, layout->output, "contained");
    req.Predicate(TemporalPredicate::ContainJoin());
    auto stats = RunJoin(req, &out);
    TEMPO_CHECK(stats.ok());
    auto tuples = out.ReadAll();
    TEMPO_CHECK(tuples.ok());
    Print("maintenance inside a single reservation (contain join):",
          *tuples);
  }

  // Runs `plan`, coalesces its result into maximal intervals per value and
  // prints the rows.
  auto print_coalesced = [&](const char* title, const QueryPlan& plan,
                             const std::string& name) {
    auto result = RunSequencedQuery(plan, &disk, QueryOptions{}, nullptr,
                                    name);
    TEMPO_CHECK(result.ok());
    StoredRelation coalesced(&disk, result->relation->schema(),
                             name + ".coalesced");
    PartitionJoinOptions options;
    options.buffer_pages = 32;
    TEMPO_CHECK(
        PartitionCoalesce(result->relation.get(), &coalesced, options).ok());
    auto tuples = coalesced.ReadAll();
    TEMPO_CHECK(tuples.ok());
    Print(title, *tuples);
  };

  // --- Occupancy per room: project to room, coalesce. -------------------
  print_coalesced("room occupancy (projection + coalescing):",
                  QueryPlan::Scan(&bookings).Project({"room"}), "occupancy");

  // --- Calendar arithmetic: booked time not blocked by maintenance. -----
  print_coalesced(
      "booked time net of maintenance (difference + coalescing):",
      QueryPlan::Difference(QueryPlan::Scan(&bookings).Project({"room"}),
                            QueryPlan::Scan(&maintenance).Project({"room"})),
      "net");
  return 0;
}
