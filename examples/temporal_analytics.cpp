// The wider valid-time join family (paper Section 4.1) and the algebra
// operators, on a reservation-system scenario.
//
// `bookings` holds room reservations; `maintenance` holds maintenance
// windows per room. We answer:
//  - which reservations clash with maintenance at all (overlap join),
//  - which maintenance windows fall entirely inside one reservation
//    (contain join, evaluated through the partition framework),
//  - which bookings contain a maintenance window (contain-semijoin),
//  - the rooms' total booked time (coalescing + projection), and
//  - union/difference of two booking calendars.

#include <cstdio>

#include "algebra/operators.h"
#include "algebra/temporal_joins.h"
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

  // --- Contain join: maintenance wholly inside one reservation. --------
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

  // --- Contain-semijoin: the bookings that contain maintenance. --------
  {
    auto booked = bookings.ReadAll();
    auto maint = maintenance.ReadAll();
    TEMPO_CHECK(booked.ok());
    TEMPO_CHECK(maint.ok());
    auto semi = ContainSemiJoin(booking_schema, *booked, maint_schema,
                                *maint);
    TEMPO_CHECK(semi.ok());
    Print("bookings containing a maintenance window (contain-semijoin):",
          *semi);

    // --- Occupancy per room: project to room, coalesce. -----------------
    auto occupancy = Project(booking_schema, *booked, {0});
    TEMPO_CHECK(occupancy.ok());
    Print("room occupancy (projection + coalescing):", occupancy->second);

    // --- Allen selection: bookings strictly inside the month [0, 50]. ---
    Print("bookings during [0, 50]:",
          SelectAllen(*booked, AllenRelation::kDuring, Interval(0, 50)));

    // --- Calendar algebra: bookings not blocked by maintenance. ---------
    std::vector<Tuple> blocked;
    for (const Tuple& m : *maint) {
      // Rebuild maintenance rows in the booking schema by room to compare
      // value-equivalence per room id only.
      blocked.push_back(Tuple({m.value(0), Value("")}, m.interval()));
    }
    auto rooms_only = Project(booking_schema, *booked, {0});
    auto blocked_only = Project(booking_schema, blocked, {0});
    TEMPO_CHECK(rooms_only.ok());
    TEMPO_CHECK(blocked_only.ok());
    Print("bookable-and-booked time net of maintenance (difference):",
          VtDifference(rooms_only->second, blocked_only->second));
  }
  return 0;
}
