#include "query/temporal_aggregate.h"

#include <algorithm>
#include <map>
#include <set>

namespace tempo {

const char* AggregateFnName(AggregateFn fn) {
  switch (fn) {
    case AggregateFn::kCount:
      return "count";
    case AggregateFn::kSum:
      return "sum";
    case AggregateFn::kMin:
      return "min";
    case AggregateFn::kMax:
      return "max";
  }
  return "?";
}

namespace {

/// Sweeps one group's intervals and appends the constant-value segments.
void SweepGroup(const std::vector<const Tuple*>& group,
                const AggregationSpec& spec,
                const std::vector<Value>& group_values,
                std::vector<Tuple>* out) {
  // Events: value enters at start, leaves after end.
  struct Event {
    Chronon at;
    bool enter;
    int64_t value;
  };
  std::vector<Event> events;
  events.reserve(group.size() * 2);
  for (const Tuple* t : group) {
    int64_t v = 0;
    if (spec.fn != AggregateFn::kCount) {
      const Value& value = t->value(spec.value_attr);
      if (value.is_null()) continue;  // SQL aggregates skip NULLs
      v = value.AsInt64();
    }
    events.push_back({t->interval().start(), true, v});
    if (t->interval().end() != kChrononMax) {
      events.push_back({t->interval().end() + 1, false, v});
    }
  }
  std::sort(events.begin(), events.end(),
            [](const Event& a, const Event& b) {
              if (a.at != b.at) return a.at < b.at;
              return a.enter < b.enter;  // exits before entries at t
            });

  int64_t count = 0;
  int64_t sum = 0;
  std::multiset<int64_t> active_values;  // only maintained for min/max

  auto current = [&]() -> int64_t {
    switch (spec.fn) {
      case AggregateFn::kCount:
        return count;
      case AggregateFn::kSum:
        return sum;
      case AggregateFn::kMin:
        return *active_values.begin();
      case AggregateFn::kMax:
        return *active_values.rbegin();
    }
    return 0;
  };

  bool open = false;
  Chronon seg_start = 0;
  int64_t seg_value = 0;
  auto close_segment = [&](Chronon end) {
    if (!open) return;
    std::vector<Value> values = group_values;
    values.emplace_back(seg_value);
    out->push_back(Tuple(std::move(values), Interval(seg_start, end)));
    open = false;
  };

  size_t i = 0;
  while (i < events.size()) {
    Chronon at = events[i].at;
    // Apply every event at this chronon.
    for (; i < events.size() && events[i].at == at; ++i) {
      const Event& e = events[i];
      int delta = e.enter ? 1 : -1;
      count += delta;
      sum += e.enter ? e.value : -e.value;
      if (spec.fn == AggregateFn::kMin || spec.fn == AggregateFn::kMax) {
        if (e.enter) {
          active_values.insert(e.value);
        } else {
          active_values.erase(active_values.find(e.value));
        }
      }
    }
    if (count == 0) {
      close_segment(at - 1);
      continue;
    }
    int64_t value = current();
    if (open && value == seg_value) continue;  // segment extends
    close_segment(at - 1);
    open = true;
    seg_start = at;
    seg_value = value;
  }
  // All intervals are closed, so the final exit event drives count to 0
  // and closes the last segment — unless a tuple ends at kChrononMax.
  close_segment(kChrononMax);
}

}  // namespace

StatusOr<std::pair<Schema, std::vector<Tuple>>> TemporalAggregate(
    const Schema& schema, const std::vector<Tuple>& tuples,
    const AggregationSpec& spec) {
  if (spec.fn != AggregateFn::kCount) {
    if (spec.value_attr >= schema.num_attributes()) {
      return Status::InvalidArgument("aggregate attribute out of range");
    }
    if (schema.attribute(spec.value_attr).type != ValueType::kInt64) {
      return Status::InvalidArgument(
          "aggregation requires an int64 attribute");
    }
  }
  std::vector<Attribute> out_attrs;
  for (size_t pos : spec.group_by) {
    if (pos >= schema.num_attributes()) {
      return Status::InvalidArgument("group-by attribute out of range");
    }
    out_attrs.push_back(schema.attribute(pos));
  }
  out_attrs.push_back(Attribute{AggregateFnName(spec.fn), ValueType::kInt64});
  TEMPO_ASSIGN_OR_RETURN(Schema out_schema,
                         Schema::Make(std::move(out_attrs)));

  // Group tuples by the group-by values (deterministic Value order).
  std::map<std::vector<Value>, std::vector<const Tuple*>> groups;
  for (const Tuple& t : tuples) {
    std::vector<Value> key;
    key.reserve(spec.group_by.size());
    for (size_t pos : spec.group_by) key.push_back(t.value(pos));
    groups[std::move(key)].push_back(&t);
  }

  std::vector<Tuple> out;
  for (const auto& [group_values, group] : groups) {
    SweepGroup(group, spec, group_values, &out);
  }
  return std::make_pair(std::move(out_schema), std::move(out));
}

}  // namespace tempo
