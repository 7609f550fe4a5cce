// Seeded input mutations: a valid input with one field, row or comma
// broken must either still satisfy its invariants or be rejected with
// rrp::InvalidArgument -- never another exception type, and never a
// half-valid object.  Plain loops with fixed seeds, so every failure
// replays.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/rolling_horizon.hpp"
#include "market/spot_trace.hpp"

namespace {

using rrp::InvalidArgument;
using rrp::Rng;

// ---------------------------------------------------------------------------
// SpotTrace::load_csv
// ---------------------------------------------------------------------------

using Rows = std::vector<std::vector<std::string>>;

/// A valid trace: header, 40 strictly increasing ticks, two events.
Rows valid_trace_rows() {
  Rows rows = {{"time_hours", "price", "event"}};
  for (int i = 0; i < 40; ++i) {
    std::string event;
    if (i == 5) event = "revoke";
    if (i == 11) event = "storm";
    rows.push_back({std::to_string(0.25 + 1.1 * i),
                    std::to_string(0.05 + 0.001 * (i % 7)), event});
  }
  return rows;
}

std::string to_csv(const Rows& rows) {
  std::string text;
  for (const auto& row : rows) {
    for (std::size_t k = 0; k < row.size(); ++k) {
      if (k > 0) text += ',';
      text += row[k];
    }
    text += '\n';
  }
  return text;
}

std::size_t pick(Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

/// Applies one seeded mutation to `rows` and returns what it did.
std::string mutate(Rows& rows, Rng& rng) {
  static const char* const kBadValues[] = {"", "nan", "inf", "-1", "1e400"};
  const std::size_t r = pick(rng, rows.size());
  std::vector<std::string>& row = rows[r];
  const std::string at = " row " + std::to_string(r);
  switch (pick(rng, 7)) {
    case 0:
      rows.erase(rows.begin() + static_cast<long>(r));
      return "drop" + at;
    case 1: {
      const std::vector<std::string> copy = row;
      rows.insert(rows.begin() + static_cast<long>(r), copy);
      return "duplicate" + at;
    }
    case 2: {
      const std::size_t s = pick(rng, rows.size());
      std::swap(rows[r], rows[s]);
      return "swap" + at + " with " + std::to_string(s);
    }
    case 3: {
      const std::size_t f = pick(rng, row.size());
      const std::size_t v = pick(rng, std::size(kBadValues) + 1);
      row[f] = v < std::size(kBadValues) ? kBadValues[v] : row[f] + "x";
      return "field " + std::to_string(f) + at + " = \"" + row[f] + "\"";
    }
    case 4: {
      const std::size_t f = pick(rng, row.size() + 1);
      row.insert(row.begin() + static_cast<long>(f), "");
      return "add comma before field " + std::to_string(f) + at;
    }
    case 5: {
      if (row.size() < 2) return "no comma to remove" + at;
      const std::size_t f = pick(rng, row.size() - 1);
      row[f] += row[f + 1];
      row.erase(row.begin() + static_cast<long>(f + 1));
      return "remove comma after field " + std::to_string(f) + at;
    }
    default:
      row.resize(std::max<std::size_t>(row.size(), 3));
      row[2] = "evict";
      return "event" + at + " = \"evict\"";
  }
}

TEST(InputMutations, SpotTraceCsvLoadsValidOrThrowsInvalidArgument) {
  const std::string path =
      ::testing::TempDir() + "rrp_input_mutations_trace.csv";
  Rng rng(20260611);
  std::size_t loaded = 0, rejected = 0;
  for (int trial = 0; trial < 400; ++trial) {
    Rows rows = valid_trace_rows();
    const std::string what = mutate(rows, rng);
    SCOPED_TRACE("trial " + std::to_string(trial) + ": " + what);
    {
      std::ofstream out(path);
      out << to_csv(rows);
    }
    try {
      const auto trace = rrp::market::SpotTrace::load_csv(
          path, rrp::market::VmClass::C1Medium);
      ++loaded;
      const auto& ticks = trace.ticks();
      ASSERT_FALSE(ticks.empty());
      for (std::size_t i = 0; i < ticks.size(); ++i) {
        EXPECT_TRUE(std::isfinite(ticks[i].time_hours));
        EXPECT_TRUE(std::isfinite(ticks[i].value));
        EXPECT_GT(ticks[i].value, 0.0);
        if (i > 0) {
          EXPECT_GT(ticks[i].time_hours, ticks[i - 1].time_hours);
        }
      }
      for (const auto& m : trace.revocations())
        EXPECT_LT(m.tick_index, ticks.size());
    } catch (const InvalidArgument&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "unexpected exception: " << e.what();
    }
  }
  std::remove(path.c_str());
  // The seeded schedule reaches both outcomes.
  EXPECT_GT(loaded, 0u);
  EXPECT_GT(rejected, 0u);
}

// ---------------------------------------------------------------------------
// SimulationInputs::validate
// ---------------------------------------------------------------------------

rrp::core::SimulationInputs valid_inputs() {
  rrp::core::SimulationInputs in;
  in.demand = {1.0, 0.5, 2.0, 0.0, 1.5, 1.0};
  in.actual_spot = {0.06, 0.05, 0.07, 0.06, 0.05, 0.08};
  in.history.assign(30, 0.06);
  in.intra_slot_max = {0.07, 0.06, 0.09, 0.06, 0.06, 0.09};
  in.trace_revocations.assign(6, rrp::market::HourlyRevocation{});
  in.revocation = rrp::market::RevocationConfig::storm();
  return in;
}

struct FieldMutation {
  std::string field;  ///< must appear in the error message
  std::function<void(rrp::core::SimulationInputs&, double)> set;
};

TEST(InputMutations, SimulationInputsRejectEachBadFieldByName) {
  using Inputs = rrp::core::SimulationInputs;
  Rng rng(20260612);
  const auto element = [&rng](std::vector<double> Inputs::*series) {
    return [&rng, series](Inputs& in, double v) {
      // A seeded slot, so the check cannot stop at the first element.
      auto& s = in.*series;
      s[pick(rng, s.size())] = v;
    };
  };
  const auto scalar = [](double Inputs::*field) {
    return [field](Inputs& in, double v) { in.*field = v; };
  };
  const auto revocation = [](double rrp::market::RevocationConfig::*field) {
    return [field](Inputs& in, double v) { in.revocation.*field = v; };
  };
  const std::vector<FieldMutation> fields = {
      {"demand", element(&Inputs::demand)},
      {"actual_spot", element(&Inputs::actual_spot)},
      {"history", element(&Inputs::history)},
      {"intra_slot_max", element(&Inputs::intra_slot_max)},
      {"initial_storage", scalar(&Inputs::initial_storage)},
      {"hazard_per_slot",
       revocation(&rrp::market::RevocationConfig::hazard_per_slot)},
      {"storm_rate", revocation(&rrp::market::RevocationConfig::storm_rate)},
      {"storm_severity",
       revocation(&rrp::market::RevocationConfig::storm_severity)},
      {"checkpoint_interval",
       revocation(&rrp::market::RevocationConfig::checkpoint_interval)},
      {"checkpoint_overhead",
       revocation(&rrp::market::RevocationConfig::checkpoint_overhead)},
      {"restart_cost",
       revocation(&rrp::market::RevocationConfig::restart_cost)},
      {"migration_cost",
       revocation(&rrp::market::RevocationConfig::migration_cost)},
  };
  const double kInf = std::numeric_limits<double>::infinity();
  const double bad_values[] = {std::numeric_limits<double>::quiet_NaN(), kInf,
                               -kInf, -1.0};

  valid_inputs().validate();  // the baseline itself is valid
  const auto expect_rejected = [](const Inputs& in, const std::string& field,
                                  const std::string& what) {
    SCOPED_TRACE(field + " = " + what);
    try {
      in.validate();
      ADD_FAILURE() << "accepted";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << "message was: " << e.what();
    } catch (const std::exception& e) {
      ADD_FAILURE() << "unexpected exception: " << e.what();
    }
  };
  for (const FieldMutation& m : fields) {
    for (double v : bad_values) {
      Inputs in = valid_inputs();
      m.set(in, v);
      std::ostringstream what;
      what << v;
      expect_rejected(in, m.field, what.str());
    }
  }

  // Wrong lengths and empty series.  An empty intra_slot_max or
  // trace_revocations means "none" and is valid.
  const std::vector<std::pair<std::string, std::function<void(Inputs&)>>>
      shapes = {
          {"demand", [](Inputs& in) { in.demand.clear(); }},
          {"demand", [](Inputs& in) { in.demand.push_back(1.0); }},
          {"actual_spot", [](Inputs& in) { in.actual_spot.clear(); }},
          {"actual_spot", [](Inputs& in) { in.actual_spot.pop_back(); }},
          {"history", [](Inputs& in) { in.history.clear(); }},
          {"intra_slot_max", [](Inputs& in) { in.intra_slot_max.pop_back(); }},
          {"trace_revocations",
           [](Inputs& in) { in.trace_revocations.push_back({}); }},
      };
  for (const auto& [field, set] : shapes) {
    Inputs in = valid_inputs();
    set(in);
    expect_rejected(in, field, "wrong length or empty");
  }
  Inputs none = valid_inputs();
  none.intra_slot_max.clear();
  none.trace_revocations.clear();
  EXPECT_NO_THROW(none.validate());
}

}  // namespace
