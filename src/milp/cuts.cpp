#include "milp/cuts.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>

#include "common/invariant.hpp"
#include "obs/obs.hpp"

namespace rrp::milp {

double Cut::violation(const std::vector<double>& x) const {
  double activity = 0.0;
  for (const lp::Entry& e : entries) activity += e.coeff * x[e.col];
  double v = 0.0;
  if (lo > -lp::kInfinity) v = std::max(v, lo - activity);
  if (hi < lp::kInfinity) v = std::max(v, activity - hi);
  return v;
}

void LotSizingCutGenerator::add_chain(std::vector<LotSlot> slots,
                                      double initial_inventory) {
  RRP_EXPECTS(initial_inventory >= 0.0);
  chains_.push_back(Chain{std::move(slots), initial_inventory});
}

std::vector<Cut> LotSizingCutGenerator::separate(
    const std::vector<double>& x, double min_violation) const {
  RRP_TRACE_SPAN("cuts.separate");
  RRP_COUNTER_ADD("rrp.cuts.separation_calls", 1);
  std::vector<Cut> cuts;
  std::vector<double> cum;  // cumulative net demand through period l
  for (const Chain& chain : chains_) {
    const std::size_t horizon = chain.slots.size();
    cum.assign(horizon, 0.0);
    double running = -chain.initial_inventory;
    for (std::size_t t = 0; t < horizon; ++t) {
      running += chain.slots[t].demand;
      cum[t] = running;
    }
    for (std::size_t l = 0; l < horizon; ++l) {
      const double delta_l = std::max(cum[l], 0.0);
      if (delta_l <= 0.0) continue;  // no net demand to cover yet
      // Greedy exact separation: period t enters S when its alpha* is
      // below the capped-demand term it would otherwise contribute.
      Cut cut;
      cut.lo = delta_l;
      double lhs = 0.0;
      std::size_t setup_terms = 0;
      for (std::size_t t = 0; t <= l; ++t) {
        // Net demand of periods t..l after inventory absorption: the
        // standard transformation nets initial stock off the earliest
        // demands, so the netted cumulative through u is max(cum[u], 0)
        // and delta_tl = Delta_l - max(cum[t-1], 0) (capped at Delta_l
        // automatically, with cum[-1] = -initial_inventory).
        const double prev = t == 0 ? -chain.initial_inventory : cum[t - 1];
        const double delta_tl = std::max(delta_l - std::max(prev, 0.0), 0.0);
        const LotSlot& slot = chain.slots[t];
        const double alpha_val = x[slot.alpha];
        const double setup_val = delta_tl * x[slot.chi];
        if (alpha_val < setup_val) {
          cut.entries.push_back(lp::Entry{slot.alpha, 1.0});
          lhs += alpha_val;
        } else {
          if (delta_tl > 0.0)
            cut.entries.push_back(lp::Entry{slot.chi, delta_tl});
          lhs += setup_val;
          ++setup_terms;
        }
      }
      // S == L reproduces the aggregate flow-balance bound
      // sum alpha >= Delta_l, already implied by the model rows.
      if (setup_terms == 0) continue;
      if (delta_l - lhs > min_violation) cuts.push_back(std::move(cut));
    }
  }
  RRP_TRACE_ARG("violated", cuts.size());
  return cuts;
}

std::string CutPool::key(const Cut& cut) {
  std::vector<lp::Entry> sorted = cut.entries;
  std::sort(sorted.begin(), sorted.end(),
            [](const lp::Entry& a, const lp::Entry& b) {
              return a.col < b.col;
            });
  std::string key;
  key.reserve(sorted.size() * 24 + 48);
  char buf[32];  // fits any size_t and any "%.9g" double
  // to_chars with chars_format::general and precision 9 is specified
  // to print what printf's "%.9g" prints.
  auto append_double = [&](double v) {
    key.append(buf, std::to_chars(buf, buf + sizeof buf, v,
                                  std::chars_format::general, 9)
                        .ptr);
  };
  for (const lp::Entry& e : sorted) {
    key.append(buf, std::to_chars(buf, buf + sizeof buf, e.col).ptr);
    key += ':';
    append_double(e.coeff);
    key += ';';
  }
  key += '|';
  append_double(cut.lo);
  key += '|';
  append_double(cut.hi);
  return key;
}

bool CutPool::add(const Cut& cut) { return keys_.insert(key(cut)).second; }

}  // namespace rrp::milp
