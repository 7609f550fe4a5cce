#include "core/markov_prices.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/stats.hpp"

namespace rrp::core {

MarkovPriceModel MarkovPriceModel::fit(std::span<const double> hourly,
                                       std::size_t states) {
  RRP_EXPECTS(states >= 2);
  RRP_EXPECTS(hourly.size() >= 4 * states);
  for (double p : hourly) RRP_EXPECTS(p > 0.0);

  MarkovPriceModel model;
  // Quantile bucket boundaries; duplicates (heavily quantised data)
  // are collapsed, so the effective state count may be smaller.
  std::vector<double> bounds;
  for (std::size_t k = 1; k < states; ++k) {
    const double q = stats::quantile(
        hourly, static_cast<double>(k) / static_cast<double>(states));
    if (bounds.empty() || q > bounds.back() + 1e-12) bounds.push_back(q);
  }
  model.boundaries_ = bounds;
  const std::size_t n_states = bounds.size() + 1;

  // Representatives: mean price within each bucket.
  std::vector<double> sums(n_states, 0.0);
  std::vector<std::size_t> counts(n_states, 0);
  auto bucket = [&bounds](double price) {
    return static_cast<std::size_t>(
        std::upper_bound(bounds.begin(), bounds.end(), price) -
        bounds.begin());
  };
  for (double p : hourly) {
    const std::size_t b = bucket(p);
    sums[b] += p;
    ++counts[b];
  }
  model.prices_.resize(n_states);
  for (std::size_t b = 0; b < n_states; ++b) {
    // An empty interior bucket can only arise from pathological
    // boundary collapse; fall back to the midpoint of its bounds.
    if (counts[b] > 0) {
      model.prices_[b] = sums[b] / static_cast<double>(counts[b]);
    } else if (b == 0) {
      model.prices_[b] = bounds.front();
    } else if (b == n_states - 1) {
      model.prices_[b] = bounds.back();
    } else {
      model.prices_[b] = 0.5 * (bounds[b - 1] + bounds[b]);
    }
  }

  // Transition counts with Laplace smoothing.
  model.transition_.assign(n_states, std::vector<double>(n_states, 0.1));
  for (std::size_t t = 1; t < hourly.size(); ++t)
    model.transition_[bucket(hourly[t - 1])][bucket(hourly[t])] += 1.0;
  for (auto& row : model.transition_) {
    double total = 0.0;
    for (double v : row) total += v;
    for (double& v : row) v /= total;
  }
  return model;
}

std::size_t MarkovPriceModel::state_of(double price) const {
  return static_cast<std::size_t>(
      std::upper_bound(boundaries_.begin(), boundaries_.end(), price) -
      boundaries_.begin());
}

std::vector<PricePoint> MarkovPriceModel::conditional_support(
    std::size_t state) const {
  RRP_EXPECTS(state < num_states());
  std::vector<PricePoint> out;
  out.reserve(num_states());
  for (std::size_t next = 0; next < num_states(); ++next) {
    out.push_back(
        PricePoint{prices_[next], transition_[state][next], false});
  }
  return out;
}

std::vector<PricePoint> MarkovPriceModel::conditional_truncated(
    std::size_t state, double bid, double lambda,
    std::size_t max_points) const {
  RRP_EXPECTS(bid >= 0.0);
  RRP_EXPECTS(lambda > 0.0);
  RRP_EXPECTS(max_points >= 1);
  // Bid truncation (paper eq. (10)) applied to the conditional row.
  std::vector<PricePoint> kept;
  double in_bid = 0.0;
  for (const PricePoint& p : conditional_support(state)) {
    if (p.price <= bid) {
      kept.push_back(p);
      in_bid += p.prob;
    }
  }
  const double oob = 1.0 - in_bid;
  if (oob > 1e-12) {
    kept.push_back(PricePoint{lambda, oob, true});
  } else if (!kept.empty()) {
    kept.back().prob += oob;
  }
  RRP_ENSURES(!kept.empty());
  return reduce_support(kept, max_points);
}

ScenarioTree MarkovPriceModel::build_tree(
    double current_price, std::span<const double> bids, double lambda,
    std::span<const std::size_t> widths) const {
  RRP_EXPECTS(!bids.empty());
  RRP_EXPECTS(widths.size() == bids.size());
  const auto initial = conditional_truncated(state_of(current_price),
                                             bids[0], lambda, widths[0]);
  // The callback runs only inside build_conditional, so it can view the
  // caller's bids and widths instead of copying them.
  return ScenarioTree::build_conditional(
      initial, bids.size(),
      [this, bids, widths, lambda](const ScenarioVertex& parent,
                                   std::size_t stage) {
        // An out-of-bid parent carries price = lambda, which clamps to
        // the highest bucket — conditioning on "the market was above
        // our bid".
        const std::size_t state = state_of(parent.price);
        return conditional_truncated(state, bids[stage - 1], lambda,
                                     widths[stage - 1]);
      });
}

}  // namespace rrp::core
