#include "workloads.hpp"

#include <cmath>
#include <cstdint>
#include <exception>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/deadline.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/demand.hpp"
#include "core/drrp.hpp"
#include "core/policies.hpp"
#include "core/price_distribution.hpp"
#include "core/rolling_horizon.hpp"
#include "core/scenario_tree.hpp"
#include "core/srrp.hpp"
#include "core/srrp_dp.hpp"
#include "core/wagner_whitin.hpp"
#include "market/instance_types.hpp"
#include "market/trace_generator.hpp"

namespace perfbench {
namespace {

using namespace rrp;

double now() { return common::real_clock().now_seconds(); }

/// Seconds taken by fn().
template <typename Fn>
double timed(Fn&& fn) {
  const double t0 = now();
  fn();
  return now() - t0;
}

/// Independent stream for one purpose of one workload seed.
Rng stream(std::uint64_t seed, std::uint64_t purpose) {
  return Rng(seed * 0x9e3779b97f4a7c15ULL + purpose * 0xbf58476d1ce4e5b9ULL +
             0x94d049bb133111ebULL);
}

/// Empty when `answer` is within a relative 1e-6 of `reference`.
std::string agree(double answer, double reference, const char* solver) {
  if (std::abs(answer - reference) <= 1e-6 * std::abs(reference)) return "";
  return std::string("cost ") + std::to_string(answer) + " != " + solver +
         " " + std::to_string(reference);
}

/// Runs one call of `ops` operations; an exception fails all of them.
template <typename Fn>
CallResult guarded_call(std::size_t ops, Fn&& fn) {
  CallResult r;
  try {
    fn(r);
  } catch (const std::exception& e) {
    r.failed_ops = ops;
    r.failure = std::string("exception: ") + e.what();
  }
  return r;
}

// --- drrp_fl -----------------------------------------------------------

/// Figure 10: uncapacitated DRRP per evaluation class at the class's
/// on-demand price, solved by the MILP (Auto = facility location).  The
/// figure plans 24 slots; 16 keeps the same cold-solve-bound shape in
/// 1.7 ms operations, short enough for the minimum over rounds to find
/// their fast time while the host is loaded, which 6.5 ms ones do not.
class DrrpFl final : public Workload {
 public:
  static constexpr std::size_t kPerClass = 40;
  static constexpr std::size_t kSlots = 16;

  double generate(std::uint64_t seed) override {
    for (market::VmClass vm : market::evaluation_classes()) {
      Rng rng = stream(seed, 100 + static_cast<std::uint64_t>(vm));
      for (std::size_t k = 0; k < kPerClass; ++k) {
        core::DrrpInstance inst;
        inst.vm = vm;
        inst.demand =
            core::generate_demand(kSlots, core::DemandConfig{}, rng);
        inst.compute_price.assign(kSlots, market::info(vm).on_demand_hourly);
        instances_.push_back(std::move(inst));
      }
    }
    return 0.0;
  }
  std::size_t num_calls() const override { return instances_.size(); }
  std::size_t ops_in_call(std::size_t) const override { return 1; }
  const char* span_name() const override { return "core.solve_drrp"; }

  CallResult call(std::size_t i) override {
    return guarded_call(ops_in_call(i), [&](CallResult& r) {
      core::RentalPlan plan;
      r.op_seconds = {timed([&] { plan = core::solve_drrp(instances_[i]); })};
      r.cost = plan.cost.total();
      if (plan.status != milp::MipStatus::Optimal) {
        r.failed_ops = 1;
        r.failure = "status not Optimal";
      }
    });
  }
  double no_plan_cost(std::size_t i) const override {
    return core::no_plan_schedule(instances_[i]).cost.total();
  }
  CheckResult check(std::size_t i, const CallResult& r) const override {
    CheckResult c;
    double reference = 0.0;
    c.wagner_whitin_seconds = timed([&] {
      reference = core::solve_drrp_wagner_whitin(instances_[i]).cost.total();
    });
    c.mismatch = agree(r.cost, reference, "Wagner-Whitin");
    return c;
  }

 private:
  std::vector<core::DrrpInstance> instances_;
};

// --- srrp_tree ---------------------------------------------------------

/// The aggregated SRRP deterministic equivalent on m1.xlarge: a small
/// tree that still needs a real branch-and-bound search with warm node
/// LPs.  Node counts are heavy-tailed, and both the prices and the
/// demand move them, so the instances are fixed: a grid of history
/// windows and bid quantiles over one market trace, with demand from a
/// fixed stream.  The seed draws the order in which the instances are
/// solved, which leaves every solve's work unchanged.  The tree is
/// {2,2,2,1,1} rather than {3,2,2,1,1}: the wider tree's 15 ms tail
/// solves seldom ran whole in a fast gap of a loaded host.
class SrrpTree final : public Workload {
 public:
  static constexpr std::size_t kInstances = 150;
  static constexpr std::size_t kHistoryHours = 24 * 30;
  static constexpr std::size_t kSupport = 12;
  static constexpr std::size_t kWindows = 37;    // coprime grid sizes, so
  static constexpr std::size_t kBidLevels = 41;  // every pair appears
  static constexpr std::uint64_t kMarketSeed = 2012;

  double generate(std::uint64_t seed) override {
    const market::VmClass vm = market::VmClass::M1Xlarge;
    const double lambda = market::info(vm).on_demand_hourly;
    const std::vector<std::size_t> widths = {2, 2, 2, 1, 1};
    std::vector<double> hourly;
    const double trace_seconds = timed([&] {
      hourly = market::generate_trace(vm, kMarketSeed).hourly();
    });
    Rng rng = stream(0, 201);
    const std::size_t span = hourly.size() - kHistoryHours;
    for (std::size_t k = 0; k < kInstances; ++k) {
      const std::size_t start = span * (k % kWindows) / kWindows;
      const std::span<const double> window(hourly.data() + start,
                                           kHistoryHours);
      const double q = 0.3 + 0.4 * static_cast<double>(k % kBidLevels) /
                                 static_cast<double>(kBidLevels - 1);
      const std::vector<double> bids(widths.size(),
                                     stats::quantile(window, q));
      const auto base =
          core::EmpiricalPriceDistribution::from_history(window, kSupport);
      core::SrrpInstance inst;
      inst.vm = vm;
      inst.demand =
          core::generate_demand(widths.size(), core::DemandConfig{}, rng);
      inst.tree = core::ScenarioTree::build(
          core::make_stage_supports(base, bids, lambda, widths));
      instances_.push_back(std::move(inst));
    }
    Rng order = stream(seed, 200);
    for (std::size_t k = instances_.size(); k > 1; --k) {
      const auto j = static_cast<std::size_t>(
          order.uniform_int(0, static_cast<std::int64_t>(k) - 1));
      std::swap(instances_[k - 1], instances_[j]);
    }
    return trace_seconds;
  }
  std::size_t num_calls() const override { return instances_.size(); }
  std::size_t ops_in_call(std::size_t) const override { return 1; }
  const char* span_name() const override { return "core.solve_srrp"; }

  CallResult call(std::size_t i) override {
    return guarded_call(ops_in_call(i), [&](CallResult& r) {
      core::SrrpPolicy policy;
      r.op_seconds = {timed([&] {
        policy = core::solve_srrp(instances_[i], {},
                                  core::SrrpFormulation::Aggregated);
      })};
      r.cost = policy.expected_cost;
      if (policy.status != milp::MipStatus::Optimal) {
        r.failed_ops = 1;
        r.failure = "status not Optimal";
      }
    });
  }
  /// No-plan cost is linear in the price, so running it at each stage's
  /// expected price gives its exact expected cost over the tree.
  double no_plan_cost(std::size_t i) const override {
    const core::SrrpInstance& s = instances_[i];
    core::DrrpInstance d;
    d.vm = s.vm;
    d.demand = s.demand;
    d.costs = s.costs;
    d.initial_storage = s.initial_storage;
    for (std::size_t t = 1; t <= s.tree.num_stages(); ++t) {
      double price = 0.0;
      for (std::size_t v : s.tree.stage_vertices(t))
        price += s.tree.vertex(v).path_prob * s.tree.vertex(v).price;
      d.compute_price.push_back(price);
    }
    return core::no_plan_schedule(d).cost.total();
  }
  CheckResult check(std::size_t i, const CallResult& r) const override {
    CheckResult c;
    double reference = 0.0;
    c.tree_dp_seconds = timed([&] {
      reference = core::solve_srrp_tree_dp(instances_[i]).expected_cost;
    });
    c.mismatch = agree(r.cost, reference, "tree DP");
    return c;
  }

 private:
  std::vector<core::SrrpInstance> instances_;
};

// --- replan_stream -----------------------------------------------------

/// The replan loop: sto-predict (SRRP on SARIMA-predicted bids)
/// re-planning every slot with a model refresh every slot, so each
/// re-plan runs the warm SARIMA refit ladder, the sliding price
/// distribution and the scenario-tree repair.  An operation is one
/// re-plan, timed by the simulator itself.  Each stream re-plans over
/// 30 days after 30 days of history on its own market trace.  The price
/// models' work, rare scratch refits above all, is decided by the
/// prices alone and dominates the mean, so the traces are fixed: every
/// seed maintains the same models, and the seed draws the demand that
/// the plans serve.
class ReplanStream final : public Workload {
 public:
  static constexpr std::size_t kStreams = 4;
  static constexpr std::size_t kHistoryHours = 24 * 30;
  static constexpr std::size_t kSlots = 720;
  static constexpr std::size_t kWindow = 168;
  /// Stream d re-plans on market trace kTraceSeed + d for every seed.
  static constexpr std::uint64_t kTraceSeed = 2012;

  double generate(std::uint64_t seed) override {
    const market::VmClass vm = market::VmClass::C1Medium;
    policy_ = core::sto_predict_policy();
    policy_.model_update_every = 1;
    policy_.replan_mode = core::ReplanMode::Incremental;
    policy_.forecast_window = kWindow;
    policy_.sarima_refit.diagnostic_window = kWindow;
    double trace_seconds = 0.0;
    Rng rng = stream(seed, 400);
    for (std::size_t d = 0; d < kStreams; ++d) {
      std::vector<double> hourly;
      trace_seconds += timed([&] {
        hourly = market::generate_trace(vm, kTraceSeed + d).hourly();
      });
      core::SimulationInputs in;
      in.vm = vm;
      in.history.assign(hourly.begin(),
                        hourly.begin() + long{kHistoryHours});
      in.actual_spot.assign(hourly.begin() + long{kHistoryHours},
                            hourly.begin() + long{kHistoryHours + kSlots});
      in.demand = core::generate_demand(kSlots, core::DemandConfig{}, rng);
      inputs_.push_back(std::move(in));
    }
    return trace_seconds;
  }
  std::size_t num_calls() const override { return inputs_.size(); }
  std::size_t ops_in_call(std::size_t i) const override {
    return inputs_[i].horizon();
  }
  const char* span_name() const override { return "core.simulate_policy"; }

  CallResult call(std::size_t i) override {
    return guarded_call(ops_in_call(i), [&](CallResult& r) {
      const core::SimulationResult sim =
          core::simulate_policy(inputs_[i], policy_);
      r.op_seconds = sim.replan_seconds;
      r.cost = sim.total_cost();
      if (!sim.fallbacks.empty()) {
        r.failed_ops = sim.fallbacks.size();
        r.failure = std::string("fallback at slot ") +
                    std::to_string(sim.fallbacks.front().slot) + ": " +
                    core::to_string(sim.fallbacks.front().reason);
      }
    });
  }
  double no_plan_cost(std::size_t i) const override {
    return core::simulate_policy(inputs_[i], core::no_plan_policy())
        .total_cost();
  }
  /// The ideal case (Wagner-Whitin on the realised prices) is a
  /// certified lower bound on every policy's realised cost.
  CheckResult check(std::size_t i, const CallResult& r) const override {
    CheckResult c;
    double ideal = 0.0;
    c.wagner_whitin_seconds =
        timed([&] { ideal = core::ideal_case_cost(inputs_[i]); });
    if (r.cost < ideal * (1.0 - 1e-9))
      c.mismatch = "cost " + std::to_string(r.cost) +
                   " below the ideal-case bound " + std::to_string(ideal);
    return c;
  }

 private:
  std::vector<core::SimulationInputs> inputs_;
  core::PolicyConfig policy_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(std::string_view name) {
  if (name == "drrp_fl") return std::make_unique<DrrpFl>();
  if (name == "srrp_tree") return std::make_unique<SrrpTree>();
  if (name == "replan_stream") return std::make_unique<ReplanStream>();
  return nullptr;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"drrp_fl", "srrp_tree",
                                                 "replan_stream"};
  return names;
}

}  // namespace perfbench
