#include "milp/branch_and_bound.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <limits>
#include <memory>
#include <queue>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/invariant.hpp"
#include "common/sync.hpp"
#include "common/thread_pool.hpp"
#include "milp/cuts.hpp"
#include "obs/obs.hpp"

namespace rrp::milp {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Separation rounds at the root (each round re-solves the LP).
constexpr std::size_t kMaxCutRounds = 8;
/// Minimum violation for a separated cut to be added.
constexpr double kCutViolationTol = 1e-6;

struct Node {
  // Bound overrides for the integer variables only, indexed by the
  // position of the variable in the integer-variable list.
  std::vector<double> lo;
  std::vector<double> hi;
  double bound = -kInf;  ///< parent relaxation value (internal min sense)
  std::size_t depth = 0;
  /// Parent node's optimal basis; shared between the two children and
  /// consumed by SimplexSolver::solve_from.  Null = cold solve.
  std::shared_ptr<const lp::Basis> start;
};

struct NodeBoundGreater {
  bool operator()(const Node& a, const Node& b) const {
    return a.bound > b.bound;
  }
};

/// Everything a tree-search worker owns privately: a persistent simplex
/// solver whose factorised basis and work buffers live across the nodes
/// this worker processes, and the worker's tally, summed into
/// MipResult::work by Solver::run() after the join.
struct WorkerState {
  /// The solver over the model's LP with the root cut rows appended.
  WorkerState(const lp::LinearProgram& lp, const lp::SparseRows& cuts)
      : solver(lp) {
    for (std::size_t r = 0; r < cuts.size(); ++r) solver.add_row(cuts[r]);
  }

  lp::SimplexSolver solver;
  SolveWork work;  ///< run() fills in factor; nodes_count_ counts nodes
};

/// Restores the bounds of the given variables on destruction, so the
/// rounding heuristic's fixings can never leak into sibling nodes even
/// on an exception path.
class BoundsGuard {
 public:
  BoundsGuard(lp::SimplexSolver& solver, const std::vector<std::size_t>& vars)
      : solver_(solver), vars_(vars) {
    saved_.reserve(vars.size());
    for (std::size_t j : vars)
      saved_.emplace_back(solver.lower_bound(j), solver.upper_bound(j));
  }
  ~BoundsGuard() {
    for (std::size_t k = 0; k < vars_.size(); ++k)
      solver_.set_variable_bounds(vars_[k], saved_[k].first,
                                  saved_[k].second);
  }
  BoundsGuard(const BoundsGuard&) = delete;
  BoundsGuard& operator=(const BoundsGuard&) = delete;

 private:
  lp::SimplexSolver& solver_;
  const std::vector<std::size_t>& vars_;
  std::vector<std::pair<double, double>> saved_;
};

/// Restores the full objective vector on destruction; used by the cost
/// perturbation recovery rung so the perturbed coefficients cannot
/// survive into later solves (and no model copy is needed).
class ObjectiveGuard {
 public:
  explicit ObjectiveGuard(lp::SimplexSolver& solver) : solver_(solver) {
    saved_.reserve(solver.num_variables());
    for (std::size_t j = 0; j < solver.num_variables(); ++j)
      saved_.push_back(solver.objective_coefficient(j));
  }
  ~ObjectiveGuard() {
    for (std::size_t j = 0; j < saved_.size(); ++j)
      solver_.set_objective(j, saved_[j]);
  }
  ObjectiveGuard(const ObjectiveGuard&) = delete;
  ObjectiveGuard& operator=(const ObjectiveGuard&) = delete;

 private:
  lp::SimplexSolver& solver_;
  std::vector<double> saved_;
};

class Solver {
 public:
  Solver(const Model& model, const BnbOptions& opt)
      : model_(model),
        opt_(opt),
        sense_mult_(model.objective_sense() == Objective::Minimize ? 1.0
                                                                   : -1.0) {
    for (std::size_t j = 0; j < model.num_variables(); ++j)
      if (model.is_integral(j)) int_vars_.push_back(j);
    // Node LPs inherit the global deadline unless the caller set a
    // dedicated per-LP budget.
    lp_opt_ = opt.lp;
    if (lp_opt_.deadline.is_unlimited()) lp_opt_.deadline = opt.deadline;
    compute_incumbent_feas_tol();
  }

  MipResult run();

 private:
  /// Recomputed after root cuts extend the relaxation: snapping each
  /// integer variable moves it by at most integrality_tol, so a row can
  /// drift by at most its L1 coefficient norm times that.
  void compute_incumbent_feas_tol() {
#if RRP_INVARIANTS_ENABLED
    double max_row_l1 = 0.0;
    for (const lp::SparseRows* rows :
         {&model_.lp().rows(), &std::as_const(cuts_)}) {
      for (std::size_t r = 0; r < rows->size(); ++r) {
        double l1 = 0.0;
        for (const lp::Entry& e : (*rows)[r].entries) l1 += std::fabs(e.coeff);
        max_row_l1 = std::max(max_row_l1, l1);
      }
    }
    incumbent_feas_tol_ =
        1e-6 + 10.0 * opt_.integrality_tol * (1.0 + max_row_l1);
#endif
  }

  /// Root cut loop on worker 0's solver: solve the root relaxation,
  /// separate violated valid inequalities, append them as rows to cuts_
  /// and to the solver in place, and re-optimise from the extended
  /// parent basis (new cut slacks enter basic — the extension is block
  /// triangular, hence nonsingular and dual feasible) until no cut is
  /// violated or the round limit is hit.  Runs strictly before any
  /// other worker's solver is built.
  /// Returns the final root basis for seeding the tree (null when
  /// unusable) and sets `root_bound` to the strengthened relaxation
  /// value (internal minimisation space).
  std::shared_ptr<const lp::Basis> run_root_cuts(WorkerState& ws,
                                                 double& root_bound);

  // -- tree search ------------------------------------------------------
  /// Pops and processes nodes until the search stops or the tree is
  /// exhausted; with `one_node` it returns after the first node.
  void worker(std::size_t w, WorkerState& ws, bool one_node = false);
  void process_node(WorkerState& ws, Node& node, std::size_t node_number);

  /// Applies the node's integer bounds to the worker's solver and runs
  /// the recovery ladder (warm started from node.start when enabled).
  lp::Solution solve_node_lp(WorkerState& ws, const Node& node);

  /// Solves the worker's current LP state through the failure-recovery
  /// ladder: warm/cold attempt, then on rrp::NumericalError retry with
  /// Bland pricing, then forced refactorisation, then a bounded
  /// deterministic in-place cost perturbation; rethrows only when every
  /// rung fails.
  lp::Solution solve_with_recovery(WorkerState& ws, const lp::Basis* start);

  /// Returns the index (into int_vars_) of the most fractional integer
  /// variable, or int_vars_.size() when the point is integral.
  std::size_t pick_branch_var(const std::vector<double>& x) const;

  void try_rounding(WorkerState& ws, const Node& node,
                    const std::vector<double>& x, const lp::Basis* start,
                    bool root);

  void offer_incumbent(const std::vector<double>& x, double internal_obj);

  /// Offers the worker's Optimal LP point `x` when it beats the
  /// incumbent.  Node solves reuse the factor the worker's earlier solves
  /// left, so below the root the last bits of `x` depend on which nodes
  /// that worker saw; such a point is re-derived from a fresh
  /// factorisation of its basis, which makes the incumbent, and the
  /// objective returned, the same for every jobs count.  A `root` point
  /// is offered as solved: worker 0 runs the root node straight after
  /// the cut loop, before any other worker starts, so its factor
  /// history is the same at every jobs count.
  void offer_lp_point(WorkerState& ws, const std::vector<double>& x,
                      bool root);

  double prune_margin(double incumbent) const {
    return std::max(opt_.absolute_gap,
                    opt_.relative_gap * (1.0 + std::fabs(incumbent)));
  }

  // -- frontier helpers (compile-time contract: caller holds mtx_) ------
  bool frontier_empty_locked() const RRP_REQUIRES(mtx_) {
    return heap_.empty();
  }
  void push_locked(Node&& n) RRP_REQUIRES(mtx_) { heap_.push(std::move(n)); }
  Node pop_locked() RRP_REQUIRES(mtx_) {
    Node n = heap_.top();
    heap_.pop();
    return n;
  }
  double frontier_best_locked() const RRP_REQUIRES(mtx_) {
    return heap_.empty() ? kInf : heap_.top().bound;
  }
  /// Proven global bound: the frontier plus every node currently being
  /// processed by a worker (whose slot holds the node's parent bound, a
  /// valid underestimate of its subtree).
  double global_bound_locked() const RRP_REQUIRES(mtx_) {
    double best = frontier_best_locked();
    for (double b : in_flight_) best = std::min(best, b);
    return best;
  }

  const Model& model_;
  const BnbOptions& opt_;
  /// The root cut rows: with model_.lp(), the LP relaxation.  Extended
  /// before the tree search starts; immutable from the moment workers'
  /// solvers are built from it.
  lp::SparseRows cuts_;
  lp::SimplexOptions lp_opt_;  ///< opt_.lp with the inherited deadline
  double sense_mult_;
  std::vector<std::size_t> int_vars_;

  // Shared tree-search state, guarded by mtx_ unless noted.
  Mutex mtx_;
  CondVar cv_;
  std::priority_queue<Node, std::vector<Node>, NodeBoundGreater> heap_
      RRP_GUARDED_BY(mtx_);
  /// Per-worker bound slot; kInf = idle.
  std::vector<double> in_flight_ RRP_GUARDED_BY(mtx_);
  /// Workers currently processing a node.
  std::size_t active_ RRP_GUARDED_BY(mtx_) = 0;
  bool stop_ RRP_GUARDED_BY(mtx_) = false;
  bool hit_node_limit_ RRP_GUARDED_BY(mtx_) = false;
  bool hit_time_limit_ RRP_GUARDED_BY(mtx_) = false;
  bool gap_met_ RRP_GUARDED_BY(mtx_) = false;
  bool unbounded_ RRP_GUARDED_BY(mtx_) = false;
  std::exception_ptr error_ RRP_GUARDED_BY(mtx_);

  bool have_incumbent_ RRP_GUARDED_BY(mtx_) = false;
  /// Internal (minimisation) space.
  double incumbent_obj_ RRP_GUARDED_BY(mtx_) = kInf;
  std::vector<double> incumbent_x_ RRP_GUARDED_BY(mtx_);
  /// Lock-free mirror of incumbent_obj_ for pruning reads on the hot
  /// path; lowered by compare-exchange, never raised.
  std::atomic<double> incumbent_atomic_{kInf};
  std::atomic<std::size_t> nodes_count_{0};  ///< nodes popped so far
#if RRP_INVARIANTS_ENABLED
  double incumbent_feas_tol_ = 1e-6;
#endif

  // Root cut telemetry, written before the workers start (internal
  // minimisation space) and read in the single-threaded epilogue.
  double root_lp_obj_ = kInf;   ///< root relaxation value before cuts
  double root_cut_obj_ = kInf;  ///< root relaxation value after cuts
};

std::shared_ptr<const lp::Basis> Solver::run_root_cuts(WorkerState& ws,
                                                       double& root_bound) {
  lp::SimplexSolver& solver = ws.solver;
  RRP_TRACE_SPAN("bnb.root_cuts");
  // Every round separates at the root point re-derived from a fresh
  // factorisation, as incumbents below the root are: the separator's
  // alpha* < delta * chi* test meets exact ties at vertices and would
  // flip on the last bits the factor history leaves, so this keeps the
  // cut set a function of the root basis alone.
  lp::Solution sol;
  try {
    sol = solver.solve(lp_opt_);
    if (sol.status == lp::SolveStatus::Optimal)
      sol = solver.refactored_solution();
  } catch (const NumericalError&) {
    return nullptr;
  }
  if (sol.status != lp::SolveStatus::Optimal) return nullptr;
  root_lp_obj_ = root_cut_obj_ = sense_mult_ * model_.objective_value(sol.x);

  CutPool pool;
  bool usable = true;
  for (std::size_t round = 0; round < kMaxCutRounds; ++round) {
    RRP_TRACE_SPAN("bnb.cut_round");
    RRP_TRACE_ARG("round", round);
    const std::vector<Cut> cuts =
        opt_.cut_generator->separate(sol.x, kCutViolationTol);
    std::size_t added = 0;
    for (const Cut& c : cuts) {
      if (!pool.add(c)) continue;
      const std::size_t r = cuts_.add(c.entries, c.lo, c.hi);
      solver.add_row(cuts_[r]);
      ++added;
    }
    RRP_TRACE_ARG("added", added);
    if (added == 0) break;
    ws.work.cuts_added += added;
    RRP_OBS_EVENT("bnb", "cut_round",
                  {{"round", static_cast<std::uint64_t>(round)},
                   {"added", static_cast<std::uint64_t>(added)}});

    // The cut rows were appended to the solver in place; the parent
    // basis plus the new cut slacks (basic) warm starts the dual simplex.
    try {
      sol = solver.solve_from(solver.basis(), lp_opt_);
      if (sol.status == lp::SolveStatus::Optimal)
        sol = solver.refactored_solution();
    } catch (const NumericalError&) {
      usable = false;  // the added rows stay (they are valid); bound from
      break;           // the weaker relaxation remains proven
    }
    if (sol.status != lp::SolveStatus::Optimal) {
      usable = false;
      break;
    }
    root_cut_obj_ = sense_mult_ * model_.objective_value(sol.x);
  }
  compute_incumbent_feas_tol();  // cut rows change the max row L1 norm

  if (!usable) return nullptr;
  root_bound = root_cut_obj_;
  lp::Basis b = solver.basis();
  if (opt_.warm_start && !b.empty())
    return std::make_shared<const lp::Basis>(std::move(b));
  return nullptr;
}

lp::Solution Solver::solve_node_lp(WorkerState& ws, const Node& node) {
  for (std::size_t k = 0; k < int_vars_.size(); ++k)
    ws.solver.set_variable_bounds(int_vars_[k], node.lo[k], node.hi[k]);
  lp::Solution sol = solve_with_recovery(ws, node.start.get());
  ws.work.lp_iterations += sol.iterations;
  if (ws.solver.last_solve_was_warm())
    ++ws.work.warm_started_nodes;
  else
    ++ws.work.cold_solved_nodes;
  return sol;
}

lp::Solution Solver::solve_with_recovery(WorkerState& ws,
                                         const lp::Basis* start) {
  const bool warm = opt_.warm_start && start != nullptr && !start->empty();
  try {
    return warm ? ws.solver.solve_from(*start, lp_opt_)
                : ws.solver.solve(lp_opt_);
  } catch (const NumericalError&) {
    // Fall through to the recovery ladder (always cold from here on).
  }

  // Rung 1: Bland pricing — slower pivots, but immune to the cycling and
  // stall pathologies that usually underlie a degenerate basis.
  lp::SimplexOptions retry = lp_opt_;
  retry.pricing = lp::Pricing::Bland;
  try {
    lp::Solution sol = ws.solver.solve(retry);
    ++ws.work.lp_failures_recovered;
    RRP_OBS_EVENT("lp", "recovery", {{"rung", 1}, {"ladder", "bland"}});
    return sol;
  } catch (const NumericalError&) {
  }

  // Rung 2: additionally rebuild the basis inverse after every pivot so
  // accumulated eta-update drift cannot produce a vanishing pivot.
  retry.refactor_every = 1;
  try {
    lp::Solution sol = ws.solver.solve(retry);
    ++ws.work.lp_failures_recovered;
    RRP_OBS_EVENT("lp", "recovery", {{"rung", 2}, {"ladder", "refactor"}});
    return sol;
  } catch (const NumericalError&) {
  }

  // Rung 3: bounded deterministic cost perturbation, applied in place on
  // the persistent solver and rolled back by the guard, breaks exact
  // dual ties.  The relative shift is <= 2^-30 per coefficient, far
  // below the solver tolerances, so the perturbed optimum is
  // interchangeable with the true one at MIP precision.
  ObjectiveGuard guard(ws.solver);
  for (std::size_t j = 0; j < ws.solver.num_variables(); ++j) {
    const double c = ws.solver.objective_coefficient(j);
    const double jitter =
        static_cast<double>((j * 2654435761ULL + 1ULL) % 1024ULL) / 1024.0;
    ws.solver.set_objective(
        j, c + 9.3e-10 * (1.0 + std::fabs(c)) * (jitter - 0.5));
  }
  lp::Solution sol = ws.solver.solve(retry);  // rethrows on failure
  ++ws.work.lp_failures_recovered;
  RRP_OBS_EVENT("lp", "recovery", {{"rung", 3}, {"ladder", "perturb"}});
  return sol;
}

std::size_t Solver::pick_branch_var(const std::vector<double>& x) const {
  std::size_t best = int_vars_.size();
  double best_dist = -kInf;
  for (std::size_t k = 0; k < int_vars_.size(); ++k) {
    const double v = x[int_vars_[k]];
    const double frac = v - std::floor(v);
    const double dist = std::min(frac, 1.0 - frac);
    if (dist <= opt_.integrality_tol) continue;
    if (dist > best_dist) {
      best_dist = dist;
      best = k;
    }
  }
  return best;
}

void Solver::offer_incumbent(const std::vector<double>& x,
                             double internal_obj) {
  // Monotone minimum on the lock-free mirror first, so concurrent
  // workers prune against the freshest value without taking the lock.
  double cur = incumbent_atomic_.load(std::memory_order_relaxed);
  while (internal_obj < cur &&
         !incumbent_atomic_.compare_exchange_weak(cur, internal_obj,
                                                  std::memory_order_relaxed)) {
  }
  MutexLock lock(mtx_);
  if (have_incumbent_ && internal_obj >= incumbent_obj_) return;
  have_incumbent_ = true;
  incumbent_obj_ = internal_obj;
  incumbent_x_ = x;
  RRP_COUNTER_ADD("rrp.bnb.incumbent_updates", 1);
  RRP_GAUGE_SET("rrp.bnb.incumbent_objective", sense_mult_ * internal_obj);
  RRP_OBS_EVENT(
      "bnb", "incumbent",
      {{"objective", sense_mult_ * internal_obj},
       {"nodes", static_cast<std::uint64_t>(
                     nodes_count_.load(std::memory_order_relaxed))}});
  // Snap integer variables exactly.
  for (std::size_t j : int_vars_)
    incumbent_x_[j] = std::round(incumbent_x_[j]);
#if RRP_INVARIANTS_ENABLED
  // Incumbent feasibility: the snapped point must satisfy the original
  // model (rows and bounds) and be exactly integral where required.
  // The comparison is exact by construction (just assigned a round()).
  for (std::size_t j : int_vars_)
    RRP_INVARIANT(incumbent_x_[j] ==  // rrp-lint: allow(float-equality)
                  std::round(incumbent_x_[j]));
  const double viol = std::max(model_.lp().max_violation(incumbent_x_),
                               cuts_.max_violation(incumbent_x_));
  RRP_INVARIANT_MSG(viol <= incumbent_feas_tol_,
                    "incumbent violates the model by " + std::to_string(viol));
#endif
}

void Solver::offer_lp_point(WorkerState& ws, const std::vector<double>& x,
                            bool root) {
  const double internal_obj = sense_mult_ * model_.objective_value(x);
  if (internal_obj >= incumbent_atomic_.load(std::memory_order_relaxed))
    return;
  if (root) {
    offer_incumbent(x, internal_obj);
    return;
  }
  lp::Solution exact;
  try {
    exact = ws.solver.refactored_solution();
  } catch (const NumericalError&) {
    // A basis the eta file handled but a fresh factorisation calls
    // singular: the solve's own point passed its residual check.
    exact.x = x;
  }
  offer_incumbent(exact.x, sense_mult_ * model_.objective_value(exact.x));
}

void Solver::try_rounding(WorkerState& ws, const Node& node,
                          const std::vector<double>& x,
                          const lp::Basis* start, bool root) {
  // Fix every integer variable to the nearest integer inside the node
  // bounds, then re-solve the LP for the continuous variables.  The
  // guard restores the node's bounds even when the solve throws.
  RRP_TRACE_SPAN("bnb.heuristic");
  BoundsGuard guard(ws.solver, int_vars_);
  for (std::size_t k = 0; k < int_vars_.size(); ++k) {
    double v = std::round(x[int_vars_[k]]);
    v = std::clamp(v, node.lo[k], node.hi[k]);
    ws.solver.set_variable_bounds(int_vars_[k], v, v);
  }
  lp::Solution sol = solve_with_recovery(ws, start);
  ws.work.lp_iterations += sol.iterations;
  if (sol.status == lp::SolveStatus::Optimal) offer_lp_point(ws, sol.x, root);
}

void Solver::process_node(WorkerState& ws, Node& node,
                          std::size_t node_number) {
  RRP_TRACE_SPAN("bnb.node");
  RRP_TRACE_ARG("node", node_number);
  RRP_TRACE_ARG("depth", node.depth);
  // Bound-based pruning against the incumbent, honouring both gap
  // tolerances: a node whose bound cannot improve the incumbent by more
  // than the configured gap is not worth expanding.
  {
    const double inc = incumbent_atomic_.load(std::memory_order_relaxed);
    if (inc < kInf && node.bound >= inc - prune_margin(inc)) return;
  }

  lp::Solution sol = solve_node_lp(ws, node);
  if (sol.status == lp::SolveStatus::TimeLimit) {
    // The node's relaxation did not finish: return the node to the
    // frontier (its parent bound is still valid) so the proven bound
    // stays sound, then wind the search down.
    MutexLock lock(mtx_);
    push_locked(std::move(node));
    hit_time_limit_ = true;
    stop_ = true;
    cv_.notify_all();
    return;
  }
  if (sol.status == lp::SolveStatus::Infeasible) return;
  if (sol.status == lp::SolveStatus::Unbounded) {
    // A relaxation unbounded at the root means the MILP is unbounded or
    // infeasible; report unbounded (standard convention).
    MutexLock lock(mtx_);
    unbounded_ = true;
    stop_ = true;
    cv_.notify_all();
    return;
  }
  if (sol.status != lp::SolveStatus::Optimal) return;  // iter limit

  const double node_obj = sense_mult_ * model_.objective_value(sol.x);
  // Bound monotonicity: a child's relaxation can only tighten (grow, in
  // minimisation space) relative to the bound inherited from its parent;
  // a violation means the LP layer returned an inconsistent optimum or
  // node bookkeeping got corrupted.
  RRP_INVARIANT_MSG(
      node_obj >= node.bound - 1e-5 * (1.0 + std::fabs(node_obj) +
                                       std::fabs(node.bound)),
      "child relaxation " + std::to_string(node_obj) +
          " beats parent bound " + std::to_string(node.bound));
  {
    const double inc = incumbent_atomic_.load(std::memory_order_relaxed);
    if (inc < kInf && node_obj >= inc - prune_margin(inc)) return;
  }

  // Export the node's basis immediately — heuristic probes below reuse
  // the solver and would overwrite it.
  std::shared_ptr<const lp::Basis> basis;
  if (opt_.warm_start) {
    lp::Basis b = ws.solver.basis();
    if (!b.empty()) basis = std::make_shared<const lp::Basis>(std::move(b));
  }

  // Node 1 is the root, which worker 0 processes before any other
  // worker starts (see run()).
  const bool root = node_number == 1;
  const std::size_t k = pick_branch_var(sol.x);
  if (k == int_vars_.size()) {
    offer_lp_point(ws, sol.x, root);
    return;
  }

  if (root || node_number % 64 == 0)
    try_rounding(ws, node, sol.x, basis.get(), root);

  const double v = sol.x[int_vars_[k]];
  const double frac = v - std::floor(v);

  Node down = node;
  down.hi[k] = std::floor(v);
  down.bound = node_obj;
  down.depth = node.depth + 1;
  down.start = basis;
  Node up = node;
  up.lo[k] = std::ceil(v);
  up.bound = node_obj;
  up.depth = node.depth + 1;
  up.start = basis;

  MutexLock lock(mtx_);
  // Both children carry the same bound, so the heap orders them by its
  // push history: keeping the nearer integer pushed last keeps the node
  // sequence, and with it every solve's node and pivot counts, fixed.
  if (frac >= 0.5) {
    push_locked(std::move(down));
    push_locked(std::move(up));
  } else {
    push_locked(std::move(up));
    push_locked(std::move(down));
  }
  // Gap-based early termination against the proven global bound.
  if (have_incumbent_) {
    const double bound = std::min(global_bound_locked(), node_obj);
    const double gap = incumbent_obj_ - bound;
    if (gap <= opt_.absolute_gap ||
        gap <= opt_.relative_gap * (1.0 + std::fabs(incumbent_obj_))) {
      gap_met_ = true;
      stop_ = true;
    }
  }
  cv_.notify_all();
}

void Solver::worker(std::size_t w, WorkerState& ws, bool one_node) {
  MutexLock lock(mtx_);
  for (;;) {
    while (!stop_ && frontier_empty_locked() && active_ != 0) cv_.wait(lock);
    if (stop_) return;
    if (frontier_empty_locked()) return;  // active_ == 0: tree exhausted
    if (nodes_count_.load(std::memory_order_relaxed) >= opt_.max_nodes) {
      hit_node_limit_ = true;
      stop_ = true;
      cv_.notify_all();
      return;
    }
    // Anytime contract: one deadline poll per node, taken outside the
    // frontier lock (an injected FakeClock serialises internally).
    lock.unlock();
    const bool expired = opt_.deadline.expired();
    lock.lock();
    if (stop_) return;
    if (expired) {
      hit_time_limit_ = true;
      stop_ = true;
      cv_.notify_all();
      return;
    }
    if (frontier_empty_locked()) continue;  // raced: another worker won
    Node node = pop_locked();
    const std::size_t node_number =
        nodes_count_.fetch_add(1, std::memory_order_relaxed) + 1;
    RRP_GAUGE_SET("rrp.bnb.frontier_depth", heap_.size());
    ++active_;
    in_flight_[w] = node.bound;
    lock.unlock();
    // Capture rather than handle under the lock: no capability
    // transition may span the try/catch boundary (the static analysis
    // does not model exceptional edges).
    std::exception_ptr err;
    try {
      process_node(ws, node, node_number);
    } catch (...) {
      err = std::current_exception();
    }
    lock.lock();
    --active_;
    in_flight_[w] = kInf;
    if (err) {
      if (!error_) error_ = err;
      stop_ = true;
      cv_.notify_all();
      return;
    }
    if (stop_ || (frontier_empty_locked() && active_ == 0)) cv_.notify_all();
    if (one_node) return;
  }
}

MipResult Solver::run() {
  RRP_TRACE_SPAN("bnb.solve");
  MipResult result;

  std::size_t jobs = opt_.jobs;
  if (jobs == 0)
    jobs = std::max<std::size_t>(1, std::thread::hardware_concurrency());

  // Strengthen the relaxation with root cuts on worker 0's solver; the
  // final root basis and bound seed the root node, and worker 0 keeps
  // the cut loop's factor.
  std::vector<WorkerState> states;
  states.reserve(jobs);
  states.emplace_back(model_.lp(), cuts_);
  std::shared_ptr<const lp::Basis> root_start;
  double root_bound = -kInf;
  if (opt_.root_cuts && opt_.cut_generator != nullptr && !int_vars_.empty())
    root_start = run_root_cuts(states[0], root_bound);

  {
    // No worker is running yet, but the frontier fields carry a
    // compile-time "hold mtx_" contract with no single-threaded
    // exemption — and the uncontended acquire is free.
    MutexLock lock(mtx_);
    Node root;
    root.lo.resize(int_vars_.size());
    root.hi.resize(int_vars_.size());
    for (std::size_t k = 0; k < int_vars_.size(); ++k) {
      root.lo[k] = model_.variable(int_vars_[k]).lo;
      root.hi[k] = model_.variable(int_vars_[k]).hi;
    }
    root.bound = root_bound;
    root.start = std::move(root_start);
    push_locked(std::move(root));
    in_flight_.assign(jobs, kInf);
  }

  // Worker 0 processes the root node on its own, before the other
  // workers exist: the root's solves then see the same factor history
  // at every jobs count, and its points go to the incumbent as solved.
  // The other workers' solvers are built, and their tasks started, only
  // when the root leaves nodes to search.
  worker(0, states[0], /*one_node=*/true);
  bool open_nodes = false;
  {
    MutexLock lock(mtx_);
    open_nodes = !stop_ && !frontier_empty_locked();
  }
  if (jobs == 1 || !open_nodes) {
    worker(0, states[0]);
  } else {
    for (std::size_t w = 1; w < jobs; ++w)
      states.emplace_back(model_.lp(), cuts_);
    TaskGroup group(global_pool());
    for (std::size_t w = 1; w < jobs; ++w)
      group.run([this, w, &states] { worker(w, states[w]); });
    worker(0, states[0]);  // the caller participates
    group.wait();
  }

  // All workers have joined (TaskGroup::wait above): sum their tallies.
  SolveWork& work = result.work;
  for (WorkerState& ws : states) {
    ws.work.factor = ws.solver.factor_stats();
    work += ws.work;
  }
  work.nodes_explored = nodes_count_.load(std::memory_order_relaxed);
  // The process-wide scrape keeps every solve's work, failed ones too.
  // (rrp.lp.* is fed by the simplex layer itself.)
  RRP_COUNTER_ADD("rrp.bnb.nodes", work.nodes_explored);
  RRP_COUNTER_ADD("rrp.bnb.lp_iterations", work.lp_iterations);
  RRP_COUNTER_ADD("rrp.bnb.lp_recoveries", work.lp_failures_recovered);
  RRP_COUNTER_ADD("rrp.bnb.warm_nodes", work.warm_started_nodes);
  RRP_COUNTER_ADD("rrp.bnb.cold_nodes", work.cold_solved_nodes);
  RRP_COUNTER_ADD("rrp.bnb.cuts_added", work.cuts_added);

  // The join makes this lock uncontended; it closes the epilogue reads
  // under the same capability contract the workers used, instead of
  // relying on the join for visibility.
  MutexLock lock(mtx_);
  if (error_) std::rethrow_exception(error_);

  if (work.cuts_added > 0 && have_incumbent_ && std::isfinite(root_lp_obj_)) {
    const double denom = incumbent_obj_ - root_lp_obj_;
    if (denom > 1e-12)
      result.root_gap_closed =
          std::clamp((root_cut_obj_ - root_lp_obj_) / denom, 0.0, 1.0);
  }

  if (unbounded_) {
    result.status = MipStatus::Unbounded;
    return result;
  }

  const bool hit_limit = hit_node_limit_ || hit_time_limit_;
  if (!have_incumbent_) {
    // Without an incumbent a drained frontier proves infeasibility;
    // stopping on a limit proves nothing.
    result.status = hit_limit ? MipStatus::NoIncumbent : MipStatus::Infeasible;
    result.best_bound = sense_mult_ * frontier_best_locked();
    return result;
  }
  if (gap_met_)
    result.status = MipStatus::Optimal;  // the gap proof beats a limit
  else if (hit_limit)
    result.status =
        hit_time_limit_ ? MipStatus::TimeLimit : MipStatus::NodeLimit;
  else
    result.status = MipStatus::Optimal;

  const double internal_bound =
      result.status == MipStatus::Optimal
          ? incumbent_obj_
          : std::min(frontier_best_locked(), incumbent_obj_);
  result.objective = sense_mult_ * incumbent_obj_;
  result.best_bound = sense_mult_ * internal_bound;
  result.x = incumbent_x_;
  return result;
}

}  // namespace

const char* to_string(MipStatus status) {
  switch (status) {
    case MipStatus::Optimal: return "optimal";
    case MipStatus::Infeasible: return "infeasible";
    case MipStatus::Unbounded: return "unbounded";
    case MipStatus::NodeLimit: return "node-limit";
    case MipStatus::NoIncumbent: return "no-incumbent";
    case MipStatus::TimeLimit: return "time-limit";
  }
  return "unknown";
}

double MipResult::gap() const {
  if (x.empty()) return kInf;
  if (!std::isfinite(best_bound)) return kInf;
  const double denom = 1.0 + std::fabs(objective);
  return std::fabs(objective - best_bound) / denom;
}

MipResult solve(const Model& model, const BnbOptions& options) {
  if (options.deadline.expired()) {
    // Expired on entry: honour the anytime contract in O(1) — no node
    // exploration, no incumbent, and a trivially valid (infinite) bound.
    MipResult result;
    result.status = MipStatus::NoIncumbent;
    result.best_bound = model.objective_sense() == Objective::Minimize
                            ? -kInf
                            : kInf;
    return result;
  }
  Solver solver(model, options);
  return solver.run();
}

}  // namespace rrp::milp
