// Branch & bound over the simplex LP relaxation.
//
// The paper solves DRRP and the deterministic-equivalent SRRP with a
// commercial B&B (CPLEX via AIMMS); this module is the from-scratch
// replacement: one search with best-bound node selection, most-fractional
// branching, a rounding heuristic for early incumbents, and
// relative/absolute gap termination.
//
// Two performance levers sit on top of the plain tree search:
//
//   * Warm starts — each node carries its parent's optimal basis and the
//     node LP re-optimises from it with the dual simplex (a bound change
//     keeps the parent basis dual feasible), via a persistent
//     lp::SimplexSolver that reuses its factorisation and work buffers
//     across nodes.  SolveWork::warm_started_nodes /
//     cold_solved_nodes report the split.
//   * Parallel tree search — `jobs` workers pull nodes from a shared
//     frontier (mutex-protected heap on common::ThreadPool), each
//     owning a thread-local SimplexSolver.  Pruning, deadline and
//     anytime semantics are preserved exactly: a node whose LP times
//     out returns to the frontier so the proven bound stays sound, and
//     with zero gap tolerances the optimal objective is identical
//     across any jobs count.
#pragma once

#include <cstddef>
#include <vector>

#include "lp/simplex.hpp"
#include "milp/model.hpp"

namespace rrp::milp {

class CutGenerator;  // milp/cuts.hpp

enum class MipStatus {
  Optimal,
  Infeasible,
  Unbounded,
  NodeLimit,      ///< best incumbent returned, optimality not proven
  NoIncumbent,    ///< node/time limit hit before any feasible point found
  TimeLimit,      ///< deadline expired; best incumbent + proven bound
};

const char* to_string(MipStatus status);

struct BnbOptions {
  double integrality_tol = 1e-6;
  double relative_gap = 1e-6;
  double absolute_gap = 1e-9;
  std::size_t max_nodes = 200000;
  /// Warm start node LPs from the parent node's optimal basis (dual
  /// simplex re-optimisation).  Off = every node pays a cold solve from
  /// the slack basis; kept as a switch so benchmarks and tests can compare.
  bool warm_start = true;
  /// Worker threads for the tree search.  1 (default) runs inline on
  /// the calling thread; 0 means hardware concurrency; N > 1 fans the
  /// frontier out over the shared rrp::ThreadPool.
  std::size_t jobs = 1;
  /// Wall-clock budget for the whole solve (anytime contract): polled
  /// once per node and inherited by node LPs; on expiry the best
  /// incumbent and a valid proven bound are returned with status
  /// TimeLimit (NoIncumbent when nothing feasible was found in time).
  common::Deadline deadline;
  /// Optional root-node cut separator (borrowed, not owned; must outlive
  /// the solve).  Null = no cutting planes.
  const CutGenerator* cut_generator = nullptr;
  /// Master switch for root-node cut separation; with a generator set,
  /// separation runs in rounds on the root relaxation before the tree
  /// search starts, re-optimising with the dual simplex per round.
  bool root_cuts = true;
  lp::SimplexOptions lp;
};

/// The work one solve did.  Counts only, so the work of many solves is
/// their sum (operator+=): RentalPlan and SrrpPolicy carry their
/// solve's, SimulationResult the sum over its re-plans.
struct SolveWork {
  std::size_t nodes_explored = 0;
  std::size_t lp_iterations = 0;
  /// Node LPs that threw rrp::NumericalError and succeeded on a retry
  /// (Bland pricing, forced refactorisation, or cost perturbation).
  std::size_t lp_failures_recovered = 0;
  /// Node relaxations re-optimised from the parent basis vs. solved by
  /// a cold solve from the slack basis (root nodes, failed warm starts, and
  /// all nodes when BnbOptions::warm_start is off).
  std::size_t warm_started_nodes = 0;
  std::size_t cold_solved_nodes = 0;
  /// Root-node cutting planes appended to the relaxation.
  std::size_t cuts_added = 0;
  /// Sparse-factorisation telemetry over the root cut loop and every
  /// worker's node solver.
  lp::FactorizationStats factor;

  SolveWork& operator+=(const SolveWork& o) {
    nodes_explored += o.nodes_explored;
    lp_iterations += o.lp_iterations;
    lp_failures_recovered += o.lp_failures_recovered;
    warm_started_nodes += o.warm_started_nodes;
    cold_solved_nodes += o.cold_solved_nodes;
    cuts_added += o.cuts_added;
    factor += o.factor;
    return *this;
  }
  bool operator==(const SolveWork&) const = default;
};

struct MipResult {
  MipStatus status = MipStatus::NoIncumbent;
  double objective = 0.0;     ///< incumbent objective (model sense)
  double best_bound = 0.0;    ///< proven bound on the optimum
  std::vector<double> x;      ///< incumbent point (empty if none)
  SolveWork work;
  /// Fraction of the root-LP-to-incumbent gap closed by the root cuts,
  /// in [0, 1]; 0 when no cuts were separated or no incumbent exists.
  /// A ratio, so it is not part of the summable SolveWork.
  double root_gap_closed = 0.0;

  /// Relative optimality gap; 0 when proven optimal, +infinity when
  /// there is no incumbent or the proven bound is not finite.
  double gap() const;
};

/// Solves the MILP.  Infeasible/unbounded inputs are reported via
/// MipResult::status.
MipResult solve(const Model& model, const BnbOptions& options = {});

}  // namespace rrp::milp
