#include "thermal/transient.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/fnv.hpp"
#include "obs/trace.hpp"
#include "sparse/kernels.hpp"

namespace tac3d::thermal {

TransientSolver::TransientSolver(RcModel& model, double dt,
                                 const Options& opts)
    : model_(model),
      dt_(dt),
      op_(opts.operator_prototype != nullptr
              ? ThermalOperator(*opts.operator_prototype, model, dt)
              : ThermalOperator(model, dt)),
      cache_(opts.cache) {
  require(dt > 0.0, "TransientSolver: dt must be positive");
  const std::int32_t n = model_.node_count();
  state_.assign(n, std::max(model_.grid().spec().ambient,
                            model_.grid().spec().coolant_inlet));
  rhs_.assign(n, 0.0);
  c_over_dt_.assign(n, 0.0);
  const std::span<const double> c = model_.capacitance();
  for (std::int32_t i = 0; i < n; ++i) c_over_dt_[i] = c[i] / dt_;

  solver_ = sparse::make_solver(
      opts.kind, op_.matrix(),
      opts.cache != nullptr ? opts.cache->get(op_.matrix()) : nullptr);
  solver_->set_refresh_policy(opts.refresh);
  rel_tolerance_ = opts.rel_tolerance;
  solver_->set_tolerance(rel_tolerance_);

  if (opts.warm_start_slots > 0 && solver_->uses_initial_guess() &&
      model_.n_cavities() > 0) {
    slots_.resize(static_cast<std::size_t>(opts.warm_start_slots));
    for (WarmStartSlot& s : slots_) {
      s.flows.assign(static_cast<std::size_t>(model_.n_cavities()), 0.0);
      s.profiles.assign(static_cast<std::size_t>(model_.n_cavities()), 0);
      s.state_before.assign(static_cast<std::size_t>(n), 0.0);
      s.solution.assign(static_cast<std::size_t>(n), 0.0);
    }
    predicted_.assign(n, 0.0);
    prev_state_.assign(n, 0.0);
  }
  if (opts.trajectory_warm_start && solver_->uses_initial_guess()) {
    traj_prev_.assign(n, 0.0);
    traj_guess_.assign(n, 0.0);
  }
  if (!slots_.empty() || !traj_prev_.empty()) {
    residual_.assign(n, 0.0);  // shared guard scratch
  }
}

TransientSolver::TransientSolver(RcModel& model, double dt,
                                 sparse::SolverKind kind,
                                 sparse::StructureCache* cache)
    : TransientSolver(model, dt, Options{kind, cache}) {}

void TransientSolver::set_state(std::vector<double> temps) {
  require(static_cast<std::int32_t>(temps.size()) == model_.node_count(),
          "TransientSolver::set_state: size mismatch");
  state_ = std::move(temps);
  traj_valid_ = false;  // externally replaced state breaks the history
}

void TransientSolver::initialize_steady() {
  set_state(model_.steady_state(sparse::SolverKind::kBicgstabIlu0, cache_));
}

TransientSolver::WarmStartSlot* TransientSolver::find_slot() {
  if (slots_.empty()) return nullptr;
  for (WarmStartSlot& s : slots_) {
    if (!s.used) continue;
    bool match = true;
    for (int cav = 0; cav < model_.n_cavities(); ++cav) {
      const std::size_t c = static_cast<std::size_t>(cav);
      if (s.flows[c] != model_.cavity_flow(cav) ||
          s.profiles[c] != model_.cavity_profile_version(cav)) {
        match = false;
        break;
      }
    }
    if (match) return &s;
  }
  WarmStartSlot& victim = slots_[static_cast<std::size_t>(next_slot_)];
  next_slot_ = (next_slot_ + 1) % static_cast<int>(slots_.size());
  victim.used = false;
  return &victim;
}

TransientSolver::StepPrep TransientSolver::begin_step_prepare() {
  StepPrep prep;
  prep.flow_changed = !op_.in_sync();
  if (prep.flow_changed) {
    prep.update = op_.update_flow();
  }
  // rhs = P + (C/dt) T_n, built in one fused pass.
  model_.rhs_plus_scaled_into(rhs_, c_over_dt_, state_);

  // Trajectory extrapolation x0 = T_n + (T_n - T_{n-1}): build the guess
  // while T_{n-1} is still around, then roll the history forward. The
  // closed loop drives power (and modulated flow) piecewise-linearly, so
  // consecutive deltas nearly repeat and the guess starts the Krylov
  // solve decades closer than the plain warm start.
  bool extrapolate = !traj_prev_.empty() && traj_valid_;
  if (extrapolate) {
    double dd = 0.0;
    for (std::size_t i = 0; i < state_.size(); ++i) {
      const double d = state_[i] - traj_prev_[i];
      traj_guess_[i] = state_[i] + d;
      dd += d * d;
    }
    // Settled trajectory (exact fixed point, e.g. constant power and
    // flow): the guess IS the plain warm start — skip the guard SpMVs.
    if (dd == 0.0) extrapolate = false;
  }
  if (!traj_prev_.empty()) {
    std::copy(state_.begin(), state_.end(), traj_prev_.begin());
    traj_valid_ = true;
  }
  prep.want_trajectory = extrapolate;

  pending_slot_ = nullptr;
  if (prep.flow_changed && !slots_.empty()) {
    WarmStartSlot* slot = find_slot();
    pending_slot_ = slot;
    std::copy(state_.begin(), state_.end(), prev_state_.begin());
    // On an exact flow-state match, predict the post-flow-change
    // solution as the current state plus the jump the cached step at
    // these exact flows produced (x0 = T_n + solution - state_before; on
    // a sustained modulation orbit this is the solution itself). A miss
    // falls through to the trajectory guess or the plain warm start.
    if (slot->used) {
      for (std::size_t i = 0; i < state_.size(); ++i) {
        predicted_[i] =
            state_[i] + (slot->solution[i] - slot->state_before[i]);
      }
      prep.want_predicted = true;
    }
  }
  pending_ = prep;
  return prep;
}

void TransientSolver::begin_step_commit(double rr_predicted,
                                        double rr_trajectory, double rr_plain,
                                        double bb) {
  // The guards compare squared residual norms; a candidate wins when it
  // is already at the solve tolerance or beats the plain warm start.
  // Callers that evaluate eagerly (the batched driver) pass every value;
  // the serial wrapper passes exactly what it computed — a value is only
  // read on paths where the serial evaluation computed it too, so the
  // decisions (and the chosen state) are identical either way.
  const double tol2 = rel_tolerance_ * rel_tolerance_;
  bool predictor_used = false;
  if (pending_.want_predicted) {
    const bool use_pred =
        rr_predicted <= bb * tol2 || rr_predicted < rr_plain;
    if (use_pred) {
      std::copy(predicted_.begin(), predicted_.end(), state_.begin());
      ++predictor_hits_;
      predictor_used = true;
    }
  }
  if (pending_.want_trajectory && !predictor_used) {
    const bool use_traj =
        rr_trajectory <= bb * tol2 || rr_trajectory < rr_plain;
    if (use_traj) {
      std::copy(traj_guess_.begin(), traj_guess_.end(), state_.begin());
      ++trajectory_hits_;
    }
  }
  pending_ = StepPrep{};
}

TransientSolver::StepPrep TransientSolver::begin_step() {
  const StepPrep prep = begin_step_prepare();
  // Serial guard evaluation, lazy like it always was: the plain warm
  // start's residual is only spent when a candidate is not already at
  // the solve tolerance, and the trajectory guard is skipped once the
  // flow prediction wins. begin_step_commit re-derives the same
  // decisions from these values.
  const double tol2 = rel_tolerance_ * rel_tolerance_;
  double rr_pred = 0.0, rr_traj = 0.0, bb = 0.0;
  double rr_plain = -1.0;  // plain warm start ||b - A T_n||², lazily computed
  bool traj_pending = prep.want_trajectory;
  if (prep.want_predicted) {
    rr_pred = sparse::residual_norms(op_.matrix(), predicted_, rhs_,
                                     residual_, &bb);
    if (rr_pred <= bb * tol2) {
      traj_pending = false;  // prediction accepted at tolerance
    } else {
      rr_plain = sparse::residual(op_.matrix(), state_, rhs_, residual_);
      if (rr_pred < rr_plain) traj_pending = false;  // prediction wins
    }
  }
  if (traj_pending) {
    rr_traj = sparse::residual_norms(op_.matrix(), traj_guess_, rhs_,
                                     residual_, &bb);
    if (rr_traj > bb * tol2 && rr_plain < 0.0) {
      rr_plain = sparse::residual(op_.matrix(), state_, rhs_, residual_);
    }
  }
  begin_step_commit(rr_pred, rr_traj, rr_plain, bb);
  return prep;
}

void TransientSolver::end_step() {
  if (pending_slot_ != nullptr) {
    WarmStartSlot* slot = pending_slot_;
    for (int cav = 0; cav < model_.n_cavities(); ++cav) {
      const std::size_t c = static_cast<std::size_t>(cav);
      slot->flows[c] = model_.cavity_flow(cav);
      slot->profiles[c] = model_.cavity_profile_version(cav);
    }
    std::copy(prev_state_.begin(), prev_state_.end(),
              slot->state_before.begin());
    std::copy(state_.begin(), state_.end(), slot->solution.begin());
    slot->used = true;
    pending_slot_ = nullptr;
  }
  time_ += dt_;
}

void TransientSolver::step() {
  const StepPrep prep = begin_step();
  // The refresh notification may run after the warm-start guards (which
  // read only the matrix, already synced by begin_step), as long as it
  // precedes the solve.
  if (prep.flow_changed) {
    obs::TraceSpan span("solver/refresh");
    solver_->update_values(op_.matrix(), prep.update);
  }
  {
    obs::TraceSpan span("solver/krylov");
    solver_->solve(rhs_, state_);
  }
  end_step();
}

void TransientSolver::advance(double duration) {
  require(duration >= 0.0, "TransientSolver::advance: negative duration");
  const int steps = static_cast<int>(std::ceil(duration / dt_ - 1e-12));
  for (int s = 0; s < steps; ++s) step();
}

bool TransientSolver::fold_replay_state(std::uint64_t& h) const {
  if (!solver_->fold_replay_state(h)) return false;
  // Trajectory-extrapolation memory: T_{n-1} is read on the next
  // ordinary step, so it must recur for the loop to recur.
  h = fnv1a(h, traj_valid_);
  if (traj_valid_) h = fnv1a(h, std::span<const double>(traj_prev_));
  // Warm-start transition cache: occupancy, round-robin cursor, and —
  // for occupied slots — keys and cached fields. All of it steers which
  // initial guess a future flow-change step starts from, and for
  // iterative solvers the guess shapes the computed iterate bitwise.
  // Unoccupied slots hold dead bytes (every field is rewritten before
  // used flips back on), so their content stays out of the print.
  h = fnv1a(h, next_slot_);
  for (const WarmStartSlot& s : slots_) {
    h = fnv1a(h, s.used);
    if (!s.used) continue;
    h = fnv1a(h, std::span<const double>(s.flows));
    h = fnv1a_bytes(h, s.profiles.data(),
                    s.profiles.size() * sizeof(std::uint64_t));
    h = fnv1a(h, std::span<const double>(s.state_before));
    h = fnv1a(h, std::span<const double>(s.solution));
  }
  return true;
}

}  // namespace tac3d::thermal
