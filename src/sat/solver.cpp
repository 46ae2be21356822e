#include "sat/solver.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "exec/fault.hpp"

namespace rdc::sat {

unsigned Solver::new_var() {
  const unsigned var = num_vars();
  assign_.push_back(Value::kUnassigned);
  model_.push_back(false);
  saved_phase_.push_back(false);
  reason_.push_back(-1);
  level_.push_back(0);
  activity_.push_back(0.0);
  watches_.emplace_back();
  watches_.emplace_back();
  return var;
}

bool Solver::add_clause(Clause clause) {
  if (unsat_) return false;

  // Normalize: drop duplicate/false literals at level 0, detect tautology.
  std::sort(clause.begin(), clause.end(),
            [](Lit a, Lit b) { return a.code() < b.code(); });
  Clause normalized;
  for (std::size_t i = 0; i < clause.size(); ++i) {
    const Lit l = clause[i];
    if (i + 1 < clause.size() && clause[i + 1] == ~l) return true;  // taut.
    if (!normalized.empty() && normalized.back() == l) continue;
    if (value_of(l) == Value::kTrue && level_[l.var()] == 0) return true;
    if (value_of(l) == Value::kFalse && level_[l.var()] == 0) continue;
    normalized.push_back(l);
  }

  if (normalized.empty()) {
    unsat_ = true;
    return false;
  }
  if (normalized.size() == 1) {
    if (value_of(normalized[0]) == Value::kFalse) {
      unsat_ = true;
      return false;
    }
    if (value_of(normalized[0]) == Value::kUnassigned) {
      enqueue(normalized[0], -1);
      if (propagate() >= 0) {
        unsat_ = true;
        return false;
      }
    }
    return true;
  }
  clauses_.push_back(std::move(normalized));
  attach_clause(static_cast<std::uint32_t>(clauses_.size() - 1));
  return true;
}

void Solver::attach_clause(std::uint32_t index) {
  const Clause& c = clauses_[index];
  watches_[(~c[0]).code()].push_back({index});
  watches_[(~c[1]).code()].push_back({index});
}

void Solver::enqueue(Lit l, std::int32_t reason) {
  assert(value_of(l) == Value::kUnassigned);
  assign_[l.var()] = l.negative() ? Value::kFalse : Value::kTrue;
  reason_[l.var()] = reason;
  level_[l.var()] = static_cast<unsigned>(trail_limits_.size());
  trail_.push_back(l);
}

std::int32_t Solver::propagate() {
  while (propagate_head_ < trail_.size()) {
    // Budget poll every ~8192 trail steps: cheap enough to disappear in the
    // propagation cost, frequent enough to observe a deadline promptly.
    if (active_budget_ != nullptr && (++budget_steps_ & 8191u) == 0u &&
        !active_budget_->check().ok()) {
      budget_tripped_ = true;
      return -1;  // solve() notices budget_tripped_ before trusting this
    }
    const Lit p = trail_[propagate_head_++];
    // Clauses watching ~p must find a new watch or propagate/conflict.
    std::vector<Watch>& watch_list = watches_[p.code()];
    std::size_t kept = 0;
    for (std::size_t i = 0; i < watch_list.size(); ++i) {
      const std::uint32_t ci = watch_list[i].clause;
      Clause& c = clauses_[ci];
      // Ensure the falsified literal sits at position 1.
      if (c[0] == ~p) std::swap(c[0], c[1]);
      assert(c[1] == ~p);
      if (value_of(c[0]) == Value::kTrue) {
        watch_list[kept++] = watch_list[i];  // clause satisfied; keep watch
        continue;
      }
      // Look for a non-false replacement watch.
      bool moved = false;
      for (std::size_t k = 2; k < c.size(); ++k) {
        if (value_of(c[k]) != Value::kFalse) {
          std::swap(c[1], c[k]);
          watches_[(~c[1]).code()].push_back({ci});
          moved = true;
          break;
        }
      }
      if (moved) continue;
      // Unit or conflicting.
      if (value_of(c[0]) == Value::kFalse) {
        // Conflict: restore the remaining watches and report.
        for (std::size_t k = i; k < watch_list.size(); ++k)
          watch_list[kept++] = watch_list[k];
        watch_list.resize(kept);
        return static_cast<std::int32_t>(ci);
      }
      watch_list[kept++] = watch_list[i];
      enqueue(c[0], static_cast<std::int32_t>(ci));
    }
    watch_list.resize(kept);
  }
  return -1;
}

void Solver::bump(unsigned var) {
  activity_[var] += activity_increment_;
  if (activity_[var] > 1e100) {
    for (double& a : activity_) a *= 1e-100;
    activity_increment_ *= 1e-100;
  }
}

void Solver::decay() { activity_increment_ /= 0.95; }

void Solver::analyze(std::int32_t conflict, Clause& learnt,
                     unsigned& backtrack) {
  learnt.clear();
  learnt.push_back(Lit());  // slot for the asserting literal
  const unsigned current_level = static_cast<unsigned>(trail_limits_.size());

  std::vector<bool> seen(num_vars(), false);
  unsigned counter = 0;
  std::size_t trail_index = trail_.size();
  std::int32_t reason = conflict;
  Lit p;
  bool first = true;

  do {
    assert(reason >= 0);
    const Clause& c = clauses_[static_cast<std::size_t>(reason)];
    for (std::size_t i = first ? 0 : 1; i < c.size(); ++i) {
      const Lit q = c[i];
      if (seen[q.var()] || level_[q.var()] == 0) continue;
      seen[q.var()] = true;
      bump(q.var());
      if (level_[q.var()] == current_level) {
        ++counter;
      } else {
        learnt.push_back(q);
      }
    }
    // Walk back to the next marked literal on the trail.
    while (!seen[trail_[trail_index - 1].var()]) --trail_index;
    p = trail_[--trail_index];
    seen[p.var()] = false;
    reason = reason_[p.var()];
    --counter;
    first = false;
  } while (counter > 0);
  learnt[0] = ~p;

  // Backtrack level: highest level among the other literals.
  backtrack = 0;
  std::size_t max_index = 1;
  for (std::size_t i = 1; i < learnt.size(); ++i) {
    if (level_[learnt[i].var()] > backtrack) {
      backtrack = level_[learnt[i].var()];
      max_index = i;
    }
  }
  if (learnt.size() > 1) std::swap(learnt[1], learnt[max_index]);
}

void Solver::backtrack_to(unsigned level) {
  if (trail_limits_.size() <= level) return;
  const unsigned limit = trail_limits_[level];
  for (std::size_t i = trail_.size(); i > limit; --i) {
    const Lit l = trail_[i - 1];
    saved_phase_[l.var()] = !l.negative();
    assign_[l.var()] = Value::kUnassigned;
    reason_[l.var()] = -1;
  }
  trail_.resize(limit);
  trail_limits_.resize(level);
  propagate_head_ = trail_.size();
}

unsigned Solver::pick_branch_var() {
  unsigned best = num_vars();
  double best_activity = -1.0;
  for (unsigned v = 0; v < num_vars(); ++v) {
    if (assign_[v] != Value::kUnassigned) continue;
    if (activity_[v] > best_activity) {
      best_activity = activity_[v];
      best = v;
    }
  }
  return best;
}

SolveResult Solver::solve() {
  exec::fault_point(exec::FaultSite::kSat);
  last_status_ = exec::Status();
  if (unsat_) return SolveResult::kUnsat;

  active_budget_ = budget_ != nullptr ? budget_ : exec::current_budget();
  budget_tripped_ = false;
  // Returns kUnknown with the (sticky) trip code, leaving the solver at
  // level 0 so callers can relax the budget and retry.
  const auto give_up = [&] {
    exec::Status status = active_budget_->check();
    status.with_context("sat");
    last_status_ = std::move(status);
    backtrack_to(0);
    active_budget_ = nullptr;
    return SolveResult::kUnknown;
  };
  if (active_budget_ != nullptr && !active_budget_->check_now().ok())
    return give_up();

  backtrack_to(0);
  if (propagate() >= 0 && !budget_tripped_) {
    unsat_ = true;
    active_budget_ = nullptr;
    return SolveResult::kUnsat;
  }
  if (budget_tripped_) return give_up();

  std::uint64_t restart_limit = 100;
  std::uint64_t conflicts_since_restart = 0;

  while (true) {
    const std::int32_t conflict = propagate();
    if (budget_tripped_) return give_up();
    if (conflict >= 0) {
      ++conflicts_;
      ++conflicts_since_restart;
      if (trail_limits_.empty()) {
        unsat_ = true;
        active_budget_ = nullptr;
        return SolveResult::kUnsat;
      }
      Clause learnt;
      unsigned backtrack = 0;
      analyze(conflict, learnt, backtrack);
      backtrack_to(backtrack);
      if (learnt.size() == 1) {
        backtrack_to(0);
        if (value_of(learnt[0]) == Value::kFalse) {
          unsat_ = true;
          active_budget_ = nullptr;
          return SolveResult::kUnsat;
        }
        if (value_of(learnt[0]) == Value::kUnassigned)
          enqueue(learnt[0], -1);
      } else {
        clauses_.push_back(learnt);
        const auto index = static_cast<std::uint32_t>(clauses_.size() - 1);
        attach_clause(index);
        enqueue(learnt[0], static_cast<std::int32_t>(index));
      }
      decay();
      if (conflicts_since_restart >= restart_limit) {
        conflicts_since_restart = 0;
        restart_limit = restart_limit + restart_limit / 2;
        backtrack_to(0);
      }
      continue;
    }

    const unsigned var = pick_branch_var();
    if (var == num_vars()) {
      for (unsigned v = 0; v < num_vars(); ++v)
        model_[v] = assign_[v] == Value::kTrue;
      backtrack_to(0);
      active_budget_ = nullptr;
      return SolveResult::kSat;
    }
    ++decisions_;
    trail_limits_.push_back(static_cast<unsigned>(trail_.size()));
    enqueue(Lit(var, !saved_phase_[var]), -1);
  }
}

}  // namespace rdc::sat
