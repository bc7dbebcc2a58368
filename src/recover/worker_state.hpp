#pragma once
// recover::WorkerState — one process worker's life as an explicit state
// machine, after bscheduler's pipeline_state. The process executor keeps
// one per grid node and consults nothing else to decide whether the node
// is up; every change goes through transition(), so an unplanned edge
// fails loudly instead of leaving a node half-dead. The legal edges:
//
//   up         → dead          worker lost (EOF, failed write)
//   dead       → respawning    supervisor: respawn after backoff
//   dead       → degraded      supervisor: budget spent, map around it
//   respawning → up | dead     replacement forked | fork failed
//   dead, respawning, degraded → up    arrival (request_arrival)
//
// Pure (no fork, clock or I/O), so the tests walk the whole table.

#include <cstdint>
#include <stdexcept>
#include <string>

namespace gridpipe::recover {

enum class WorkerState : std::uint8_t {
  kUp,          ///< forked and connected
  kDead,        ///< reaped, awaiting the supervisor's decision
  kRespawning,  ///< supervisor chose respawn; backoff pending
  kDegraded,    ///< supervisor gave the node up; mapped around
};

inline const char* to_string(WorkerState state) noexcept {
  switch (state) {
    case WorkerState::kUp: return "up";
    case WorkerState::kDead: return "dead";
    case WorkerState::kRespawning: return "respawning";
    case WorkerState::kDegraded: return "degraded";
  }
  return "?";
}

/// Returns `to` when from → to is a legal edge (table above); throws
/// std::logic_error naming both states otherwise.
inline WorkerState transition(WorkerState from, WorkerState to) {
  using S = WorkerState;
  bool legal = false;
  switch (from) {
    case S::kUp: legal = to == S::kDead; break;
    case S::kDead: legal = to != S::kDead; break;
    case S::kRespawning: legal = to == S::kUp || to == S::kDead; break;
    case S::kDegraded: legal = to == S::kUp; break;
  }
  if (!legal) {
    throw std::logic_error(std::string("worker state: illegal edge ") +
                           to_string(from) + " -> " + to_string(to));
  }
  return to;
}

/// Whether bringing a node up from `from` on an arrival owes a replay of
/// the undelivered items: a dead or respawning node does (no other path
/// will resend what was lost with it), a degraded node does not (its
/// items were replayed onto the survivors when it was degraded, and
/// later ones were mapped around it).
inline bool arrival_owes_replay(WorkerState from) noexcept {
  return from == WorkerState::kDead || from == WorkerState::kRespawning;
}

}  // namespace gridpipe::recover
