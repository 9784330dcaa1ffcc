#include "src/sim/simulator.h"

#include <stdexcept>

namespace longstore {

void Simulator::Attach(SimClient* client, uint32_t source_count) {
  if (!pending_.empty()) {
    throw std::logic_error("Simulator::Attach: events are pending");
  }
  client_ = client;
  sources_.assign(source_count, Source{});
  // Each source holds at most one event, so arming never grows the array.
  pending_.reserve(source_count);
}

void Simulator::ThrowSourceOutOfRange() {
  throw std::out_of_range("Simulator: event source out of range");
}

void Simulator::ThrowArmError(uint32_t source, Duration t) const {
  if (t < now_) {
    throw std::invalid_argument("Arm: cannot schedule in the past");
  }
  if (!(t.hours() < kInfiniteHours)) {  // +inf or NaN
    throw std::invalid_argument("Arm: time must be finite");
  }
  if (client_ == nullptr) {
    throw std::logic_error("Arm: no SimClient attached");
  }
  (void)SourceAt(source);  // throws std::out_of_range
  throw std::logic_error("Arm: event source is already armed");
}

bool Simulator::Step(Duration horizon) {
  if (pending_.empty()) {
    return false;
  }
  // A linear scan: clients hold a handful of pending events (see README),
  // where a scan beats any ordered structure's upkeep.
  uint32_t next = 0;
  for (uint32_t i = 1; i < pending_.size(); ++i) {
    if (pending_[i].FiresBefore(pending_[next])) {
      next = i;
    }
  }
  const Pending event = pending_[next];
  if (event.time_hours > horizon.hours()) {
    return false;
  }
  RemovePending(next);
  // Copied out first: the handler may re-arm this source.
  const Source s = sources_[event.source];
  now_ = Duration::Hours(event.time_hours);
  ++processed_;
  client_->OnSimEvent(s.tag, s.a, s.b);
  return true;
}

void Simulator::Run() {
  stopped_ = false;
  while (!stopped_ && Step()) {
  }
}

void Simulator::RunUntil(Duration horizon) {
  stopped_ = false;
  while (!stopped_ && Step(horizon)) {
  }
  if (!stopped_ && now_ < horizon) {
    now_ = horizon;
  }
}

void Simulator::Reset() {
  for (const Pending& event : pending_) {
    sources_[event.source].pending_index = kUnarmed;
  }
  pending_.clear();  // keeps the capacity
  now_ = Duration::Zero();
  next_seq_ = 1;
  processed_ = 0;
  peak_pending_ = 0;
  stopped_ = false;
}

}  // namespace longstore
