// Discrete-event simulation engine.
//
// A single-threaded event loop over simulated time. Parallelism in the Monte
// Carlo harness comes from running many independent Simulator instances, one
// per worker thread, never from sharing one engine across threads.
//
// The engine is a table of event sources. The client declares how many
// sources it has, numbered [0, n), and each source holds at most one pending
// event: a fault clock, an audit, a repair. Pending events live in one
// compact array that Step() scans for the earliest (time, seq); arming
// appends, firing and disarming swap-remove. The engine is allocation-free
// once attached: the array never outgrows the source count. See
// src/sim/README.md for the design and the Reset() contract.

#ifndef LONGSTORE_SRC_SIM_SIMULATOR_H_
#define LONGSTORE_SRC_SIM_SIMULATOR_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "src/util/units.h"

namespace longstore {

// Receiver of fired events. The simulator stores no callbacks: every armed
// source carries a client-defined tag plus two integer payload words, and
// firing dispatches them here. Implementations switch on the tag (the
// storage layer's dispatch lives in ReplicatedStorageSystem::OnSimEvent).
class SimClient {
 public:
  virtual void OnSimEvent(uint16_t tag, int32_t a, int32_t b) = 0;

 protected:
  ~SimClient() = default;  // not deleted through this interface
};

class Simulator {
 public:
  explicit Simulator(SimClient* client = nullptr, uint32_t source_count = 0) {
    Attach(client, source_count);
  }

  // Not copyable or movable: clients capture `this`.
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // Attaches the client that receives every fired event and declares its
  // event sources [0, source_count). Throws std::logic_error while an event
  // is pending. A ReplicatedStorageSystem attaches itself on construction.
  void Attach(SimClient* client, uint32_t source_count);
  SimClient* client() const { return client_; }
  uint32_t source_count() const { return static_cast<uint32_t>(sources_.size()); }

  Duration now() const { return now_; }

  // Arms `source` to fire at absolute simulated time `t` (>= now, and
  // finite; "never" is expressed by not arming). Events at equal times fire
  // in arming order (stable FIFO tie-break), which keeps fault histories
  // reproducible. `tag`, `a`, `b` are delivered verbatim to the client's
  // OnSimEvent. A source holds one event: arming an armed source throws
  // std::logic_error (disarm it first), and a source index outside
  // [0, source_count()) throws std::out_of_range.
  void Arm(uint32_t source, Duration t, uint16_t tag, int32_t a = 0, int32_t b = 0) {
    if (!(t >= now_ && t.hours() < kInfiniteHours) || client_ == nullptr ||
        source >= sources_.size() || sources_[source].pending_index != kUnarmed) {
      ThrowArmError(source, t);
    }
    Source& s = sources_[source];
    s.pending_index = static_cast<uint32_t>(pending_.size());
    s.tag = tag;
    s.a = a;
    s.b = b;
    pending_.push_back(Pending{t.hours(), next_seq_++, source});
    if (pending_.size() > peak_pending_) {
      peak_pending_ = pending_.size();
    }
  }
  void ArmAfter(uint32_t source, Duration delay, uint16_t tag, int32_t a = 0,
                int32_t b = 0) {
    Arm(source, now_ + delay, tag, a, b);
  }

  // Drops `source`'s pending event. Returns whether one was pending. O(1).
  bool Disarm(uint32_t source) {
    const uint32_t index = SourceAt(source).pending_index;
    if (index == kUnarmed) {
      return false;
    }
    RemovePending(index);
    return true;
  }

  // Whether `source` holds a pending event. A source is disarmed before its
  // event is dispatched, so a handler may re-arm the source that fired.
  bool armed(uint32_t source) const { return SourceAt(source).pending_index != kUnarmed; }

  // Fires the next pending event whose time is <= `horizon`. Returns false
  // when no such event remains (the clock is left untouched in that case).
  bool Step(Duration horizon = Duration::Infinite());

  // Runs until no event is pending or Stop() is called.
  void Run();

  // Processes all events with time <= horizon, then advances the clock to
  // exactly `horizon` (unless stopped earlier).
  void RunUntil(Duration horizon);

  // Requests the current Run()/RunUntil() to return after the in-flight
  // event completes. Typically called from inside a client handler (e.g. on
  // data loss).
  void Stop() { stopped_ = true; }
  bool stopped() const { return stopped_; }

  // Returns the engine to its just-attached state (time zero, every source
  // disarmed) while keeping every buffer's capacity, so a reused simulator
  // arms and fires events without touching the heap allocator. The client
  // and its source count are kept.
  void Reset();

  size_t pending_count() const { return pending_.size(); }
  // Most events pending at once since the last Reset() (or Attach()).
  size_t peak_pending() const { return peak_pending_; }
  uint64_t processed_count() const { return processed_; }

 private:
  // One pending event: 24 bytes, so the scan in Step() reads few cache
  // lines. The tag and payload stay in the source's table entry.
  struct Pending {
    double time_hours;
    uint64_t seq;  // FIFO tie-break for equal times
    uint32_t source;

    bool FiresBefore(const Pending& other) const {
      if (time_hours != other.time_hours) {
        return time_hours < other.time_hours;
      }
      return seq < other.seq;
    }
  };
  static constexpr uint32_t kUnarmed = ~uint32_t{0};

  struct Source {
    uint32_t pending_index = kUnarmed;  // position in pending_, or kUnarmed
    uint16_t tag = 0;
    int32_t a = 0;
    int32_t b = 0;
  };

  static constexpr double kInfiniteHours = std::numeric_limits<double>::infinity();

  const Source& SourceAt(uint32_t source) const {
    if (source >= sources_.size()) {
      ThrowSourceOutOfRange();
    }
    return sources_[source];
  }
  // The throw paths, kept out of line so the inline fast paths stay small.
  [[noreturn]] void ThrowArmError(uint32_t source, Duration t) const;
  [[noreturn]] static void ThrowSourceOutOfRange();

  // Swap-removes pending_[index] and marks its source disarmed.
  void RemovePending(uint32_t index) {
    sources_[pending_[index].source].pending_index = kUnarmed;
    const Pending last = pending_.back();
    pending_.pop_back();
    if (index < pending_.size()) {
      pending_[index] = last;
      sources_[last.source].pending_index = index;
    }
  }

  Duration now_ = Duration::Zero();
  uint64_t next_seq_ = 1;
  uint64_t processed_ = 0;
  size_t peak_pending_ = 0;
  bool stopped_ = false;
  SimClient* client_ = nullptr;

  std::vector<Source> sources_;
  std::vector<Pending> pending_;  // unordered; capacity >= sources_.size()
};

}  // namespace longstore

#endif  // LONGSTORE_SRC_SIM_SIMULATOR_H_
