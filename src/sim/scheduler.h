#ifndef ECDB_SIM_SCHEDULER_H_
#define ECDB_SIM_SCHEDULER_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.h"
#include "sim/task.h"

namespace ecdb {

/// Deterministic discrete-event scheduler: the heart of the simulated
/// cluster, and the only timed-event queue in the repo. Events fire in
/// (time, insertion-order) order, so two runs with the same seed replay
/// identically. All simulated components (network delivery, worker
/// completions, protocol timeouts, client arrivals) are events on one
/// scheduler.
///
/// Wall-clock hosts use the same queue on their own time axis: a threaded
/// worker's timers, the threaded network's fault-delay pump and the
/// threaded fault plan arm events with absolute `ScheduleAt` deadlines and
/// fire them with `RunUntil(now)`, sleeping until `NextEventAt` between
/// turns. The clock then only records the last `RunUntil` bound; deadlines
/// already behind it are clamped to it and fire on the next turn.
///
/// Implementation notes (this is the hottest structure in the repo — every
/// simulated message and timer passes through it twice):
///
///  * The priority queue is a hand-rolled 4-ary heap of 24-byte POD
///    entries; sift operations are plain copies, and the four children of
///    a node share at most two cache lines.
///  * Tasks live inline in generation-counted slots (an append-grown array
///    recycled through a free list), so scheduling an event performs no
///    hashing, no rehash, and — for callables that fit TaskFn's inline
///    buffer — no allocation. This replaces the previous
///    priority_queue + unordered_map<TaskId, std::function> design, which
///    paid a node allocation and a hash insert/erase per event.
///  * `ScheduleAt` is a template so the callable is constructed directly in
///    its slot; the hot path lives in this header to inline into callers.
///  * `Cancel` is amortized O(1): bumping the slot's generation invalidates
///    the queue entry in place (it is skipped lazily at pop time) and
///    destroys the captured state eagerly, matching the old map-erase
///    semantics. Once cancelled entries outnumber live ones they are
///    dropped in bulk, so a queue whose timers are nearly all cancelled
///    (protocol timeouts, the execution watchdog) stays shallow.
class Scheduler {
 public:
  using TaskId = uint64_t;
  using Task = TaskFn;

  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Current simulated time in microseconds.
  Micros Now() const { return now_; }

  /// Schedules `task` to run at absolute simulated time `when` (clamped to
  /// now). Returns an id usable with `Cancel`; ids are never zero.
  template <typename F>
  TaskId ScheduleAt(Micros when, F&& task) {
    if (when < now_) when = now_;
    uint32_t slot;
    if (free_slots_.empty()) {
      slot = static_cast<uint32_t>(slots_.size());
      slots_.emplace_back();
    } else {
      slot = free_slots_.back();
      free_slots_.pop_back();
    }
    Slot& s = slots_[slot];
    s.task = std::forward<F>(task);  // constructs in place (TaskFn assign)
    const TaskId id = (static_cast<TaskId>(slot) << 32) | s.gen;
    heap_.push_back(Entry{when, next_seq_++, id});
    SiftUp(heap_.size() - 1);
    ++live_count_;
    return id;
  }

  /// Schedules `task` to run `delay` microseconds from now.
  template <typename F>
  TaskId ScheduleAfter(Micros delay, F&& task) {
    return ScheduleAt(now_ + delay, std::forward<F>(task));
  }

  /// Cancels a pending task. Returns false if it already ran or was
  /// cancelled before.
  bool Cancel(TaskId id) {
    const uint32_t slot = SlotOf(id);
    if (slot >= slots_.size() || slots_[slot].gen != GenOf(id)) {
      return false;  // already ran, already cancelled, or never issued
    }
    // Lazy cancellation: the queue entry stays (skipped at pop time via the
    // generation check) but the task is destroyed now, so captured
    // resources are released immediately. Keeps Cancel O(1).
    slots_[slot].task = Task();
    RetireSlot(slot);
    --live_count_;
    if (heap_.size() > 64 && heap_.size() > 2 * live_count_) Compact();
    return true;
  }

  /// Earliest pending (non-cancelled) deadline, if any event is pending.
  bool NextEventAt(Micros* when) {
    const Entry* head = PeekLive();
    if (head == nullptr) return false;
    *when = head->when;
    return true;
  }

  /// Installs a hook invoked between events: at the entry of every run
  /// call (so work produced outside any event is folded in before the
  /// scheduler decides what is next or whether it is idle) and after each
  /// executed event. The transport coalescing layer uses this to flush
  /// per-destination send buffers at step boundaries; the hook may
  /// schedule new events. A raw function pointer keeps the idle cost of
  /// the feature to one null check per step.
  void SetPostStepHook(void (*hook)(void*), void* ctx) {
    post_step_hook_ = hook;
    post_step_ctx_ = ctx;
  }

  /// Runs the next pending event, advancing the clock to its timestamp.
  /// Returns false if no events remain.
  bool RunOne() {
    if (post_step_hook_ != nullptr) post_step_hook_(post_step_ctx_);
    if (PeekLive() == nullptr) return false;
    RunHead();
    if (post_step_hook_ != nullptr) post_step_hook_(post_step_ctx_);
    return true;
  }

  /// Runs all events with timestamp <= `until`, then advances the clock to
  /// `until`. Returns the number of events executed.
  size_t RunUntil(Micros until);

  /// Runs events until the queue drains or `max_events` executed.
  /// Returns the number of events executed.
  size_t RunAll(size_t max_events = SIZE_MAX);

  /// True when no runnable events remain.
  bool Empty() const { return live_count_ == 0; }

  /// Number of pending (non-cancelled) events.
  size_t PendingCount() const { return live_count_; }

 private:
  /// Queue entry: trivially copyable so moves are raw 24-byte copies. `seq`
  /// is a global insertion counter giving FIFO order among same-time
  /// events; `id` packs (slot << 32) | generation.
  struct Entry {
    Micros when;
    uint64_t seq;
    TaskId id;
  };

  /// Task storage. The generation is bumped whenever the slot's task runs
  /// or is cancelled, so stale queue entries (and stale TaskIds held by
  /// callers) are recognized in O(1) without a lookup table.
  struct Slot {
    uint32_t gen = 1;  // never 0: TaskId 0 stays an "unset" sentinel
    Task task;
  };

  static bool Earlier(const Entry& a, const Entry& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;  // FIFO among same-time events
  }

  static uint32_t SlotOf(TaskId id) { return static_cast<uint32_t>(id >> 32); }
  static uint32_t GenOf(TaskId id) { return static_cast<uint32_t>(id); }

  bool LiveEntry(const Entry& e) const {
    return slots_[SlotOf(e.id)].gen == GenOf(e.id);
  }

  /// The single cancelled-entry skip point: discards stale entries until
  /// the next pending event is live (or the queue drains). Every pop path —
  /// RunOne, RunUntil, RunAll — funnels through here.
  const Entry* PeekLive() {
    while (!heap_.empty()) {
      const Entry& head = heap_[0];
      if (LiveEntry(head)) return &head;
      PopHeap();  // stale: cancelled (or slot since recycled)
    }
    return nullptr;
  }

  /// Drops cancelled entries and re-heapifies. (when, seq) is a total
  /// order, so the pop sequence is unchanged.
  void Compact() {
    size_t kept = 0;
    for (const Entry& e : heap_) {
      if (LiveEntry(e)) heap_[kept++] = e;
    }
    heap_.resize(kept);
    for (size_t i = kept / 4 + 1; i-- > 0;) {
      if (i < kept) SiftDown(i);
    }
  }

  /// Pops the (live) head, retires its slot, and runs its task.
  /// ConsumeInvoke moves the capture to the callee's frame and empties the
  /// slot before user code runs, so slot storage may grow (the task may
  /// schedule more events) and the slot may be recycled while it executes;
  /// cancelling the running task's own id during execution fails, exactly
  /// as with the old erase-then-invoke sequence.
  void RunHead() {
    const Entry head = heap_[0];
    PopHeap();
    const uint32_t slot = SlotOf(head.id);
    now_ = head.when;
    RetireSlot(slot);
    --live_count_;
    slots_[slot].task.ConsumeInvoke();
  }

  /// Removes heap_[0], restoring the heap property.
  void PopHeap() {
    const size_t last = heap_.size() - 1;
    if (last > 0) {
      heap_[0] = heap_[last];
      heap_.pop_back();
      SiftDown(0);
    } else {
      heap_.pop_back();
    }
  }

  /// Returns a slot (whose task must already be empty) to the free list,
  /// bumping the generation so outstanding ids/entries for it go stale.
  void RetireSlot(uint32_t slot) {
    Slot& s = slots_[slot];
    if (++s.gen == 0) s.gen = 1;
    free_slots_.push_back(slot);
  }

  void SiftUp(size_t i) {
    const Entry e = heap_[i];
    while (i > 0) {
      const size_t parent = (i - 1) >> 2;
      if (!Earlier(e, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  void SiftDown(size_t i) {
    const size_t n = heap_.size();
    const Entry e = heap_[i];
    for (;;) {
      const size_t first = 4 * i + 1;
      if (first >= n) break;
      size_t best = first;
      const size_t limit = first + 4 < n ? first + 4 : n;
      for (size_t c = first + 1; c < limit; ++c) {
        if (Earlier(heap_[c], heap_[best])) best = c;
      }
      if (!Earlier(heap_[best], e)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = e;
  }

  void (*post_step_hook_)(void*) = nullptr;
  void* post_step_ctx_ = nullptr;

  Micros now_ = 0;
  uint64_t next_seq_ = 0;
  size_t live_count_ = 0;
  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;

};

}  // namespace ecdb

#endif  // ECDB_SIM_SCHEDULER_H_
