// Discrete-event simulation engine with cooperatively scheduled processes.
//
// The engine owns a virtual clock and an event queue. Simulated processes
// run *cooperatively*: exactly one context — the engine or one simulated
// process — executes at any instant. Because execution is strictly serial,
// simulation state needs no further locking; determinism follows from the
// (time, sequence) total order on events.
//
// Each process runs on a stackful fiber (sim/fiber.hpp) on the engine's
// own OS thread. A handoff is a userspace register swap — no kernel
// involvement — which is what makes large rank counts practical. The
// handoff only decides *how* control reaches the process the event loop
// picked, never *which* one, so a given seed produces byte-identical
// traces on every run.
//
// A process blocks in virtual time by calling Process::advance (compute for
// a fixed duration), Process::yield (reschedule at the same timestamp), or
// Condition::wait (park until notified). Events scheduled by middleware
// callbacks run on the engine context and must not block.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/calendar.hpp"
#include "sim/fiber.hpp"
#include "sim/time.hpp"

namespace nbe::sim {

class Engine;
class Process;

/// Thrown inside a simulated process when the engine tears down while the
/// process is still parked; unwinds the process stack cleanly.
struct ProcessKilled {};

/// Error thrown when the event queue drains while processes are still
/// parked — the simulated job deadlocked. what() carries a full diagnostics
/// dump: every parked process with its blocked-on location, followed by the
/// output of each diagnostic callback registered on the engine (the RMA
/// engine dumps open epoch state, the fabric dumps credit and retransmit
/// counters).
class DeadlockError : public std::runtime_error {
public:
    explicit DeadlockError(const std::string& what) : std::runtime_error(what) {}
};

/// A simulated process. Runs its body on its own fiber, but only while the
/// engine has handed it control. All member functions that park
/// (advance/yield/wait) must be called from within the process's own
/// context.
class Process {
public:
    Process(Engine& engine, std::string name, std::function<void(Process&)> body);
    ~Process();

    Process(const Process&) = delete;
    Process& operator=(const Process&) = delete;

    /// Current virtual time.
    [[nodiscard]] Time now() const noexcept;

    /// Consume `d` of virtual CPU time (models computation / work).
    void advance(Duration d);

    /// Reschedule at the current timestamp, after already-queued events.
    void yield();

    [[nodiscard]] const std::string& name() const noexcept { return name_; }
    [[nodiscard]] bool finished() const noexcept { return finished_; }
    [[nodiscard]] bool failed() const noexcept { return failed_; }
    [[nodiscard]] const std::string& failure() const noexcept { return failure_; }

    /// Renders what a process is parked on from the object it waits for.
    using BlockedLabel = std::string (*)(const void* source);

    /// Names what the process is about to park on (set by the blocking
    /// primitive): `render(source)` gives the text, e.g. "close fence
    /// epoch(win 0, seq 3) @ rank1". Nothing is rendered until the
    /// deadlock diagnostics read blocked_on(), so `source` must outlive
    /// the wait; the primitive clears it with (nullptr, nullptr) after.
    void set_blocked_on(const void* source, BlockedLabel render) noexcept {
        blocked_source_ = source;
        blocked_render_ = render;
    }
    [[nodiscard]] std::string blocked_on() const {
        return blocked_render_ != nullptr ? blocked_render_(blocked_source_)
                                          : std::string();
    }

    Engine& engine() noexcept { return engine_; }

private:
    friend class Engine;
    friend class Condition;

    /// Fiber entry: honours a pre-start kill, traps escaping exceptions
    /// into failed_/failure_, sets finished_.
    void run_body();

    /// Engine side: transfer control to the process until it parks/finishes.
    void resume();
    /// Process side: give control back to the engine and wait to be resumed.
    void park();
    /// Engine side (teardown): wake a parked process with ProcessKilled.
    void kill();

    Engine& engine_;
    std::string name_;
    std::function<void(Process&)> body_;

    bool killing_ = false;
    bool started_ = false;
    bool finished_ = false;
    bool failed_ = false;
    bool parked_ = false;  // parked and not scheduled for resumption
    std::string failure_;
    const void* blocked_source_ = nullptr;
    BlockedLabel blocked_render_ = nullptr;
    Fiber fiber_;  // last: its entry captures the fields above
};

/// The event queue + virtual clock. Construct, spawn processes, run().
class Engine {
public:
    /// Fibers are the only handoff. The enum survives only because
    /// rt::JobConfig still names it; it carries no choice.
    enum class Backend { Fibers };

    Engine() = default;
    ~Engine();

    Engine(const Engine&) = delete;
    Engine& operator=(const Engine&) = delete;

    [[nodiscard]] Time now() const noexcept { return now_; }

    /// Schedule `fn` to run on the engine context at absolute time `at`
    /// (clamped to now). Callable from the engine or from the currently
    /// running process. Accepts any callable, including move-only ones;
    /// captures up to kSmallFnInlineBytes stay allocation-free.
    template <class F>
    void schedule_at(Time at, F&& fn) {
        if (at < now_) at = now_;
        queue_.emplace(at, next_seq_++, nullptr, std::forward<F>(fn));
    }

    /// Schedule `fn` after a delay from now.
    template <class F>
    void schedule_after(Duration d, F&& fn) {
        schedule_at(now_ + (d < 0 ? 0 : d), std::forward<F>(fn));
    }

    /// Hot path: schedule `p` to be resumed at absolute time `at` (clamped
    /// to now). Equivalent to schedule_at with a resume lambda, but carries
    /// the process pointer in the event itself — no std::function
    /// allocation for the dominant event kind.
    void schedule_process(Time at, Process* p);

    /// Create a simulated process whose body starts at virtual time `start`.
    Process& spawn(std::string name, std::function<void(Process&)> body,
                   Time start = 0);

    /// Run until the event queue drains. Throws DeadlockError if processes
    /// are still parked when the queue empties, and rethrows the first
    /// process failure (exception escaping a process body).
    void run();

    /// Number of processes that have not finished.
    [[nodiscard]] std::size_t live_process_count() const noexcept;

    /// Kills every unfinished process (unwinding their stacks) and releases
    /// them. Idempotent; called automatically on destruction. Owners whose
    /// state is referenced by process bodies must call this before that
    /// state is destroyed.
    void shutdown();

    /// Number of events executed so far (diagnostics).
    [[nodiscard]] std::uint64_t events_executed() const noexcept { return executed_; }

    /// Event-queue tier statistics (diagnostics / tests). Intentionally not
    /// exported through obs metrics: the queue implementation is a pure
    /// execution-strategy choice and must not perturb exported output.
    [[nodiscard]] const EventQueue::Stats& queue_stats() const noexcept {
        return queue_.stats();
    }

    /// Internal: records the first process failure; run() rethrows it.
    void note_failure(std::string what);

    /// Registers a callback whose output is appended to the DeadlockError
    /// dump when the queue drains with parked processes. Returns a handle
    /// for remove_diagnostic; owners whose state the callback references
    /// must deregister before that state dies.
    using Diagnostic = std::function<std::string()>;
    std::uint64_t add_diagnostic(Diagnostic fn);
    void remove_diagnostic(std::uint64_t id);

private:
    friend class Process;

    Time now_ = 0;
    std::uint64_t next_seq_ = 0;
    std::uint64_t executed_ = 0;
    EventQueue queue_;
    std::vector<std::unique_ptr<Process>> processes_;
    bool running_ = false;
    bool have_failure_ = false;
    std::string first_failure_;
    std::uint64_t next_diag_id_ = 1;
    std::vector<std::pair<std::uint64_t, Diagnostic>> diagnostics_;
};

/// A virtual-time condition variable. Processes park on it; notify_all
/// reschedules every parked waiter at the current timestamp. Waiters must
/// re-check their predicate after waking (notifications are broadcast).
class Condition {
public:
    /// Park the calling process until the next notify_all.
    void wait(Process& p);

    /// Wait until `pred()` is true, parking between notifications.
    template <typename Pred>
    void wait_until(Process& p, Pred&& pred) {
        while (!pred()) wait(p);
    }

    /// Wake every current waiter (scheduled at the present timestamp).
    void notify_all(Engine& engine);

    [[nodiscard]] std::size_t waiter_count() const noexcept {
        return (first_ != nullptr ? 1 : 0) + more_.size();
    }

private:
    // Waiters in arrival order: the first inline, since a request almost
    // always has one, and the rest after it.
    Process* first_ = nullptr;
    std::vector<Process*> more_;
};

}  // namespace nbe::sim
