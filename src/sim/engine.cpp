#include "sim/engine.hpp"

#include <sstream>
#include <utility>

namespace nbe::sim {

// ---------------------------------------------------------------- Process

Process::Process(Engine& engine, std::string name,
                 std::function<void(Process&)> body)
    : engine_(engine),
      name_(std::move(name)),
      body_(std::move(body)),
      fiber_([this] { run_body(); }, Fiber::default_stack_bytes(), name_) {}

Process::~Process() { kill(); }  // no-op when already finished

Time Process::now() const noexcept { return engine_.now(); }

void Process::run_body() {
    if (!killing_) {
        started_ = true;
        try {
            body_(*this);
        } catch (ProcessKilled&) {
            // Engine teardown: unwind silently.
        } catch (const std::exception& e) {
            failed_ = true;
            failure_ = e.what();
        } catch (...) {
            failed_ = true;
            failure_ = "unknown exception";
        }
    }
    finished_ = true;
}

void Process::resume() {
    assert(!finished_);
    fiber_.switch_in();
}

void Process::park() {
    fiber_.switch_out();
    if (killing_) throw ProcessKilled{};
}

// Waking a parked process with killing_ set makes park() throw
// ProcessKilled; the unwind lands back in run_body, the entry returns, and
// switch_in comes back with the fiber finished.
void Process::kill() {
    if (finished_) return;
    killing_ = true;
    fiber_.switch_in();
}

void Process::advance(Duration d) {
    if (d < 0) d = 0;
    parked_ = false;
    engine_.schedule_process(engine_.now() + d, this);
    park();
}

void Process::yield() { advance(0); }

// ----------------------------------------------------------------- Engine

Engine::~Engine() { shutdown(); }

void Engine::shutdown() {
    for (auto& p : processes_) {
        if (!p->finished()) p->kill();
    }
    processes_.clear();  // releases fibers
    // Drop pending events too: their closures may hold pooled resources
    // (packets, epochs) whose owners are being torn down alongside us.
    queue_.clear();
}

void Engine::schedule_process(Time at, Process* p) {
    if (at < now_) at = now_;
    queue_.emplace(at, next_seq_++, p, nullptr);
}

Process& Engine::spawn(std::string name, std::function<void(Process&)> body,
                       Time start) {
    processes_.push_back(
        std::make_unique<Process>(*this, std::move(name), std::move(body)));
    Process* p = processes_.back().get();
    schedule_process(start, p);
    return *p;
}

void Engine::run() {
    running_ = true;
    // Closures run in place in the queue's slab and are released after
    // they return (or unwind), the point where a popped Event would have
    // been destroyed.
    struct Release {
        EventQueue& q;
        std::uint32_t slot;
        ~Release() { q.release(slot); }
    };
    while (!queue_.empty() && !have_failure_) {
        const EventQueue::Key k = queue_.pop_key();
        now_ = k.at;
        ++executed_;
        Release done{queue_, k.slot};
        EventQueue::Body& ev = queue_.body(k.slot);
        if (ev.proc != nullptr) {
            ev.proc->resume();
            if (ev.proc->failed_) {
                note_failure(ev.proc->name_ + ": " + ev.proc->failure_);
            }
        } else {
            ev.fn();
        }
    }
    running_ = false;
    if (have_failure_) {
        throw std::runtime_error("simulated process failed: " + first_failure_);
    }
    std::size_t parked = 0;
    std::ostringstream names;
    std::ostringstream where;
    for (const auto& p : processes_) {
        if (!p->finished() && p->parked_) {
            if (parked++ < 8) names << (parked > 1 ? ", " : "") << p->name();
            const std::string what = p->blocked_on();
            where << "  " << p->name() << ": blocked on "
                  << (what.empty() ? "<unknown>" : what) << "\n";
        }
    }
    if (parked > 0) {
        std::ostringstream msg;
        msg << "simulation deadlock: " << parked
            << " process(es) parked with no pending events [" << names.str()
            << "]\nparked processes:\n"
            << where.str();
        for (const auto& [id, fn] : diagnostics_) {
            const std::string dump = fn();
            if (!dump.empty()) msg << dump << "\n";
        }
        throw DeadlockError(msg.str());
    }
}

std::size_t Engine::live_process_count() const noexcept {
    std::size_t n = 0;
    for (const auto& p : processes_) {
        if (!p->finished()) ++n;
    }
    return n;
}

void Engine::note_failure(std::string what) {
    if (!have_failure_) {
        have_failure_ = true;
        first_failure_ = std::move(what);
    }
}

std::uint64_t Engine::add_diagnostic(Diagnostic fn) {
    diagnostics_.emplace_back(next_diag_id_, std::move(fn));
    return next_diag_id_++;
}

void Engine::remove_diagnostic(std::uint64_t id) {
    for (auto it = diagnostics_.begin(); it != diagnostics_.end(); ++it) {
        if (it->first == id) {
            diagnostics_.erase(it);
            return;
        }
    }
}

// -------------------------------------------------------------- Condition

void Condition::wait(Process& p) {
    if (first_ == nullptr) {
        first_ = &p;
    } else {
        more_.push_back(&p);
    }
    p.parked_ = true;
    p.park();
}

void Condition::notify_all(Engine& engine) {
    if (first_ == nullptr) return;
    // Scheduling runs nothing, so no waiter can re-enter this condition
    // before the lists are cleared.
    auto wake = [&](Process* w) {
        w->parked_ = false;
        engine.schedule_process(engine.now(), w);
    };
    wake(std::exchange(first_, nullptr));
    for (Process* w : more_) wake(w);
    more_.clear();
}

}  // namespace nbe::sim
