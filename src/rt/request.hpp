// Request handles — the MPI_Request analogue shared by the two-sided
// runtime and the RMA core.
//
// A Request is a cheap copyable handle onto shared completion state. The
// paper's nonblocking synchronizations return these; completion is detected
// with the wait/test family exactly as for MPI_Isend (Section IV).
//
// Completion carries an nbe::Status. Healthy operations complete with
// NBE_SUCCESS; a failed link, exhausted retransmission budget or protocol
// slip completes the request with the matching NBE_ERR_* code instead of
// the runtime throwing from inside the event loop — mirroring how MPI
// reports operation errors through the request, not by aborting the job.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "net/status.hpp"
#include "sim/callback.hpp"
#include "sim/engine.hpp"

namespace nbe::rt {

using nbe::Status;

/// Shared completion state behind a Request handle.
class RequestState {
public:
    /// Marks the request complete with NBE_SUCCESS and wakes all waiters.
    /// Idempotent; never downgrades an earlier error.
    void complete(sim::Engine& engine) { finish(engine, NBE_SUCCESS); }

    /// Marks the request complete with an error code and wakes all waiters.
    /// The first status to land wins.
    void fail(sim::Engine& engine, Status s) { finish(engine, s); }

    [[nodiscard]] bool is_complete() const noexcept { return complete_; }
    [[nodiscard]] Status status() const noexcept { return status_; }

    /// Labels what this request stands for ("icomplete(win 0, seq 3)");
    /// surfaced by the deadlock diagnostics while a process waits on it.
    /// The label string is rendered only if a process actually parks on
    /// this request (or diagnostics ask for it), which keeps string
    /// formatting off the steady-state completion path.
    void set_label_fn(sim::SmallFn<std::string()> fn) {
        label_fn_ = std::move(fn);
    }
    [[nodiscard]] std::string label() const {
        return label_fn_ ? label_fn_() : std::string();
    }

    /// Observability hook: invoked once, with the virtual enter/exit times
    /// of the first wait() that returns after the observer is installed.
    /// The RMA core uses it to derive the communication/computation overlap
    /// ratio of a nonblocking epoch (how much of the close-to-completion
    /// interval the application actually spent blocked).
    using WaitObserver =
        std::function<void(sim::Time enter, sim::Time exit)>;
    void set_wait_observer(WaitObserver fn) { wait_observer_ = std::move(fn); }

    /// Parks the process until complete (progress is autonomous). Returns
    /// the completion status.
    Status wait(sim::Process& p) {
        const sim::Time enter = p.now();
        if (!complete_) {
            // The label is rendered only if the deadlock dump lists this
            // process: parking costs no string.
            p.set_blocked_on(this, [](const void* self) {
                std::string lbl =
                    static_cast<const RequestState*>(self)->label();
                return lbl.empty() ? std::string("request wait") : lbl;
            });
            cond_.wait_until(p, [this] { return complete_; });
            p.set_blocked_on(nullptr, nullptr);
        }
        if (wait_observer_) {
            auto fn = std::move(wait_observer_);
            wait_observer_ = nullptr;
            fn(enter, p.now());
        }
        return status_;
    }

    /// The state behind the paper's "dummy request flagged as completed at
    /// creation time" returned by every nonblocking epoch-*opening* routine
    /// (Section VII-C). A single shared immutable instance: finish() is a
    /// no-op on it, wait() returns without parking, and no call site attaches
    /// labels or observers to an already-completed request — so every dummy
    /// can alias one state instead of allocating per call.
    static const std::shared_ptr<RequestState>& completed() {
        static const std::shared_ptr<RequestState> st = [] {
            auto s = std::make_shared<RequestState>();
            s->complete_ = true;
            return s;
        }();
        return st;
    }

    /// Creates a state that is already complete with an error. Always a
    /// fresh instance — the status differs per failure and must never be
    /// written into the shared completed() singleton.
    static std::shared_ptr<RequestState> failed(Status s) {
        auto st = std::make_shared<RequestState>();
        st->complete_ = true;
        st->status_ = s;
        return st;
    }

private:
    void finish(sim::Engine& engine, Status s) {
        if (!complete_) {
            complete_ = true;
            status_ = s;
            cond_.notify_all(engine);
        }
    }

    bool complete_ = false;
    Status status_ = NBE_SUCCESS;
    mutable sim::SmallFn<std::string()> label_fn_;
    WaitObserver wait_observer_;
    sim::Condition cond_;
};

/// Application-level request handle (MPI_Request analogue).
class Request {
public:
    Request() = default;
    explicit Request(std::shared_ptr<RequestState> st) : st_(std::move(st)) {}

    [[nodiscard]] bool valid() const noexcept { return st_ != nullptr; }

    /// Nonblocking completion probe (MPI_Test analogue).
    [[nodiscard]] bool test() const {
        check();
        return st_->is_complete();
    }

    /// Completion status: NBE_SUCCESS while pending or after a healthy
    /// completion, NBE_ERR_* after a failed one.
    [[nodiscard]] Status status() const {
        check();
        return st_->status();
    }

    /// Blocks (in virtual time) until the operation completes; returns its
    /// completion status.
    Status wait(sim::Process& p) {
        check();
        return st_->wait(p);
    }

    /// Waits for every request in the span; returns the first error seen
    /// (NBE_SUCCESS if all completed cleanly).
    static Status wait_all(sim::Process& p, std::span<Request> reqs) {
        Status out = NBE_SUCCESS;
        for (auto& r : reqs) {
            const Status s = r.wait(p);
            if (out == NBE_SUCCESS) out = s;
        }
        return out;
    }

    [[nodiscard]] const std::shared_ptr<RequestState>& state() const {
        return st_;
    }

private:
    void check() const {
        if (!st_) throw std::logic_error("operation on null Request");
    }
    std::shared_ptr<RequestState> st_;
};

}  // namespace nbe::rt
