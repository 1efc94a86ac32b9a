// Public API of nbepoch: Proc (one simulated MPI rank) and Window (an RMA
// window with the full blocking + nonblocking synchronization surface of the
// paper, Section V).
//
// Naming follows the paper's MPI API:
//   MPI_WIN_FENCE      -> Window::fence      / Window::ifence
//   MPI_WIN_START      -> Window::start      / Window::istart
//   MPI_WIN_COMPLETE   -> Window::complete   / Window::icomplete
//   MPI_WIN_POST       -> Window::post       / Window::ipost
//   MPI_WIN_WAIT/TEST  -> Window::wait_exposure / iwait_exposure /
//                         test_exposure
//   MPI_WIN_LOCK(_ALL) -> Window::lock / lock_all (+ i-variants)
//   MPI_WIN_UNLOCK...  -> Window::unlock / unlock_all (+ i-variants)
//   MPI_WIN_FLUSH...   -> Window::flush{,_local}{,_all} (+ i-variants)
//
// Every nonblocking variant returns an nbe::Request usable with wait/test,
// exactly like MPI_Isend's request (paper Section IV). Epoch-opening
// requests are complete at creation (Section VII-C).
#pragma once

#include <cstdio>
#include <functional>
#include <span>
#include <stdexcept>

#include "core/rma.hpp"
#include "core/types.hpp"
#include "rt/world.hpp"

namespace nbe {

using Rank = rt::Rank;
using Request = rt::Request;
using rma::EpochKind;
using rma::FenceAssert;
using rma::LockType;
using rma::OpKind;
using rma::ReduceOp;
using rma::TypeId;
using rma::WinInfo;
using rt::JobConfig;
using rt::Mode;

class Proc;

/// An RMA window handle bound to one rank. Cheap to copy.
class Window {
public:
    Window() = default;
    Window(rt::Process& proc, rma::Rma& rma, std::uint32_t id)
        : proc_(&proc), rma_(&rma), id_(id) {}

    [[nodiscard]] std::uint32_t id() const noexcept { return id_; }

    // ----- local window memory -----
    [[nodiscard]] std::byte* base() { return rma_->win_base(rank(), id_); }
    [[nodiscard]] std::size_t size_bytes() const {
        return rma_->win_size(rank(), id_);
    }
    /// Reads a T from the local window at element index `i` (valid only
    /// after appropriate synchronization).
    template <typename T>
    [[nodiscard]] T read(std::size_t i) {
        if (auto* ck = rma_->world().checker()) {
            ck->local_access(rank(), id_, i * sizeof(T), sizeof(T),
                             /*store=*/false);
        }
        T v{};
        std::memcpy(&v, base() + i * sizeof(T), sizeof(T));
        return v;
    }
    /// Writes a T into the local window (application-side local store).
    template <typename T>
    void write(std::size_t i, const T& v) {
        if (auto* ck = rma_->world().checker()) {
            ck->local_access(rank(), id_, i * sizeof(T), sizeof(T),
                             /*store=*/true);
        }
        std::memcpy(base() + i * sizeof(T), &v, sizeof(T));
    }

    // ----- communication calls (nonblocking, per MPI-3.0) -----
    void put(const void* src, std::size_t bytes, Rank target, std::size_t disp);
    void get(void* dst, std::size_t bytes, Rank target, std::size_t disp);

    template <typename T>
    void put(std::span<const T> src, Rank target, std::size_t elem_disp) {
        put(src.data(), src.size_bytes(), target, elem_disp * sizeof(T));
    }
    template <typename T>
    void get(std::span<T> dst, Rank target, std::size_t elem_disp) {
        get(dst.data(), dst.size_bytes(), target, elem_disp * sizeof(T));
    }

    template <typename T>
    void accumulate(std::span<const T> src, ReduceOp op, Rank target,
                    std::size_t elem_disp) {
        op_call(OpKind::Accumulate, target, elem_disp * sizeof(T), src.data(),
                nullptr, src.size(), rma::TypeIdOf<T>::value, op, false);
    }
    template <typename T>
    void get_accumulate(std::span<const T> src, std::span<T> result,
                        ReduceOp op, Rank target, std::size_t elem_disp) {
        op_call(OpKind::GetAccumulate, target, elem_disp * sizeof(T),
                src.data(), result.data(), src.size(), rma::TypeIdOf<T>::value,
                op, false);
    }
    /// result receives the pre-op target value once the epoch synchronizes.
    template <typename T>
    void fetch_and_op(const T& operand, T* result, ReduceOp op, Rank target,
                      std::size_t elem_disp) {
        op_call(OpKind::FetchAndOp, target, elem_disp * sizeof(T), &operand,
                result, 1, rma::TypeIdOf<T>::value, op, false);
    }
    /// result receives the pre-op target value; the swap applies iff the
    /// target value equalled `compare`.
    template <typename T>
    void compare_and_swap(const T& desired, const T& compare, T* result,
                          Rank target, std::size_t elem_disp) {
        const T pair[2] = {desired, compare};
        op_call(OpKind::CompareAndSwap, target, elem_disp * sizeof(T), pair,
                result, 1, rma::TypeIdOf<T>::value, ReduceOp::Replace, false);
    }

    // Request-based variants (passive-target epochs only, per MPI-3.0).
    Request rput(const void* src, std::size_t bytes, Rank target,
                 std::size_t disp);
    Request rget(void* dst, std::size_t bytes, Rank target, std::size_t disp);
    template <typename T>
    Request raccumulate(std::span<const T> src, ReduceOp op, Rank target,
                        std::size_t elem_disp) {
        return op_call(OpKind::Accumulate, target, elem_disp * sizeof(T),
                       src.data(), nullptr, src.size(),
                       rma::TypeIdOf<T>::value, op, true);
    }
    template <typename T>
    Request rget_accumulate(std::span<const T> src, std::span<T> result,
                            ReduceOp op, Rank target, std::size_t elem_disp) {
        return op_call(OpKind::GetAccumulate, target, elem_disp * sizeof(T),
                       src.data(), result.data(), src.size(),
                       rma::TypeIdOf<T>::value, op, true);
    }

    // ----- active target: fence -----
    void fence(unsigned asserts = 0);
    Request ifence(unsigned asserts = 0);

    // ----- active target: GATS -----
    void start(std::span<const Rank> group);
    Request istart(std::span<const Rank> group);
    void complete();
    Request icomplete();
    void post(std::span<const Rank> group);
    Request ipost(std::span<const Rank> group);
    void wait_exposure();
    Request iwait_exposure();
    [[nodiscard]] bool test_exposure();

    // ----- passive target -----
    void lock(LockType type, Rank target);
    Request ilock(LockType type, Rank target);
    void unlock(Rank target);
    Request iunlock(Rank target);
    void lock_all();
    Request ilock_all();
    void unlock_all();
    Request iunlock_all();

    // ----- flushes -----
    void flush(Rank target);
    void flush_all();
    void flush_local(Rank target);
    void flush_local_all();
    Request iflush(Rank target);
    Request iflush_all();
    Request iflush_local(Rank target);
    Request iflush_local_all();

    /// Waits on a request, accounting the wait as MPI time for this rank.
    void wait(Request& r);
    /// Tests a request (counts an MPI call; never blocks).
    [[nodiscard]] bool test(Request& r);

    [[nodiscard]] rma::Rma& engine() noexcept { return *rma_; }

private:
    friend class Proc;
    [[nodiscard]] Rank rank() const { return proc_->rank(); }
    Request op_call(OpKind kind, Rank target, std::size_t disp,
                    const void* in, void* out, std::size_t count, TypeId type,
                    ReduceOp rop, bool request_based);
    void enter();  // charge the call + count it as a progress call

    rt::Process* proc_ = nullptr;
    rma::Rma* rma_ = nullptr;
    std::uint32_t id_ = 0;
};

/// One simulated MPI rank with RMA capability. Extends the runtime process
/// with window creation and stats-aware request waiting.
class Proc : public rt::Process {
public:
    Proc(const rt::Process& p, rma::Rma& rma) : rt::Process(p), rma_(&rma) {}

    /// Collective window creation: every rank must call it in the same
    /// order with the same arguments. Synchronizes internally.
    Window create_window(std::size_t bytes, const WinInfo& info = {});

    /// Waits on a request, accounting the wait as MPI time.
    void wait(Request& r);
    void wait_all(std::span<Request> rs);
    [[nodiscard]] bool test(Request& r);

    [[nodiscard]] rma::Rma& rma() noexcept { return *rma_; }
    [[nodiscard]] const rma::RmaStats& rma_stats() const {
        return rma_->stats(rank());
    }

private:
    rma::Rma* rma_;
};

/// Runs a simulated job: builds the world and the RMA engine, spawns
/// `cfg.ranks` processes executing `rank_main`, and simulates to completion.
void run(const JobConfig& cfg, const std::function<void(Proc&)>& rank_main);

/// Same, but also gives the harness access to the world/engine after the
/// run (for stats) via the returned Job object.
class Job {
public:
    explicit Job(const JobConfig& cfg) : world_(cfg), rma_(world_) {}

    /// Process bodies reference the RMA engine; stop them before rma_ is
    /// destroyed (members are destroyed in reverse declaration order).
    /// Trace/metrics files (if configured) are written out here, after the
    /// job's last event; a destructor cannot throw, so a file that could
    /// not be written is reported on stderr.
    ~Job() {
        world_.engine().shutdown();
        for (const auto& path : obs::maybe_export(world_.obs())) {
            std::fprintf(stderr, "nbepoch: could not write %s\n", path.c_str());
        }
    }

    void run(const std::function<void(Proc&)>& rank_main) {
        world_.run([this, &rank_main](rt::Process& p) {
            Proc proc(p, rma_);
            rank_main(proc);
        });
    }

    [[nodiscard]] rt::World& world() noexcept { return world_; }
    [[nodiscard]] rma::Rma& rma() noexcept { return rma_; }

private:
    rt::World world_;
    rma::Rma rma_;
};

}  // namespace nbe
