#include "core/window.hpp"

namespace nbe {

// ------------------------------------------------------------------ Window

void Window::enter() {
    proc_->charge_call();
    // Every MPI call is an opportunistic progress call (paper §IV-A); the
    // engine counts it, but packet events have already made all progress.
    rma_->sweep(rank());
}

Request Window::op_call(OpKind kind, Rank target, std::size_t disp,
                        const void* in, void* out, std::size_t count,
                        TypeId type, ReduceOp rop, bool request_based) {
    rt::MpiSection sec(*proc_);
    enter();
    return rma_->post_op(rank(), id_, kind, target, disp, in, out, count,
                         type, rop, request_based);
}

void Window::put(const void* src, std::size_t bytes, Rank target,
                 std::size_t disp) {
    op_call(OpKind::Put, target, disp, src, nullptr, bytes, TypeId::Byte,
            ReduceOp::Replace, false);
}

void Window::get(void* dst, std::size_t bytes, Rank target, std::size_t disp) {
    op_call(OpKind::Get, target, disp, nullptr, dst, bytes, TypeId::Byte,
            ReduceOp::Replace, false);
}

Request Window::rput(const void* src, std::size_t bytes, Rank target,
                     std::size_t disp) {
    return op_call(OpKind::Put, target, disp, src, nullptr, bytes,
                   TypeId::Byte, ReduceOp::Replace, true);
}

Request Window::rget(void* dst, std::size_t bytes, Rank target,
                     std::size_t disp) {
    return op_call(OpKind::Get, target, disp, nullptr, dst, bytes,
                   TypeId::Byte, ReduceOp::Replace, true);
}

// ----- fence -----

void Window::fence(unsigned asserts) {
    rt::MpiSection sec(*proc_);
    enter();
    Request r = rma_->ifence(rank(), id_, asserts);
    r.wait(proc_->sim_process());
}

Request Window::ifence(unsigned asserts) {
    rma_->require_nonblocking(rank(), id_, "ifence");
    rt::MpiSection sec(*proc_);
    enter();
    return rma_->ifence(rank(), id_, asserts);
}

// ----- GATS -----

void Window::start(std::span<const Rank> group) {
    rt::MpiSection sec(*proc_);
    enter();
    rma_->istart(rank(), id_, group);  // epoch opening exits immediately
}

Request Window::istart(std::span<const Rank> group) {
    rma_->require_nonblocking(rank(), id_, "istart");
    rt::MpiSection sec(*proc_);
    enter();
    return rma_->istart(rank(), id_, group);
}

void Window::complete() {
    rt::MpiSection sec(*proc_);
    enter();
    Request r = rma_->icomplete(rank(), id_);
    r.wait(proc_->sim_process());
}

Request Window::icomplete() {
    rma_->require_nonblocking(rank(), id_, "icomplete");
    rt::MpiSection sec(*proc_);
    enter();
    return rma_->icomplete(rank(), id_);
}

void Window::post(std::span<const Rank> group) {
    rt::MpiSection sec(*proc_);
    enter();
    rma_->ipost(rank(), id_, group);  // MPI_WIN_POST is already nonblocking
}

Request Window::ipost(std::span<const Rank> group) {
    rma_->require_nonblocking(rank(), id_, "ipost");
    rt::MpiSection sec(*proc_);
    enter();
    return rma_->ipost(rank(), id_, group);
}

void Window::wait_exposure() {
    rt::MpiSection sec(*proc_);
    enter();
    Request r = rma_->iwait(rank(), id_);
    r.wait(proc_->sim_process());
}

Request Window::iwait_exposure() {
    rma_->require_nonblocking(rank(), id_, "iwait_exposure");
    rt::MpiSection sec(*proc_);
    enter();
    return rma_->iwait(rank(), id_);
}

bool Window::test_exposure() {
    rt::MpiSection sec(*proc_);
    enter();
    return rma_->test_exposure(rank(), id_);
}

// ----- passive target -----

void Window::lock(LockType type, Rank target) {
    rt::MpiSection sec(*proc_);
    enter();
    rma_->ilock(rank(), id_, type, target);  // opening exits immediately
}

Request Window::ilock(LockType type, Rank target) {
    rma_->require_nonblocking(rank(), id_, "ilock");
    rt::MpiSection sec(*proc_);
    enter();
    return rma_->ilock(rank(), id_, type, target);
}

void Window::unlock(Rank target) {
    rt::MpiSection sec(*proc_);
    enter();
    Request r = rma_->iunlock(rank(), id_, target);
    r.wait(proc_->sim_process());
}

Request Window::iunlock(Rank target) {
    rma_->require_nonblocking(rank(), id_, "iunlock");
    rt::MpiSection sec(*proc_);
    enter();
    return rma_->iunlock(rank(), id_, target);
}

void Window::lock_all() {
    rt::MpiSection sec(*proc_);
    enter();
    rma_->ilock_all(rank(), id_);
}

Request Window::ilock_all() {
    rma_->require_nonblocking(rank(), id_, "ilock_all");
    rt::MpiSection sec(*proc_);
    enter();
    return rma_->ilock_all(rank(), id_);
}

void Window::unlock_all() {
    rt::MpiSection sec(*proc_);
    enter();
    Request r = rma_->iunlock_all(rank(), id_);
    r.wait(proc_->sim_process());
}

Request Window::iunlock_all() {
    rma_->require_nonblocking(rank(), id_, "iunlock_all");
    rt::MpiSection sec(*proc_);
    enter();
    return rma_->iunlock_all(rank(), id_);
}

// ----- flushes -----

void Window::flush(Rank target) {
    rt::MpiSection sec(*proc_);
    enter();
    Request r = rma_->iflush(rank(), id_, target, false);
    r.wait(proc_->sim_process());
}

void Window::flush_all() {
    rt::MpiSection sec(*proc_);
    enter();
    Request r = rma_->iflush(rank(), id_, -1, false);
    r.wait(proc_->sim_process());
}

void Window::flush_local(Rank target) {
    rt::MpiSection sec(*proc_);
    enter();
    Request r = rma_->iflush(rank(), id_, target, true);
    r.wait(proc_->sim_process());
}

void Window::flush_local_all() {
    rt::MpiSection sec(*proc_);
    enter();
    Request r = rma_->iflush(rank(), id_, -1, true);
    r.wait(proc_->sim_process());
}

Request Window::iflush(Rank target) {
    rma_->require_nonblocking(rank(), id_, "iflush");
    rt::MpiSection sec(*proc_);
    enter();
    return rma_->iflush(rank(), id_, target, false);
}

Request Window::iflush_all() {
    rma_->require_nonblocking(rank(), id_, "iflush_all");
    rt::MpiSection sec(*proc_);
    enter();
    return rma_->iflush(rank(), id_, -1, false);
}

Request Window::iflush_local(Rank target) {
    rma_->require_nonblocking(rank(), id_, "iflush_local");
    rt::MpiSection sec(*proc_);
    enter();
    return rma_->iflush(rank(), id_, target, true);
}

Request Window::iflush_local_all() {
    rma_->require_nonblocking(rank(), id_, "iflush_local_all");
    rt::MpiSection sec(*proc_);
    enter();
    return rma_->iflush(rank(), id_, -1, true);
}

void Window::wait(Request& r) {
    rt::MpiSection sec(*proc_);
    r.wait(proc_->sim_process());
}

bool Window::test(Request& r) {
    rt::MpiSection sec(*proc_);
    proc_->charge_call();
    return r.test();
}

// -------------------------------------------------------------------- Proc

Window Proc::create_window(std::size_t bytes, const WinInfo& info) {
    charge_call();
    const std::uint32_t id = rma_->create_window(rank(), bytes, info);
    barrier();  // window creation is collective
    return Window(*this, *rma_, id);
}

void Proc::wait(Request& r) {
    rt::MpiSection sec(*this);
    r.wait(sim_process());
}

void Proc::wait_all(std::span<Request> rs) {
    rt::MpiSection sec(*this);
    for (auto& r : rs) r.wait(sim_process());
}

bool Proc::test(Request& r) {
    rt::MpiSection sec(*this);
    charge_call();
    return r.test();
}

// --------------------------------------------------------------------- run

void run(const JobConfig& cfg, const std::function<void(Proc&)>& rank_main) {
    Job job(cfg);
    job.run(rank_main);
}

}  // namespace nbe
