// Stackful fibers: the handoff mechanism under the simulator's cooperative
// processes.
//
// A Fiber owns a private call stack and a saved machine context. switch_in()
// transfers control from the caller into the fiber (starting its entry
// function on first use, resuming after the last switch_out() otherwise);
// switch_out(), called from inside the fiber, suspends it and returns
// control to the most recent switch_in() caller. Everything runs on one OS
// thread — a switch is a handful of register moves, not a futex wake and a
// kernel scheduling decision — which is what makes thousands of simulated
// ranks practical.
//
// Context switch implementation, in preference order:
//   * hand-rolled assembly on x86-64 and aarch64 (callee-saved registers +
//     stack pointer only; ~20 instructions per switch);
//   * ucontext_t (swapcontext) elsewhere, or when NBE_FIBER_UCONTEXT is
//     defined (useful for exercising the portable path on any host).
//
// Stack safety: stacks are mmap'd with a PROT_NONE guard page at the low
// (overflow) end, so running off the stack faults immediately instead of
// corrupting a neighbouring fiber; a canary pattern above the guard is
// verified on every switch-out and at destruction as a second line of
// defence (and the only one when mmap is unavailable). Stack size comes
// from NBE_SIM_STACK_KB (default 256 KiB).
//
// Exceptions must not cross a switch boundary: the entry function is
// expected to catch everything (the simulator's Process::run_body does).
#pragma once

#include <cstddef>
#include <functional>
#include <string>

#if !defined(NBE_FIBER_UCONTEXT) && !(defined(__x86_64__) || defined(__aarch64__))
#define NBE_FIBER_UCONTEXT 1
#endif

#if defined(NBE_FIBER_UCONTEXT)
#include <ucontext.h>
#endif

namespace nbe::sim {

class Fiber {
public:
    /// Creates a suspended fiber; `entry` starts running on the first
    /// switch_in(). `name` only labels stack-corruption diagnostics.
    explicit Fiber(std::function<void()> entry,
                   std::size_t stack_bytes = default_stack_bytes(),
                   std::string name = {});
    ~Fiber();

    Fiber(const Fiber&) = delete;
    Fiber& operator=(const Fiber&) = delete;

    /// Caller side: run the fiber until it switches out or its entry
    /// returns. Must not be called on a finished or already-running fiber.
    void switch_in();

    /// Fiber side: suspend and return control to the switch_in() caller.
    void switch_out();

    [[nodiscard]] bool started() const noexcept { return started_; }
    [[nodiscard]] bool finished() const noexcept { return finished_; }
    [[nodiscard]] std::size_t stack_bytes() const noexcept { return stack_bytes_; }

    /// NBE_SIM_STACK_KB (KiB, clamped to >= 64) or 256 KiB.
    [[nodiscard]] static std::size_t default_stack_bytes();

private:
    friend void fiber_entry(Fiber* f);

    [[noreturn]] void run_entry();
    void allocate_stack(std::size_t bytes);
    void release_stack() noexcept;
    void write_canary() noexcept;
    void check_canary() const;

    std::function<void()> entry_;
    std::string name_;

    std::byte* alloc_base_ = nullptr;  ///< start of the mapped/new'd region
    std::size_t alloc_bytes_ = 0;
    std::byte* stack_lo_ = nullptr;    ///< usable low end (above the guard)
    std::size_t stack_bytes_ = 0;
    bool mmapped_ = false;

    bool started_ = false;
    bool finished_ = false;
    bool running_ = false;

#if defined(NBE_FIBER_UCONTEXT)
    ucontext_t fiber_ctx_{};
    ucontext_t caller_ctx_{};
#else
    void* fiber_sp_ = nullptr;   ///< fiber's saved SP while suspended
    void* caller_sp_ = nullptr;  ///< caller's saved SP while the fiber runs
#endif

    // AddressSanitizer fiber annotations (no-ops outside ASan builds).
    void* asan_caller_fake_ = nullptr;
    void* asan_fiber_fake_ = nullptr;
    const void* asan_return_bottom_ = nullptr;
    std::size_t asan_return_size_ = 0;
};

}  // namespace nbe::sim
