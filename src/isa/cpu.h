// CRV32 CPU: a two-tier guest-execution engine.
//
// Models the architectural surface the paper's monitors observe:
// privilege (machine/user), security state (secure/non-secure world),
// MPU-checked memory accesses, traps, interrupts, CSRs and cycle
// accounting. Monitors attach as CpuObservers; they see calls/returns
// (for control-flow integrity), traps, halts, CSR writes and world
// switches.
//
// Execution tiers (docs/EXECUTION.md has the full design):
//   0. Interpreter — fetch through MPU+bus, decode, execute. Always
//      available; the reference semantics every other tier must match
//      instruction-for-instruction.
//   1. Translated step() — with a TranslationImage installed, step()
//      retires predecoded micro-ops directly, eliding the fetch
//      (validity guaranteed by the image + environment stamps). Used
//      by tick(), so cycle accounting is untouched. run_alone() is the
//      same path looped over register-only micro-ops, for the event
//      kernel's solo bursts.
//   2. run_steps() — computed-goto threaded dispatch over the micro-op
//      stream for step-driven callers (benches, batch simulation).
// All tiers share one semantics implementation (exec_one); tiers 1-2
// only change how the next micro-op is obtained.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "isa/encoding.h"
#include "isa/uop.h"
#include "mem/bus.h"
#include "mem/mpu.h"
#include "sim/simulator.h"

namespace cres::isa {

class Cpu;

/// Hook interface for monitors and tracing.
class CpuObserver {
public:
    virtual ~CpuObserver() = default;
    /// A call: jal/jalr writing the link register.
    virtual void on_call(mem::Addr from, mem::Addr target) {
        (void)from;
        (void)target;
    }
    /// A return: jalr r0, lr, 0 style.
    virtual void on_return(mem::Addr from, mem::Addr target) {
        (void)from;
        (void)target;
    }
    virtual void on_trap(std::uint32_t cause, mem::Addr pc) {
        (void)cause;
        (void)pc;
    }
    virtual void on_halt(mem::Addr pc) { (void)pc; }
    virtual void on_world_switch(bool secure) { (void)secure; }
    virtual void on_csr_write(std::uint16_t csr, std::uint32_t value) {
        (void)csr;
        (void)value;
    }
};

/// Optional OS-service hook: when set, an ecall is first offered to the
/// handler (modelling firmware services); returning true suppresses the
/// architectural trap.
using EcallHandler = std::function<bool(Cpu&, std::uint16_t service)>;

class Cpu : public sim::Tickable {
public:
    Cpu(std::string name, mem::Bus& bus);

    /// Resets registers and enters machine mode at `entry`.
    void reset(mem::Addr entry, bool secure = false);

    /// One simulation cycle: either retires an instruction or burns a
    /// stall cycle (loads/stores and mul are multi-cycle).
    void tick(sim::Cycle now) override;

    /// Quiescence (docs/SCHEDULER.md): a halted core — or one parked in
    /// WFI with no deliverable interrupt — is idle until externally
    /// re-armed (raise_irq wakes a waiting core); a stalling core wakes
    /// when the stall drains. Idle ticks only advance mcycle, which
    /// skip() replays in O(1).
    [[nodiscard]] sim::Cycle next_activity(sim::Cycle now) override;
    void skip(sim::Cycle now, sim::Cycle cycles) override;

    /// Solo bursts (docs/SCHEDULER.md): a running, unstalled core with
    /// no deliverable interrupt and a usable translation can run alone
    /// while the word at pc is a register-only micro-op. run_alone()
    /// ticks through such micro-ops (and the mul stalls they leave)
    /// with tick()'s exact cycle accounting, stopping at the horizon or
    /// before the first micro-op that would touch the bus, a CSR, an
    /// observer or pc outside the translated window.
    [[nodiscard]] bool can_run_alone(sim::Cycle now) override;
    sim::Cycle run_alone(sim::Cycle now, sim::Cycle horizon) override;

    /// Executes exactly one instruction (ignoring stall modelling).
    /// Returns false when halted.
    bool step();

    /// Executes up to `max_steps` step events with threaded dispatch
    /// over the installed translation, falling back to step() outside
    /// it. A step event is one instruction retirement or one trap /
    /// interrupt delivery — exactly what one step() call performs.
    /// Returns the number of events executed; stops early when the core
    /// halts or parks in WFI. Architecturally equivalent to calling
    /// step() in a loop — same regs/CSRs/instret/trap history — and,
    /// like step(), it accumulates but does not burn stall cycles.
    std::uint64_t run_steps(std::uint64_t max_steps);

    // --- Translation (tier 1/2 execution) -------------------------------
    /// Installs a predecoded translation of guest code memory. The image
    /// is shared (typically fleet-wide, keyed by firmware digest) and
    /// immutable; the CPU registers a bus write watch over the covered
    /// window so any successful write — any master — invalidates it.
    void install_translation(std::shared_ptr<const TranslationImage> image);

    /// Drops the installed translation and its write watch; execution
    /// reverts to the plain interpreter. Safe to call from within the
    /// write-watch callback (i.e. mid-instruction on self-modification).
    void clear_translation() noexcept;

    [[nodiscard]] bool translation_active() const noexcept {
        return translation_ != nullptr;
    }
    [[nodiscard]] const TranslationImage* translation() const noexcept {
        return translation_.get();
    }
    /// Instructions retired via the translated fast path (tier 1/2).
    [[nodiscard]] std::uint64_t translated_instret() const noexcept {
        return translated_instret_;
    }

    /// Always 0: loads and stores run their MPU and alignment checks on
    /// every tier. Kept only because the operator benchmark still
    /// reports it.
    [[nodiscard]] std::uint64_t elided_ops() const noexcept { return 0; }

    // --- Architectural state -------------------------------------------
    /// Register access. Valid indices are 0..15; out-of-range indices
    /// assert in debug builds. Release builds keep the historical
    /// hardened behaviour: out-of-range reads return 0, out-of-range
    /// writes are ignored (as are writes to r0, which is hardwired zero).
    [[nodiscard]] std::uint32_t reg(unsigned index) const noexcept;
    void set_reg(unsigned index, std::uint32_t value) noexcept;
    [[nodiscard]] mem::Addr pc() const noexcept { return pc_; }
    void set_pc(mem::Addr pc) noexcept { pc_ = pc; }
    [[nodiscard]] bool privileged() const noexcept { return privileged_; }
    [[nodiscard]] bool secure() const noexcept { return secure_; }
    [[nodiscard]] bool halted() const noexcept { return halted_; }
    [[nodiscard]] bool waiting() const noexcept { return waiting_; }
    /// Drops privilege to user mode (used by the OS model after boot).
    void enter_user_mode() noexcept { privileged_ = false; }

    [[nodiscard]] std::uint32_t csr(std::uint16_t number) const;
    void set_csr(std::uint16_t number, std::uint32_t value);

    [[nodiscard]] mem::Mpu& mpu() noexcept { return mpu_; }
    [[nodiscard]] const mem::Mpu& mpu() const noexcept { return mpu_; }

    // --- Interrupts -----------------------------------------------------
    void raise_irq(unsigned line);
    void clear_irq(unsigned line) noexcept;

    // --- Hooks ----------------------------------------------------------
    void add_observer(CpuObserver* observer);
    void remove_observer(CpuObserver* observer) noexcept;
    void set_ecall_handler(EcallHandler handler) {
        ecall_handler_ = std::move(handler);
    }

    // --- Telemetry -------------------------------------------------------
    [[nodiscard]] std::uint64_t instret() const noexcept { return instret_; }
    [[nodiscard]] std::uint64_t cycles() const noexcept { return cycles_; }
    [[nodiscard]] std::uint64_t trap_count() const noexcept {
        return trap_count_;
    }
    [[nodiscard]] std::string_view name() const noexcept { return name_; }

    /// Forces an architectural trap from outside (used by the response
    /// manager to preempt a task).
    void inject_trap(TrapCause cause, std::uint32_t tval = 0);

    /// Stops the core (response: task kill). reset() restarts it.
    void halt() noexcept { halted_ = true; }

private:
    /// The single semantics implementation all execution tiers share.
    /// Executes one predecoded micro-op; pc_ has already been advanced
    /// to insn_pc + 4 (traps and branches overwrite it).
    void exec_one(const Uop& u, mem::Addr insn_pc);
    void trap(std::uint32_t cause, std::uint32_t tval, mem::Addr epc);
    bool take_pending_interrupt();

    /// True when the installed translation is still valid for the
    /// current execution environment (MPU/bus configuration, privilege
    /// and security state). Cached per environment generation; the
    /// revalidation probes are silent (no faults, no bus transactions).
    bool translation_usable();
    [[nodiscard]] bool irq_deliverable() const noexcept {
        return (csrs_[kCsrMstatus] & kMstatusMie) != 0 &&
               (csrs_[kCsrMip] & csrs_[kCsrMie]) != 0;
    }

    /// Memory helpers; on fault they trap and return false.
    bool load(mem::Addr addr, std::uint32_t size, std::uint32_t& out,
              mem::Addr insn_pc);
    bool store(mem::Addr addr, std::uint32_t size, std::uint32_t value,
               mem::Addr insn_pc);

    void notify_world_switch();

    std::string name_;
    mem::Bus& bus_;
    mem::Mpu mpu_;

    std::array<std::uint32_t, 16> regs_{};
    mem::Addr pc_ = 0;
    bool privileged_ = true;
    bool secure_ = false;
    bool halted_ = true;
    bool waiting_ = false;

    std::array<std::uint32_t, kCsrCount> csrs_{};

    std::uint64_t instret_ = 0;
    std::uint64_t cycles_ = 0;
    std::uint64_t trap_count_ = 0;
    std::uint32_t stall_ = 0;

    std::vector<CpuObserver*> observers_;
    EcallHandler ecall_handler_;

    // Translation state. The image is shared and immutable; everything
    // mutable about execution stays in this Cpu (per-node state), which
    // is what keeps fleet-parallel runs bit-identical to serial runs.
    std::shared_ptr<const TranslationImage> translation_;
    std::uint64_t translated_instret_ = 0;
    // Environment stamp for the cached translation-validity verdict.
    std::uint64_t env_mpu_generation_ = 0;
    std::uint64_t env_bus_generation_ = 0;
    bool env_privileged_ = false;
    bool env_secure_ = false;
    bool env_valid_ = false;   ///< Stamp matches current environment.
    bool env_usable_ = false;  ///< Verdict cached under that stamp.
};

}  // namespace cres::isa
