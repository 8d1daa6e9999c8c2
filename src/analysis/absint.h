// Worklist-driven abstract interpreter over the CFG (cfg.h).
//
// Two abstract domains run in one interprocedural fixpoint:
//
//  * a value-range domain — one unsigned interval with a mod-4
//    congruence per register — that proves loads/stores in-bounds of
//    their SegmentMap segment and correctly aligned, and tightens the
//    syntactic worst-case stack bound via loop-bound inference on
//    counted self-loops;
//  * the taint domain (taint.h), seeded at loads that provably read
//    the NIC / DMA / sensor segments and flagged at indirect-jump,
//    store-address and privileged-CSR-write sinks.
//
// The result feeds the verifier's stack, bounds and taint passes and
// is distilled into the ProofAnnotations artifact (report.h) the
// admission gate reports. Proofs are admission evidence only: execution
// never consumes them, and every load and store keeps its runtime MPU
// and alignment checks (see docs/ANALYSIS.md).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "analysis/cfg.h"
#include "analysis/report.h"
#include "analysis/taint.h"

namespace cres::analysis {

struct SegmentMap;  // verifier.h

/// Unsigned value range [lo, hi] with a power-of-two congruence: every
/// concrete value v satisfies lo <= v <= hi and v ≡ phase (mod align),
/// align in {1, 2, 4}. The congruence survives mod-2^32 wraparound, so
/// alignment proofs outlive bound widening.
struct Interval {
    std::uint32_t lo = 0;
    std::uint32_t hi = 0xffffffffu;
    std::uint8_t align = 1;
    std::uint8_t phase = 0;

    static Interval top() noexcept { return {}; }
    static Interval constant(std::uint32_t v) noexcept {
        return {v, v, 4, static_cast<std::uint8_t>(v & 3u)};
    }
    static Interval range(std::uint32_t lo, std::uint32_t hi) noexcept {
        return {lo, hi, 1, 0};
    }

    [[nodiscard]] bool singleton() const noexcept { return lo == hi; }
    [[nodiscard]] bool is_top() const noexcept {
        return lo == 0 && hi == 0xffffffffu && align == 1;
    }
    /// True when `v` is contained in the concretization.
    [[nodiscard]] bool contains(std::uint32_t v) const noexcept {
        return lo <= v && v <= hi && (v % align) == (phase % align);
    }

    bool operator==(const Interval&) const = default;
};

/// Least upper bound of two intervals.
Interval interval_join(const Interval& a, const Interval& b) noexcept;

/// Abstract machine state at a block boundary: one interval and the
/// taint lattice over the 16 registers, plus the stack-depth interval
/// (bytes grown downward from the entry sp; negative = above entry).
struct AbsState {
    std::array<Interval, 16> regs;
    TaintLattice taint;
    std::int64_t depth_lo = 0;
    std::int64_t depth_hi = 0;
    bool depth_bounded = true;

    AbsState() { regs[0] = Interval::constant(0); }

    void set_reg(unsigned r, const Interval& v) noexcept {
        if (r != 0 && r < 16) regs[r & 15] = v;
    }
    [[nodiscard]] const Interval& reg(unsigned r) const noexcept {
        return regs[r & 15];
    }

    bool operator==(const AbsState&) const = default;
};

/// Verdict for one reachable load/store word, merged over every block
/// context that covers it (overlapping superblocks must all agree for
/// the access to count as proven).
struct AccessCheck {
    mem::Addr at = 0;          ///< Instruction address.
    std::uint32_t size = 0;    ///< Access width in bytes.
    bool is_store = false;
    bool proven = false;       ///< In-bounds + aligned in every context.
    bool provably_oob = false; ///< Whole range violates the map in some context.
    bool bounded = false;      ///< lo/hi below are meaningful.
    std::uint32_t lo = 0;      ///< Merged effective-address bounds.
    std::uint32_t hi = 0;
    std::string segment;       ///< Proving segment name ("" when unproven).
};

/// Full fixpoint result, consumed by the stack, bounds and taint passes
/// and distilled into the Report's ProofAnnotations.
struct AbsIntResult {
    /// Interprocedural entry state per basic block (keyed by start pc).
    std::map<mem::Addr, AbsState> block_entry;
    /// Per-access verdicts keyed by word index (Cfg::index_of).
    std::map<std::size_t, AccessCheck> checks;
    /// Deduplicated untrusted-input flows, ordered by sink address.
    std::vector<TaintTrace> taint_traces;
    /// Proof artifact (access counts + stack certificates).
    ProofAnnotations proofs;
    /// False when the iteration cap fired; all proofs are then dropped.
    bool converged = true;
    /// True when a reachable jalr/mret/sret makes runtime entry states
    /// unpredictable; the stack pass then keeps its syntactic bound.
    bool computed_flow = false;
    std::size_t iterations = 0;  ///< Block visits spent in the fixpoint.
};

/// Run the abstract interpreter over a built CFG. `segments` supplies
/// the memory map the bounds proofs are checked against (admission uses
/// the active policy's map).
AbsIntResult analyze_image(const Cfg& cfg, const SegmentMap& segments);

}  // namespace cres::analysis
