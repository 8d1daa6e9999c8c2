// Findings vocabulary for the static firmware verifier.
//
// Every policy pass reports Findings into one Report; the admission
// gate and the cres_lint CLI read the same structure, so an image
// rejected at boot produces exactly the findings an offline audit
// prints.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "mem/bus.h"

namespace cres::analysis {

enum class Severity : std::uint8_t {
    kInfo = 0,     ///< Noteworthy, never gates admission.
    kWarning = 1,  ///< Suspicious; gates only under warnings-as-errors.
    kError = 2,    ///< Policy violation; gates admission in deny mode.
};

/// Static-storage name ("info"/"warning"/"error").
std::string_view severity_name(Severity severity) noexcept;

/// The pass that produced a finding.
enum class PassId : std::uint8_t {
    kDecode,        ///< Image shape: tail bytes, entry point, decode faults.
    kOpcode,        ///< Illegal/undefined opcodes on reachable paths.
    kControlFlow,   ///< Jump/call target validity (bounds + alignment).
    kMemory,        ///< W^X and segment checks on resolvable accesses.
    kStack,         ///< Worst-case stack depth along CFG paths.
    kPrivilege,     ///< Banned-opcode policy.
    kBounds,        ///< Interval-domain in-bounds proofs (absint.h).
    kTaint,         ///< Untrusted-input flow to control/CSR sinks.
    kReachability,  ///< Unreachable-code reporting.
};

/// Static-storage pass name ("decode", "control-flow", ...).
std::string_view pass_name(PassId pass) noexcept;

/// One verifier observation, anchored to an image address.
struct Finding {
    PassId pass = PassId::kDecode;
    Severity severity = Severity::kInfo;
    mem::Addr addr = 0;   ///< Instruction (or entry/target) address.
    std::string code;     ///< Stable machine-readable tag ("wx-violation").
    std::string detail;   ///< Human-readable context.
};

/// The proof artifact the abstract interpreter (absint.h) attaches to a
/// Report: how many reachable accesses the bounds pass proved, plus
/// per-function stack certificates. It is admission evidence only;
/// execution does not consume it.
struct ProofAnnotations {
    /// Worst-case stack depth proof for one entry point (a CFG root or
    /// a resolved call target). `bound_bytes` is meaningful only when
    /// `bounded`; loop-bound inference can bound counted loops the
    /// syntactic walk reports as unbounded.
    struct StackCertificate {
        mem::Addr entry = 0;
        std::uint64_t bound_bytes = 0;
        bool bounded = false;
    };
    std::vector<StackCertificate> certificates;

    std::size_t mem_ops = 0;     ///< Reachable loads+stores analyzed.
    std::size_t proven_ops = 0;  ///< AccessCheck::proven verdicts (0
                                 ///< when the fixpoint did not converge).

    /// Fraction of reachable memory accesses proven safe (0 when none).
    [[nodiscard]] double coverage() const noexcept {
        return mem_ops == 0 ? 0.0
                            : static_cast<double>(proven_ops) /
                                  static_cast<double>(mem_ops);
    }
};

/// One provable untrusted-input flow: a load from an untrusted source
/// (NIC RX, DMA descriptors, sensor MMIO) whose value reaches a
/// control-flow or CSR sink.
struct TaintTrace {
    mem::Addr source_pc = 0;  ///< The tainting load.
    mem::Addr sink_pc = 0;    ///< The consuming instruction.
    std::string source;       ///< "nic-rx", "dma-desc", "sensor-mmio".
    std::string sink;         ///< "indirect-jump", "store-address", "csr-write".
};

/// Verdict + findings + CFG statistics for one image.
struct Report {
    std::vector<Finding> findings;

    // CFG statistics (filled by the verifier).
    std::size_t words = 0;             ///< Full 32-bit words in the payload.
    std::size_t tail_bytes = 0;        ///< Trailing bytes (< one word).
    std::size_t reachable_insns = 0;   ///< Words reachable as instructions.
    std::size_t blocks = 0;            ///< Basic blocks discovered.
    std::size_t indirect_jumps = 0;    ///< Statically unresolved transfers.
    std::uint32_t max_stack_bytes = 0; ///< Worst-case depth found.
    bool stack_bounded = true;         ///< False when a growing cycle exists.

    /// Proof artifact from the abstract-interpretation passes; shared
    /// (fleet analysis cache) and immutable once attached.
    std::shared_ptr<const ProofAnnotations> proofs;
    /// Provable untrusted-input flows found by the taint pass.
    std::vector<TaintTrace> taint_traces;

    [[nodiscard]] std::size_t count(Severity severity) const noexcept;
    [[nodiscard]] std::size_t errors() const noexcept {
        return count(Severity::kError);
    }
    [[nodiscard]] std::size_t warnings() const noexcept {
        return count(Severity::kWarning);
    }

    /// True when the image passes policy (optionally promoting warnings).
    [[nodiscard]] bool admissible(bool warnings_as_errors = false) const
        noexcept {
        return errors() == 0 && (!warnings_as_errors || warnings() == 0);
    }

    /// One-line digest: "2 errors, 1 warning; first: wx-violation@0x10040".
    [[nodiscard]] std::string summary() const;

    /// Multi-line findings listing (severity, pass, address, detail).
    [[nodiscard]] std::string render() const;
};

}  // namespace cres::analysis
