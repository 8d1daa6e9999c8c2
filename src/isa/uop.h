// Predecoded micro-op form of CRV32 and the superblock translation
// image the two-tier execution engine runs from.
//
// Tier 1 (the translated fast path in Cpu::step and Cpu::run_alone)
// executes Uops instead of re-decoding the instruction word on every
// retirement. A TranslationImage is built once per firmware image
// (src/analysis/translate.h drives the CFG builder over the code), is
// immutable afterwards, and is shared read-only between every core
// running the same measured image — the per-node execution state stays
// entirely inside each Cpu, which is what keeps the parallel fleet
// bit-identical at any thread count.
#pragma once

#include <cstdint>
#include <vector>

#include "isa/encoding.h"
#include "mem/bus.h"

namespace cres::isa {

/// Micro-op kinds. Loads/stores collapse to one kind each (the width
/// moves into Uop::size); everything else maps 1:1 onto the ISA.
/// kInvalid marks words whose opcode field is undefined — they are
/// never marked translated, so execution reaches them only through the
/// interpreter, which raises the architectural illegal-instruction
/// trap.
enum class UopKind : std::uint8_t {
    kNop = 0,
    kHalt,
    kAdd,
    kSub,
    kAnd,
    kOr,
    kXor,
    kShl,
    kShr,
    kSra,
    kMul,
    kSlt,
    kSltu,
    kAddi,
    kAndi,
    kOri,
    kXori,
    kShli,
    kShri,
    kLui,
    kLoad,
    kStore,
    kBeq,
    kBne,
    kBlt,
    kBge,
    kBltu,
    kBgeu,
    kJal,
    kJalr,
    kEcall,
    kMret,
    kSmc,
    kSret,
    kCsrr,
    kCsrw,
    kWfi,
    kInvalid,
};

/// One predecoded instruction. All fields the executor needs are
/// precomputed: the sign-extended immediate, the absolute branch/jal
/// target (pc-relative arithmetic done at translation time) and the
/// access width. `raw` keeps the original word (the trap value of an
/// illegal instruction).
struct Uop {
    UopKind kind = UopKind::kInvalid;
    std::uint8_t rd = 0;
    std::uint8_t rs1 = 0;
    std::uint8_t rs2 = 0;
    std::uint8_t size = 0;      ///< Access width for kLoad/kStore.
    std::uint16_t imm = 0;      ///< Raw imm16 (CSR number, ecall service).
    std::uint32_t simm = 0;     ///< sext(imm16), two's complement.
    std::uint32_t target = 0;   ///< pc + sext(imm) for branches/jal.
    std::uint32_t raw = 0;      ///< Original instruction word.
};

/// Predecodes one instruction word fetched from `pc`. Words with an
/// undefined opcode come back as kInvalid.
[[nodiscard]] Uop predecode(std::uint32_t word, mem::Addr pc) noexcept;

/// One CFG-discovered superblock: a maximal single-entry straight-line
/// run of translated words (see src/analysis/cfg.h for how blocks are
/// discovered; docs/EXECUTION.md for the lifecycle).
struct Superblock {
    mem::Addr start = 0;
    mem::Addr end = 0;  ///< One past the last word (exclusive).
    bool terminal = false;       ///< Ends in halt/mret/sret/ret.
    bool indirect_exit = false;  ///< Ends in an unresolved jalr.
};

/// The immutable translation of one firmware image: a flat per-word
/// micro-op array plus the superblock table. Words the CFG proved
/// reachable-and-valid are marked `translated`; everything else (data
/// words, unreachable code, undefined opcodes, gadgets injected
/// outside the image) executes through the interpreter.
struct TranslationImage {
    mem::Addr base = 0;            ///< Load address of the image.
    std::uint32_t size_bytes = 0;  ///< Word-aligned image extent.
    mem::Addr entry = 0;           ///< Entry point the CFG explored from.

    /// Per-word flag bit in `translated`.
    static constexpr std::uint8_t kTranslated = 1;  ///< Fast-path eligible.

    std::vector<Uop> uops;                  ///< One per 32-bit word.
    std::vector<std::uint8_t> translated;   ///< kTranslated per word.
    std::vector<Superblock> blocks;         ///< Sorted by start address.
    std::size_t translated_words = 0;

    [[nodiscard]] bool contains(mem::Addr pc) const noexcept {
        return pc - base < size_bytes;
    }
    /// Fraction of image words covered by superblocks (0 when empty).
    [[nodiscard]] double coverage() const noexcept {
        return uops.empty() ? 0.0
                            : static_cast<double>(translated_words) /
                                  static_cast<double>(uops.size());
    }
};

}  // namespace cres::isa
