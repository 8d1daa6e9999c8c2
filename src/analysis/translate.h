// Superblock translation: turns a raw CRV32 code section into the
// immutable predecoded TranslationImage the CPU's two-tier execution
// engine runs from (see isa/uop.h and docs/EXECUTION.md).
//
// The translator reuses the CFG builder: only words the exploration
// proved reachable as instructions — from the entry point and any
// statically resolved trap vectors — are marked fast-path eligible.
// Data words, padding, undefined opcodes and anything reachable only
// through an unresolved indirect jump stay untranslated and execute
// through the interpreter, so translation can never *add* behaviour:
// it is a pure function of the image bytes, which is what lets nodes
// measuring the same firmware share one read-only translation.
// Translation is a predecode only: it consumes no analysis proofs, and
// every translated load and store runs the same alignment and MPU
// checks as the interpreter.
#pragma once

#include <memory>

#include "analysis/cfg.h"
#include "isa/uop.h"

namespace cres::analysis {

/// Builds the translation of `code` loaded at `base` with entry point
/// `entry`. Never throws on malformed code: unreachable or invalid
/// words simply come back untranslated (coverage reflects this). The
/// result is a pure function of (code, base, entry), so cached
/// translations stay shareable.
[[nodiscard]] isa::TranslationImage translate_image(BytesView code,
                                                    mem::Addr base,
                                                    mem::Addr entry);

/// Convenience wrapper returning the shared immutable form the
/// translation cache and Cpu::install_translation consume.
[[nodiscard]] std::shared_ptr<const isa::TranslationImage>
translate_image_shared(BytesView code, mem::Addr base, mem::Addr entry);

}  // namespace cres::analysis
