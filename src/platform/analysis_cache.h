// Firmware-keyed analysis-report cache.
//
// The abstract-interpretation verifier (analysis/absint.h) is a pure
// function of (code bytes, load address, entry point) for a fixed
// admission policy, exactly like superblock translation — so a fleet
// estate proves each *distinct* firmware once and shares the resulting
// Report (findings + ProofAnnotations) read-only across every node
// that admits the same image. Only the admission gate reads it:
// translation consumes no proofs. Keys use the same sha256(code ‖ base
// ‖ entry) scheme as TranslationCache; in production the secure-boot
// measurement digest serves the same role.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>

#include "analysis/report.h"
#include "analysis/verifier.h"
#include "crypto/sha256.h"
#include "util/bytes.h"

namespace cres::platform {

class AnalysisCache {
public:
    /// All cached reports are produced under one policy — the fleet's
    /// shared admission policy. Mixing policies would need per-policy
    /// caches; the estate model deliberately runs one.
    AnalysisCache() = default;
    explicit AnalysisCache(analysis::Policy policy)
        : verifier_(std::move(policy)) {}

    /// Returns the cached report for `key`, analyzing (code, base,
    /// entry) on the first request. Thread-safe; the analysis runs
    /// outside the lock (racing nodes produce identical reports).
    std::shared_ptr<const analysis::Report> get_or_analyze(
        const crypto::Hash256& key, BytesView code, mem::Addr base,
        mem::Addr entry);

    /// Content key: identical scheme (and therefore identical keys) to
    /// TranslationCache::key_for — both artifacts describe the same
    /// immutable firmware content.
    [[nodiscard]] static crypto::Hash256 key_for(BytesView code,
                                                 mem::Addr base,
                                                 mem::Addr entry);

    /// The policy every cached report was produced under. Consumers
    /// with a different admission policy must not reuse these reports
    /// (node.cpp falls back to local analysis on mismatch).
    [[nodiscard]] const analysis::Policy& policy() const noexcept {
        return verifier_.policy();
    }

    [[nodiscard]] std::uint64_t hits() const;
    [[nodiscard]] std::uint64_t misses() const;
    [[nodiscard]] std::size_t size() const;

private:
    analysis::FirmwareVerifier verifier_;
    mutable std::mutex mutex_;
    std::map<crypto::Hash256, std::shared_ptr<const analysis::Report>>
        reports_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

}  // namespace cres::platform
