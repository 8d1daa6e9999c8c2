// Firmware-keyed translation cache.
//
// Fleet nodes running the same measured firmware image share one
// immutable TranslationImage: the key is the image's measurement (the
// secure-boot digest, or a content hash for debug-loaded programs), and
// translation itself is a pure function of the bytes, so whichever
// node builds first the result is identical (translation consumes no
// analysis proofs, so no policy enters the key). Only the read-only
// translation is shared — every core keeps its own execution state —
// which preserves the fleet's bit-identical-at-any-thread-count
// guarantee while amortising translation cost across the population.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>

#include "crypto/sha256.h"
#include "isa/uop.h"
#include "util/bytes.h"

namespace cres::platform {

class TranslationCache {
public:
    /// Returns the cached translation for `key`, building it from
    /// (code, base, entry) on the first request. Thread-safe: nodes
    /// rebooting concurrently on worker threads hit this during a run.
    std::shared_ptr<const isa::TranslationImage> get_or_build(
        const crypto::Hash256& key, BytesView code, mem::Addr base,
        mem::Addr entry);

    /// Content key for images outside the secure-boot chain (debug
    /// loads): hash over code bytes, load address and entry point —
    /// the full input domain of the translator.
    [[nodiscard]] static crypto::Hash256 key_for(BytesView code,
                                                 mem::Addr base,
                                                 mem::Addr entry);

    [[nodiscard]] std::uint64_t hits() const;
    [[nodiscard]] std::uint64_t misses() const;
    [[nodiscard]] std::size_t size() const;

private:
    mutable std::mutex mutex_;
    std::map<crypto::Hash256, std::shared_ptr<const isa::TranslationImage>>
        images_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

}  // namespace cres::platform
