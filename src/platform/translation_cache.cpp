#include "platform/translation_cache.h"

#include "analysis/translate.h"

namespace cres::platform {

std::shared_ptr<const isa::TranslationImage> TranslationCache::get_or_build(
    const crypto::Hash256& key, BytesView code, mem::Addr base,
    mem::Addr entry) {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        const auto it = images_.find(key);
        if (it != images_.end()) {
            ++hits_;
            return it->second;
        }
    }
    // Build outside the lock: translation walks the whole image and two
    // nodes racing on the same key produce identical results (it is a
    // pure function of the inputs), so the loser's copy is just dropped.
    auto image = analysis::translate_image_shared(code, base, entry);
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto [it, inserted] = images_.emplace(key, std::move(image));
    if (inserted) {
        ++misses_;
    } else {
        ++hits_;
    }
    return it->second;
}

crypto::Hash256 TranslationCache::key_for(BytesView code, mem::Addr base,
                                          mem::Addr entry) {
    std::uint8_t trailer[8];
    for (int i = 0; i < 4; ++i) {
        trailer[i] = static_cast<std::uint8_t>(base >> (8 * i));
        trailer[4 + i] = static_cast<std::uint8_t>(entry >> (8 * i));
    }
    return crypto::sha256_pair(code, BytesView{trailer, sizeof trailer});
}

std::uint64_t TranslationCache::hits() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return hits_;
}

std::uint64_t TranslationCache::misses() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return misses_;
}

std::size_t TranslationCache::size() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return images_.size();
}

}  // namespace cres::platform
