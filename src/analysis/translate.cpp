#include "analysis/translate.h"

namespace cres::analysis {

isa::TranslationImage translate_image(BytesView code, mem::Addr base,
                                      mem::Addr entry) {
    const Cfg cfg = build_cfg(code, base, entry);
    const std::size_t words = cfg.words.size();

    isa::TranslationImage image;
    image.base = base;
    image.size_bytes = static_cast<std::uint32_t>(words * 4);
    image.entry = entry;
    image.uops.reserve(words);
    image.translated.assign(words, 0);

    for (std::size_t i = 0; i < words; ++i) {
        image.uops.push_back(isa::predecode(
            cfg.words[i].raw, base + static_cast<mem::Addr>(i * 4)));
    }

    const mem::Addr edge = base + image.size_bytes;
    for (const auto& [start, block] : cfg.blocks) {
        const mem::Addr end = block.end < edge ? block.end : edge;
        for (mem::Addr addr = start; addr < end; addr += 4) {
            const std::size_t idx = cfg.index_of(addr);
            // The executor relies on this invariant: a word marked
            // translated is never UopKind::kInvalid, so the fast path in
            // Cpu::step/run_alone never retires one; the interpreter
            // raises the illegal-instruction trap without an instret.
            if (cfg.words[idx].valid)
                image.translated[idx] |= isa::TranslationImage::kTranslated;
        }
        image.blocks.push_back(isa::Superblock{
            start, end, block.terminal, block.indirect_exit});
    }

    for (const std::uint8_t flag : image.translated) {
        image.translated_words += flag & isa::TranslationImage::kTranslated;
    }
    return image;
}

std::shared_ptr<const isa::TranslationImage> translate_image_shared(
    BytesView code, mem::Addr base, mem::Addr entry) {
    return std::make_shared<const isa::TranslationImage>(
        translate_image(code, base, entry));
}

}  // namespace cres::analysis
