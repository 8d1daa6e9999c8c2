#include "util/bytes.h"

#include "util/error.h"

namespace cres {

namespace {

constexpr char kHexDigits[] = "0123456789abcdef";

int hex_value(char c) {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
}

}  // namespace

std::string to_hex(BytesView data) {
    std::string out(data.size() * 2, '\0');
    hex_into(out.data(), data);
    return out;
}

char* hex_into(char* out, BytesView data) noexcept {
    for (const std::uint8_t b : data) {
        *out++ = kHexDigits[b >> 4];
        *out++ = kHexDigits[b & 0x0f];
    }
    return out;
}

Bytes from_hex(std::string_view hex) {
    if (hex.size() % 2 != 0) {
        throw Error("from_hex: odd-length input");
    }
    Bytes out;
    out.reserve(hex.size() / 2);
    for (std::size_t i = 0; i < hex.size(); i += 2) {
        const int hi = hex_value(hex[i]);
        const int lo = hex_value(hex[i + 1]);
        if (hi < 0 || lo < 0) {
            throw Error("from_hex: non-hex character");
        }
        out.push_back(static_cast<std::uint8_t>((hi << 4) | lo));
    }
    return out;
}

Bytes to_bytes(std::string_view text) {
    return Bytes(text.begin(), text.end());
}

std::string to_string(BytesView data) {
    return std::string(data.begin(), data.end());
}

void append(Bytes& dst, BytesView src) {
    dst.insert(dst.end(), src.begin(), src.end());
}

Bytes concat(std::initializer_list<BytesView> parts) {
    std::size_t total = 0;
    for (const auto& p : parts) total += p.size();
    Bytes out;
    out.reserve(total);
    for (const auto& p : parts) append(out, p);
    return out;
}

void secure_wipe(std::span<std::uint8_t> data) noexcept {
    volatile std::uint8_t* p = data.data();
    for (std::size_t i = 0; i < data.size(); ++i) p[i] = 0;
}

void secure_wipe(Bytes& data) noexcept {
    secure_wipe(std::span<std::uint8_t>(data));
}

bool ct_equal(BytesView a, BytesView b) noexcept {
    if (a.size() != b.size()) return false;
    std::uint8_t acc = 0;
    for (std::size_t i = 0; i < a.size(); ++i) acc |= a[i] ^ b[i];
    return acc == 0;
}

}  // namespace cres
