// Byte-buffer utilities shared by every library in the platform.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace cres {

/// Owning byte buffer used across module boundaries.
using Bytes = std::vector<std::uint8_t>;

/// Non-owning read-only view of bytes.
using BytesView = std::span<const std::uint8_t>;

/// Encodes bytes as lowercase hex ("deadbeef").
std::string to_hex(BytesView data);

/// Writes the lowercase hex of `data` (2 * data.size() characters, no
/// terminator) at `out` and returns one past the last character.
char* hex_into(char* out, BytesView data) noexcept;

/// Decodes a hex string (case-insensitive, no separators).
/// Throws cres::Error on odd length or non-hex characters.
Bytes from_hex(std::string_view hex);

/// Copies a string's characters into a byte buffer (no terminator).
Bytes to_bytes(std::string_view text);

/// Interprets bytes as text (lossy for non-printable content).
std::string to_string(BytesView data);

/// Appends `src` to `dst`.
void append(Bytes& dst, BytesView src);

/// Concatenates buffers left to right.
Bytes concat(std::initializer_list<BytesView> parts);

/// Overwrites the buffer with zeros. Used for key zeroisation; the write
/// is performed through a volatile pointer so it is not elided.
void secure_wipe(Bytes& data) noexcept;

/// Overwrites a raw span with zeros (volatile, not elided).
void secure_wipe(std::span<std::uint8_t> data) noexcept;

/// Constant-time equality: runtime independent of where buffers differ.
/// Returns false for size mismatch (size itself is not secret).
bool ct_equal(BytesView a, BytesView b) noexcept;

}  // namespace cres
