// Minimal JSON string escaping shared by every JSON artefact (metrics
// snapshot, Chrome trace, postmortem bundles, SIEM export), so all of
// them escape identically.
#pragma once

#include <string>
#include <string_view>

namespace cres::obs {

/// Appends `s` JSON-escaped (without the surrounding quotes). Runs of
/// characters that need no escape are copied span by span.
inline void json_escape_into(std::string& out, std::string_view s) {
    static constexpr char kHex[] = "0123456789abcdef";
    std::size_t verbatim = 0;  // Start of the pending unescaped span.
    for (std::size_t i = 0; i < s.size(); ++i) {
        const auto c = static_cast<unsigned char>(s[i]);
        if (c >= 0x20 && c != '"' && c != '\\') continue;
        out.append(s.data() + verbatim, i - verbatim);
        verbatim = i + 1;
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            case '\r': out += "\\r"; break;
            default:
                out += "\\u00";
                out += kHex[c >> 4];
                out += kHex[c & 0xf];
        }
    }
    out.append(s.data() + verbatim, s.size() - verbatim);
}

}  // namespace cres::obs
