#include "obs/postmortem.h"

#include "obs/json.h"
#include "obs/span.h"
#include "util/error.h"

namespace cres::obs {

namespace {

constexpr std::string_view kPrefix =
    "{\"format\": \"cres-postmortem-v1\",\n \"bundle\": ";
constexpr std::string_view kSealMarker =
    ",\n \"seal\": {\"algo\": \"hmac-sha256\", \"tag\": \"";
constexpr std::string_view kSuffix = "\"}}\n";

std::string_view record_type_name(FlightRecordType type) {
    return type == FlightRecordType::kCounter ? "counter" : "instant";
}

}  // namespace

std::string render_postmortem_body(const PostmortemBundle& b) {
    std::string out = "{\"device\": \"";
    json_escape_into(out, b.device);
    out += '"';
    out += ", \"incident_id\": " + std::to_string(b.incident_id);
    out += ", \"opened_at\": " + std::to_string(b.opened_at);
    out += ", \"closed_at\": " + std::to_string(b.closed_at);
    out += ", \"window_begin\": " + std::to_string(b.window_begin);

    out += ",\n  \"phases\": {";
    bool first = true;
    for (std::size_t i = 0; i < PostmortemBundle::kCsfPhaseCount; ++i) {
        if ((b.marked & (1u << i)) == 0) continue;
        if (!first) out += ", ";
        first = false;
        out += '"';
        json_escape_into(out, csf_phase_name(static_cast<CsfPhase>(i)));
        out += "\": " + std::to_string(b.phase_at[i]);
    }
    out += "}";

    out += ",\n  \"evidence\": {\"count\": " +
           std::to_string(b.evidence_count) + ", \"head\": \"";
    json_escape_into(out, b.evidence_head_hex);
    out += "\"}";

    const auto resolve = [&b](std::uint16_t id) -> std::string_view {
        return id < b.names.size() ? std::string_view(b.names[id])
                                   : std::string_view("?");
    };
    out += ",\n  \"telemetry\": [";
    first = true;
    for (const FlightRecord& r : b.telemetry) {
        out += first ? "\n   " : ",\n   ";
        first = false;
        out += "{\"at\": " + std::to_string(r.at);
        out += ", \"source\": \"";
        json_escape_into(out, resolve(r.source));
        out += "\", \"kind\": \"";
        json_escape_into(out, resolve(r.kind));
        out += '"';
        out += ", \"severity\": " + std::to_string(r.severity);
        out += ", \"type\": \"";
        json_escape_into(out, record_type_name(r.type));
        out += '"';
        out += ", \"a\": " + std::to_string(r.a);
        out += ", \"b\": " + std::to_string(r.b);
        out += ", \"detail\": \"";
        json_escape_into(out, r.detail_view());
        out += "\"}";
    }
    out += first ? "]" : "\n  ]";

    if (!b.provenance_json.empty()) {
        // Already-rendered JSON from the fleet provenance reconstructor;
        // embedded verbatim so the seal covers the exact DAG bytes.
        out += ",\n  \"provenance\": ";
        out += b.provenance_json;
    }

    out += ",\n  \"metrics\": ";
    if (b.metrics_json.empty()) {
        out += "null";
    } else {
        // The registry snapshot is already JSON; embed it verbatim
        // (minus its trailing newline).
        std::string_view metrics = b.metrics_json;
        while (!metrics.empty() && metrics.back() == '\n') {
            metrics.remove_suffix(1);
        }
        out += metrics;
    }
    out += "}";
    return out;
}

std::string seal_postmortem(const PostmortemBundle& b,
                            const crypto::HmacSha256& sealer) {
    const std::string body = render_postmortem_body(b);
    const crypto::Hash256 tag = sealer.tag(
        BytesView(reinterpret_cast<const std::uint8_t*>(body.data()),
                  body.size()));
    std::string out;
    out.reserve(body.size() + 128);
    out += kPrefix;
    out += body;
    out += kSealMarker;
    out += to_hex(BytesView(tag.data(), tag.size()));
    out += kSuffix;
    return out;
}

bool verify_postmortem(std::string_view sealed_json, BytesView seal_key) {
    if (sealed_json.substr(0, kPrefix.size()) != kPrefix) return false;
    const std::size_t marker = sealed_json.rfind(kSealMarker);
    if (marker == std::string_view::npos || marker < kPrefix.size()) {
        return false;
    }
    const std::string_view body =
        sealed_json.substr(kPrefix.size(), marker - kPrefix.size());
    // The artefact must end exactly with `<tag>"}}\n` — a strict frame,
    // so a flip anywhere (even in the closing braces) fails.
    if (sealed_json.size() < kSuffix.size() ||
        sealed_json.substr(sealed_json.size() - kSuffix.size()) != kSuffix) {
        return false;
    }
    const std::size_t tag_begin = marker + kSealMarker.size();
    const std::size_t tag_end = sealed_json.size() - kSuffix.size();
    if (tag_end < tag_begin) return false;
    Bytes tag;
    try {
        tag = from_hex(sealed_json.substr(tag_begin, tag_end - tag_begin));
    } catch (const Error&) {
        return false;
    }
    if (tag.size() != std::tuple_size_v<crypto::Hash256>) return false;
    return crypto::hmac_verify(
        seal_key,
        BytesView(reinterpret_cast<const std::uint8_t*>(body.data()),
                  body.size()),
        tag);
}

}  // namespace cres::obs
