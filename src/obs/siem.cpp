#include "obs/siem.h"

#include <charconv>
#include <stdexcept>
#include <utility>

#include "obs/json.h"
#include "obs/syslog.h"

namespace cres::obs {

namespace {

constexpr std::string_view kHeaderLine = "{\"format\":\"cres-siem-v1\"}";
constexpr std::string_view kChainDelim = ",\"chain\":\"";
constexpr std::size_t kChainHexChars = 64;

[[nodiscard]] BytesView text_view(std::string_view s) noexcept {
    return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

/// RFC 5424 §6.3.3 SD-PARAM value escaping: `"`, `\` and `]`, copied
/// span by span between escapes.
void sd_escape_into(std::string& out, std::string_view s) {
    std::size_t verbatim = 0;  // Start of the pending unescaped span.
    for (std::size_t i = 0; i < s.size(); ++i) {
        const char c = s[i];
        if (c != '"' && c != '\\' && c != ']') continue;
        out.append(s.data() + verbatim, i - verbatim);
        out += '\\';
        verbatim = i;  // The escaped character opens the next span.
    }
    out.append(s.data() + verbatim, s.size() - verbatim);
}

/// Text written JSON-escaped / SD-PARAM-escaped by put().
struct JsonText {
    std::string_view text;
};
struct SdText {
    std::string_view text;
};

void put_one(std::string& out, std::string_view text) { out += text; }
void put_one(std::string& out, JsonText s) { json_escape_into(out, s.text); }
void put_one(std::string& out, SdText s) { sd_escape_into(out, s.text); }
void put_one(std::string& out, std::uint64_t value) {
    char digits[20];
    const char* end =
        std::to_chars(digits, digits + sizeof digits, value).ptr;
    out.append(digits, static_cast<std::size_t>(end - digits));
}

/// Appends each part in turn: text verbatim, numbers in decimal.
template <typename... Parts>
void put(std::string& out, const Parts&... parts) {
    (put_one(out, parts), ...);
}

/// The RFC 5424 HOSTNAME / APP-NAME rule: an empty value is NILVALUE.
[[nodiscard]] std::string_view or_nil(std::string_view s) noexcept {
    return s.empty() ? std::string_view("-") : s;
}

}  // namespace

std::string_view siem_kind_name(SiemKind kind) noexcept {
    switch (kind) {
        case SiemKind::kEvent: return "event";
        case SiemKind::kAlert: return "alert";
        case SiemKind::kState: return "state";
        case SiemKind::kIncidentOpen: return "incident-open";
        case SiemKind::kIncidentClose: return "incident-close";
        case SiemKind::kEvidenceHead: return "evidence-head";
        case SiemKind::kCampaign: return "campaign";
    }
    return "?";
}

std::string_view siem_kind_msgid(SiemKind kind) noexcept {
    switch (kind) {
        case SiemKind::kEvent: return "EVT";
        case SiemKind::kAlert: return "ALRT";
        case SiemKind::kState: return "STATE";
        case SiemKind::kIncidentOpen: return "INCOPEN";
        case SiemKind::kIncidentClose: return "INCCLOSE";
        case SiemKind::kEvidenceHead: return "EVHEAD";
        case SiemKind::kCampaign: return "CAMPAIGN";
    }
    return "?";
}

// --- SiemBuffer -----------------------------------------------------------

void SiemBuffer::bind_metrics(MetricsRegistry& registry) {
    m_dropped_ = &registry.counter("cres_siem_dropped_total");
    // Publish drops counted before binding exactly once (re-binding a
    // rebuilt engine to the same registry must not double-count).
    if (dropped_ > published_) {
        m_dropped_->inc(dropped_ - published_);
        published_ = dropped_;
    }
}

bool SiemBuffer::push(SiemEvent event) {
    if (events_.size() >= capacity_) {
        ++dropped_;
        if (m_dropped_ != nullptr) {
            m_dropped_->inc();
            ++published_;
        }
        return false;
    }
    events_.push_back(std::move(event));
    return true;
}

// --- SiemBatch ------------------------------------------------------------

/// One record's fields as views: a staged SiemEvent, or a drop-gap or
/// evidence-head record framed without building one.
struct SiemBatch::Fields {
    std::uint64_t at = 0;
    SiemKind kind = SiemKind::kEvent;
    std::uint8_t severity = 0;
    std::uint8_t facility = 0;
    std::string_view category;
    std::string_view source;
    std::string_view resource;
    std::string_view detail;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    const SiemEvent* trace = nullptr;  ///< Trace context, when traced.
};

void SiemBatch::reset(std::uint64_t first_seq) noexcept {
    first_seq_ = first_seq;
    jsonl_.clear();
    syslog_.clear();
    records_.clear();
}

void SiemBatch::add(std::uint32_t device_index, std::string_view device,
                    const SiemEvent& event) {
    render(device_index, device,
           {event.at, event.kind, event.severity, event.facility,
            event.category, event.source, event.resource, event.detail,
            event.a, event.b, event.traced ? &event : nullptr});
}

void SiemBatch::add_drop_gap(std::uint32_t device_index,
                             std::string_view device, std::uint64_t at,
                             std::uint64_t lost, std::uint64_t total) {
    render(device_index, device,
           {at, SiemKind::kState, rfc5424::kWarning, rfc5424::kFacAudit,
            "system", "siem-buffer", "staging",
            "dropped records since last drain", lost, total});
}

void SiemBatch::add_evidence_head(std::uint32_t device_index,
                                  std::string_view device, std::uint64_t at,
                                  std::uint64_t evidence_count,
                                  std::string_view head_hex) {
    render(device_index, device,
           {at, SiemKind::kEvidenceHead, rfc5424::kInformational,
            rfc5424::kFacAudit, "system", "ssm", "evidence-chain", head_hex,
            evidence_count, 0});
}

void SiemBatch::render(std::uint32_t device_index, std::string_view device,
                       const Fields& record) {
    const unsigned pri = rfc5424::pri(record.facility, record.severity);

    // Body: the exact bytes the per-record digest covers. Field order
    // is part of the format — verifiers split on fixed delimiters.
    const std::size_t body_at = jsonl_.size();
    put(jsonl_, "{\"seq\":", first_seq_ + records_.size(),
        ",\"at\":", record.at, ",\"device\":\"", JsonText{device},
        "\",\"index\":", device_index, ",\"kind\":\"",
        siem_kind_name(record.kind), "\",\"pri\":", pri,
        ",\"severity\":", record.severity, ",\"facility\":", record.facility,
        ",\"category\":\"", JsonText{record.category}, "\",\"source\":\"",
        JsonText{record.source}, "\",\"resource\":\"",
        JsonText{record.resource}, "\",\"detail\":\"",
        JsonText{record.detail}, "\",\"a\":", record.a, ",\"b\":", record.b);
    if (const SiemEvent* trace = record.trace) {
        // Optional causal-trace object: absent on untraced records so
        // tracing-off streams are byte-identical to the v1 rendering.
        put(jsonl_, ",\"trace\":{\"origin\":", trace->trace_origin,
            ",\"hop\":", trace->trace_hop, ",\"span\":", trace->trace_span,
            ",\"parent\":", trace->trace_parent, "}");
    }
    jsonl_ += '}';
    const crypto::Hash256 digest =
        crypto::sha256(text_view(std::string_view(jsonl_).substr(body_at)));

    // Re-open the object for the chain field; commit() writes the hex.
    jsonl_.pop_back();
    jsonl_ += kChainDelim;
    records_.push_back({digest, jsonl_.size()});
    jsonl_.append(kChainHexChars, '0');
    jsonl_ += "\"}\n";

    // The operator rendering, from the same record. HEADER uses the
    // nil timestamp: wall clock does not exist in the simulation, so
    // the cycle stamp lives in the structured-data element instead.
    put(syslog_, "<", pri, ">1 - ", or_nil(device), " ", or_nil(record.source),
        " - ", siem_kind_msgid(record.kind), " [cres at=\"", record.at,
        "\" category=\"", SdText{record.category}, "\" resource=\"",
        SdText{record.resource}, "\" a=\"", record.a, "\" b=\"", record.b,
        "\"] ", record.detail, "\n");
}

// --- SiemStream -----------------------------------------------------------

SiemStream::SiemStream(BytesView key) : mac_(key) {
    jsonl_.append(kHeaderLine);
    jsonl_ += '\n';
}

std::string_view SiemStream::header() noexcept { return kHeaderLine; }

void SiemStream::append(std::uint32_t device_index, std::string_view device,
                        const SiemEvent& event) {
    single_.reset(seq_);
    single_.add(device_index, device, event);
    commit(single_);
}

void SiemStream::commit(const SiemBatch& batch) {
    if (batch.first_seq_ != seq_) {
        throw std::logic_error("SiemStream::commit: batch rendered for seq " +
                               std::to_string(batch.first_seq_) +
                               ", stream is at " + std::to_string(seq_));
    }
    const std::size_t base = jsonl_.size();
    jsonl_ += batch.jsonl_;
    for (const SiemBatch::Rendered& record : batch.records_) {
        head_ = mac_.tag_pair({head_.data(), head_.size()},
                              {record.digest.data(), record.digest.size()});
        hex_into(jsonl_.data() + base + record.chain_at,
                 {head_.data(), head_.size()});
    }
    seq_ += batch.records_.size();
    syslog_ += batch.syslog_;
}

std::string SiemStream::head_hex() const {
    return to_hex({head_.data(), head_.size()});
}

SiemVerifyResult SiemStream::verify(std::string_view jsonl, BytesView key) {
    SiemVerifyResult result;
    const crypto::HmacSha256 mac(key);
    crypto::Hash256 head{};  // Zero genesis, same as the stream.
    crypto::Sha256 body;

    std::size_t line_no = 0;
    std::size_t pos = 0;
    bool saw_header = false;
    while (pos < jsonl.size()) {
        std::size_t end = jsonl.find('\n', pos);
        if (end == std::string_view::npos) end = jsonl.size();
        const std::string_view line = jsonl.substr(pos, end - pos);
        pos = end + 1;
        ++line_no;

        if (!saw_header) {
            if (line != kHeaderLine) {
                result.bad_line = line_no;
                result.reason = "missing cres-siem-v1 header";
                return result;
            }
            saw_header = true;
            continue;
        }
        if (line.empty()) {
            result.bad_line = line_no;
            result.reason = "empty record line";
            return result;
        }

        // Split off the chain field. Inside JSON string values every
        // `"` is escaped, so the delimiter cannot occur in data; rfind
        // keeps the split well-defined regardless.
        const std::size_t delim = line.rfind(kChainDelim);
        if (delim == std::string_view::npos) {
            result.bad_line = line_no;
            result.reason = "record has no chain field";
            return result;
        }
        const std::size_t hex_begin = delim + kChainDelim.size();
        // 64 hex chars + closing `"}`.
        if (line.size() != hex_begin + kChainHexChars + 2 ||
            line.substr(line.size() - 2) != "\"}") {
            result.bad_line = line_no;
            result.reason = "malformed chain field";
            return result;
        }
        const std::string_view chain_hex =
            line.substr(hex_begin, kChainHexChars);

        // The body is the line up to the chain field, closed by `}`.
        body.reset();
        body.update(text_view(line.substr(0, delim)));
        body.update(text_view("}"));
        const crypto::Hash256 digest = body.finish();
        head = mac.tag_pair({head.data(), head.size()},
                            {digest.data(), digest.size()});
        char head_hex[kChainHexChars];
        hex_into(head_hex, {head.data(), head.size()});
        if (std::string_view(head_hex, kChainHexChars) != chain_hex) {
            result.bad_line = line_no;
            result.reason = "chain mismatch";
            return result;
        }
        ++result.records;
    }

    if (!saw_header) {
        result.bad_line = 0;
        result.reason = "empty stream";
        return result;
    }
    result.ok = true;
    return result;
}

}  // namespace cres::obs
