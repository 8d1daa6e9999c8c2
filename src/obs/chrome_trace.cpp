#include "obs/chrome_trace.h"

#include "obs/json.h"

namespace cres::obs {

namespace {

void field_u64(std::string& out, std::string_view key, std::uint64_t value) {
    out += '"';
    out += key;
    out += "\":";
    out += std::to_string(value);
}

void field_str(std::string& out, std::string_view key,
               std::string_view value) {
    out += '"';
    out += key;
    out += "\":\"";
    json_escape_into(out, value);
    out += '"';
}

}  // namespace

std::uint32_t ChromeTrace::process(std::string_view name) {
    const auto it = pids_.find(name);
    if (it != pids_.end()) return it->second;
    const auto pid = static_cast<std::uint32_t>(pids_.size() + 1);
    pids_.emplace(std::string(name), pid);

    std::string e = "{\"ph\":\"M\",";
    field_u64(e, "pid", pid);
    e += ",\"tid\":0,\"name\":\"process_name\",\"args\":{";
    field_str(e, "name", name);
    e += "}}";
    push(std::move(e));

    // Pin the timeline order to registration (device-index) order.
    std::string s = "{\"ph\":\"M\",";
    field_u64(s, "pid", pid);
    s += ",\"tid\":0,\"name\":\"process_sort_index\",\"args\":{\"sort_index\":";
    s += std::to_string(pid);
    s += "}}";
    push(std::move(s));
    return pid;
}

std::uint32_t ChromeTrace::thread(std::uint32_t pid, std::string_view name) {
    const auto key = std::make_pair(pid, std::string(name));
    const auto it = tids_.find(key);
    if (it != tids_.end()) return it->second;
    std::uint32_t next = 1;
    for (const auto& [existing, tid] : tids_) {
        if (existing.first == pid && tid >= next) next = tid + 1;
    }
    tids_.emplace(key, next);

    std::string e = "{\"ph\":\"M\",";
    field_u64(e, "pid", pid);
    e += ',';
    field_u64(e, "tid", next);
    e += ",\"name\":\"thread_name\",\"args\":{";
    field_str(e, "name", name);
    e += "}}";
    push(std::move(e));

    std::string s = "{\"ph\":\"M\",";
    field_u64(s, "pid", pid);
    s += ',';
    field_u64(s, "tid", next);
    s += ",\"name\":\"thread_sort_index\",\"args\":{\"sort_index\":";
    s += std::to_string(next);
    s += "}}";
    push(std::move(s));
    return next;
}

void ChromeTrace::instant(std::uint32_t pid, std::uint32_t tid,
                          std::string_view name, std::string_view category,
                          std::uint64_t ts, std::string_view detail) {
    std::string e = "{\"ph\":\"i\",";
    field_u64(e, "pid", pid);
    e += ',';
    field_u64(e, "tid", tid);
    e += ',';
    field_str(e, "name", name);
    e += ',';
    field_str(e, "cat", category);
    e += ',';
    field_u64(e, "ts", ts);
    e += ",\"s\":\"t\"";
    if (!detail.empty()) {
        e += ",\"args\":{";
        field_str(e, "detail", detail);
        e += '}';
    }
    e += '}';
    push(std::move(e));
}

void ChromeTrace::complete(std::uint32_t pid, std::uint32_t tid,
                           std::string_view name, std::string_view category,
                           std::uint64_t ts, std::uint64_t dur,
                           std::string_view detail) {
    std::string e = "{\"ph\":\"X\",";
    field_u64(e, "pid", pid);
    e += ',';
    field_u64(e, "tid", tid);
    e += ',';
    field_str(e, "name", name);
    e += ',';
    field_str(e, "cat", category);
    e += ',';
    field_u64(e, "ts", ts);
    e += ',';
    field_u64(e, "dur", dur);
    if (!detail.empty()) {
        e += ",\"args\":{";
        field_str(e, "detail", detail);
        e += '}';
    }
    e += '}';
    push(std::move(e));
}

namespace {

/// Shared rendering for the "s"/"t" flow phases; identical field order
/// so the golden file pins both ends the same way. Flow ids are span
/// ids — full 64-bit values — rendered as a hex string: JSON numbers
/// above 2^53 lose precision in double-based consumers (jq, browsers),
/// which would alias distinct spans, and the trace format accepts
/// string ids.
std::string render_flow(char phase, std::uint32_t pid, std::uint32_t tid,
                        std::string_view name, std::string_view category,
                        std::uint64_t ts, std::uint64_t id) {
    std::string e = "{\"ph\":\"";
    e += phase;
    e += "\",";
    field_u64(e, "pid", pid);
    e += ',';
    field_u64(e, "tid", tid);
    e += ',';
    field_str(e, "name", name);
    e += ',';
    field_str(e, "cat", category);
    e += ',';
    field_u64(e, "ts", ts);
    e += ",\"id\":\"0x";
    static constexpr char kHex[] = "0123456789abcdef";
    bool started = false;
    for (int shift = 60; shift >= 0; shift -= 4) {
        const auto nibble = static_cast<unsigned>((id >> shift) & 0xF);
        if (nibble != 0) started = true;
        if (started || shift == 0) e += kHex[nibble];
    }
    e += "\"}";
    return e;
}

}  // namespace

void ChromeTrace::flow_start(std::uint32_t pid, std::uint32_t tid,
                             std::string_view name, std::string_view category,
                             std::uint64_t ts, std::uint64_t id) {
    push(render_flow('s', pid, tid, name, category, ts, id));
}

void ChromeTrace::flow_step(std::uint32_t pid, std::uint32_t tid,
                            std::string_view name, std::string_view category,
                            std::uint64_t ts, std::uint64_t id) {
    push(render_flow('t', pid, tid, name, category, ts, id));
}

void ChromeTrace::counter(std::uint32_t pid, std::string_view name,
                          std::uint64_t ts, std::uint64_t value) {
    std::string e = "{\"ph\":\"C\",";
    field_u64(e, "pid", pid);
    e += ",\"tid\":0,";
    field_str(e, "name", name);
    e += ',';
    field_u64(e, "ts", ts);
    e += ",\"args\":{\"value\":";
    e += std::to_string(value);
    e += "}}";
    push(std::move(e));
}

std::string ChromeTrace::json() const {
    std::string out = "{\"displayTimeUnit\": \"ms\",\n \"traceEvents\": [";
    bool first = true;
    for (const std::string& event : events_) {
        out += first ? "\n  " : ",\n  ";
        first = false;
        out += event;
    }
    out += "\n ]}\n";
    return out;
}

}  // namespace cres::obs
