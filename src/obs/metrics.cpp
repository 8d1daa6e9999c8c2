#include "obs/metrics.h"

#include <algorithm>

#include "obs/json.h"

namespace cres::obs {

namespace {

/// Splits `cres_x_total{monitor="bus"}` into base name and label body
/// (without braces). Names without labels return an empty label body.
std::pair<std::string_view, std::string_view> split_labels(
    std::string_view name) {
    const std::size_t brace = name.find('{');
    if (brace == std::string_view::npos) return {name, {}};
    std::string_view labels = name.substr(brace + 1);
    if (!labels.empty() && labels.back() == '}') {
        labels.remove_suffix(1);
    }
    return {name.substr(0, brace), labels};
}

/// Emits the `# HELP` (when registered) and `# TYPE` lines once per
/// base name (input is name-sorted, so equal bases are adjacent).
void type_line(std::string& out, std::string& last_base,
               std::string_view base, std::string_view type,
               const std::map<std::string, std::string, std::less<>>& help) {
    if (last_base == base) return;
    last_base.assign(base);
    if (const auto it = help.find(base); it != help.end()) {
        out += "# HELP ";
        out += base;
        out += ' ';
        out += it->second;
        out += '\n';
    }
    out += "# TYPE ";
    out += base;
    out += ' ';
    out += type;
    out += '\n';
}

/// Composes `base{labels,extra}` / `base{extra}` / `base` as needed.
std::string with_labels(std::string_view base, std::string_view labels,
                        std::string_view extra = {}) {
    std::string out(base);
    if (labels.empty() && extra.empty()) return out;
    out += '{';
    out += labels;
    if (!labels.empty() && !extra.empty()) out += ',';
    out += extra;
    out += '}';
    return out;
}

}  // namespace

std::size_t Histogram::highest_bucket() const noexcept {
    for (std::size_t i = kBucketCount; i-- > 0;) {
        if (buckets_[i] != 0) return i;
    }
    return 0;
}

std::uint64_t Histogram::estimate_quantile(double q) const noexcept {
    const std::uint64_t n = count();
    if (n == 0) return 0;
    if (q < 0.0) q = 0.0;
    if (q > 1.0) q = 1.0;

    // Prometheus histogram_quantile: find the bucket covering rank
    // q * n, then interpolate linearly between the bucket's boundary
    // values by the rank's position inside the bucket population.
    const double rank = q * static_cast<double>(n);
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < kBucketCount; ++i) {
        const std::uint64_t c = buckets_[i];
        if (c == 0) continue;
        if (static_cast<double>(cum + c) >= rank) {
            const std::uint64_t lower = i == 0 ? 0 : bucket_upper(i - 1);
            std::uint64_t upper = bucket_upper(i);
            if (upper > max_) upper = max_;  // Tighten the top bucket.
            const double frac =
                (rank - static_cast<double>(cum)) / static_cast<double>(c);
            double v = static_cast<double>(lower) +
                       frac * static_cast<double>(upper - lower);
            if (v < 0.0) v = 0.0;
            auto estimate = static_cast<std::uint64_t>(v);
            if (estimate < min()) estimate = min();
            if (estimate > max_) estimate = max_;
            return estimate;
        }
        cum += c;
    }
    return max_;
}

const Counter* MetricsRegistry::find_counter(const std::string& name) const {
    const auto it = counters_.find(name);
    return it == counters_.end() ? nullptr : &it->second;
}

const Gauge* MetricsRegistry::find_gauge(const std::string& name) const {
    const auto it = gauges_.find(name);
    return it == gauges_.end() ? nullptr : &it->second;
}

const Histogram* MetricsRegistry::find_histogram(
    const std::string& name) const {
    const auto it = histograms_.find(name);
    return it == histograms_.end() ? nullptr : &it->second;
}

const std::string* MetricsRegistry::find_help(std::string_view base) const {
    const auto it = help_.find(base);
    return it == help_.end() ? nullptr : &it->second;
}

void MetricsRegistry::merge_from(const MetricsRegistry& other) {
    for (const auto& [name, c] : other.counters_) {
        counters_[name].value_ += c.value_;
    }
    for (const auto& [name, g] : other.gauges_) {
        Gauge& mine = gauges_[name];
        mine.value_ += g.value_;
        mine.max_ = std::max(mine.max_, g.max_);
    }
    for (const auto& [name, h] : other.histograms_) {
        Histogram& mine = histograms_[name];
        for (std::size_t i = 0; i < Histogram::kBucketCount; ++i) {
            mine.buckets_[i] += h.buckets_[i];
        }
        mine.sum_ += h.sum_;
        mine.min_ = std::min(mine.min_, h.min_);
        mine.max_ = std::max(mine.max_, h.max_);
    }
    for (const auto& [base, text] : other.help_) {
        help_.emplace(base, text);
    }
}

std::string MetricsRegistry::prometheus() const {
    std::string out;
    std::string last_base;

    for (const auto& [name, c] : counters_) {
        const auto [base, labels] = split_labels(name);
        type_line(out, last_base, base, "counter", help_);
        out += with_labels(base, labels);
        out += ' ';
        out += std::to_string(c.value());
        out += '\n';
    }
    for (const auto& [name, g] : gauges_) {
        const auto [base, labels] = split_labels(name);
        type_line(out, last_base, base, "gauge", help_);
        out += with_labels(base, labels);
        out += ' ';
        out += std::to_string(g.value());
        out += '\n';
        // The high-water mark rides along as a sibling gauge.
        std::string max_base(base);
        max_base += "_max";
        out += with_labels(max_base, labels);
        out += ' ';
        out += std::to_string(g.max());
        out += '\n';
    }
    for (const auto& [name, h] : histograms_) {
        const auto [base, labels] = split_labels(name);
        type_line(out, last_base, base, "histogram", help_);
        std::string bucket_base(base);
        bucket_base += "_bucket";
        const std::size_t top = h.highest_bucket();
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i <= top && h.count() != 0; ++i) {
            cumulative += h.bucket(i);
            out += with_labels(
                bucket_base, labels,
                "le=\"" + std::to_string(Histogram::bucket_upper(i)) + "\"");
            out += ' ';
            out += std::to_string(cumulative);
            out += '\n';
        }
        out += with_labels(bucket_base, labels, "le=\"+Inf\"");
        out += ' ';
        out += std::to_string(h.count());
        out += '\n';
        out += with_labels(std::string(base) + "_sum", labels);
        out += ' ';
        out += std::to_string(h.sum());
        out += '\n';
        out += with_labels(std::string(base) + "_count", labels);
        out += ' ';
        out += std::to_string(h.count());
        out += '\n';
    }
    return out;
}

std::string MetricsRegistry::json() const {
    std::string out = "{\n  \"counters\": {";
    bool first = true;
    for (const auto& [name, c] : counters_) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "    \"";
        json_escape_into(out, name);
        out += "\": " + std::to_string(c.value());
    }
    out += first ? "},\n" : "\n  },\n";

    out += "  \"gauges\": {";
    first = true;
    for (const auto& [name, g] : gauges_) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "    \"";
        json_escape_into(out, name);
        out += "\": {\"value\": " + std::to_string(g.value()) +
               ", \"max\": " + std::to_string(g.max()) + "}";
    }
    out += first ? "},\n" : "\n  },\n";

    out += "  \"histograms\": {";
    first = true;
    for (const auto& [name, h] : histograms_) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "    \"";
        json_escape_into(out, name);
        out += "\": {\"count\": " + std::to_string(h.count()) +
               ", \"sum\": " + std::to_string(h.sum()) +
               ", \"min\": " + std::to_string(h.min()) +
               ", \"max\": " + std::to_string(h.max()) + ", \"buckets\": [";
        const std::size_t top = h.highest_bucket();
        for (std::size_t i = 0; i <= top && h.count() != 0; ++i) {
            if (i > 0) out += ", ";
            out += std::to_string(h.bucket(i));
        }
        out += "]}";
    }
    out += first ? "}\n" : "\n  }\n";
    out += "}\n";
    return out;
}

}  // namespace cres::obs
