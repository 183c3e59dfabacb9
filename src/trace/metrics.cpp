#include "trace/metrics.hpp"

#include <cstdio>
#include <sstream>

#include "util/error.hpp"

namespace pv::trace {

Histogram::Histogram(std::vector<double> upper_bounds) : bounds_(std::move(upper_bounds)) {
    if (bounds_.empty()) throw ConfigError("histogram needs at least one bucket bound");
    for (std::size_t i = 1; i < bounds_.size(); ++i)
        if (bounds_[i - 1] >= bounds_[i])
            throw ConfigError("histogram bounds must be strictly ascending");
    buckets_.assign(bounds_.size() + 1, 0);
}

void Histogram::observe(double value) {
    std::size_t i = 0;
    while (i < bounds_.size() && value > bounds_[i]) ++i;
    ++buckets_[i];
    ++count_;
    sum_ += value;
}

bool MetricValue::operator==(const MetricValue& other) const {
    return kind == other.kind && count == other.count && value == other.value &&
           bounds == other.bounds && buckets == other.buckets;
}

void MetricsSnapshot::set_counter(const std::string& name, std::uint64_t count) {
    MetricValue v;
    v.kind = MetricValue::Kind::Counter;
    v.count = count;
    values_[name] = std::move(v);
}

void MetricsSnapshot::set_gauge(const std::string& name, double value) {
    MetricValue v;
    v.kind = MetricValue::Kind::Gauge;
    v.value = value;
    values_[name] = std::move(v);
}

void MetricsSnapshot::set(const std::string& name, MetricValue value) {
    values_[name] = std::move(value);
}

void MetricsSnapshot::merge(const MetricsSnapshot& other, const std::string& prefix) {
    for (const auto& [name, value] : other.values_) values_[prefix + name] = value;
}

MetricsSnapshot MetricsSnapshot::diff(const MetricsSnapshot& earlier) const {
    MetricsSnapshot out;
    for (const auto& [name, value] : values_) {
        MetricValue d = value;
        auto it = earlier.values_.find(name);
        if (it != earlier.values_.end() && it->second.kind == value.kind) {
            const MetricValue& before = it->second;
            switch (value.kind) {
                case MetricValue::Kind::Counter:
                    d.count = value.count - before.count;
                    break;
                case MetricValue::Kind::Gauge:
                    break;  // gauges are levels, not totals
                case MetricValue::Kind::Histogram:
                    d.count = value.count - before.count;
                    d.value = value.value - before.value;
                    if (before.bounds == value.bounds)
                        for (std::size_t i = 0; i < d.buckets.size(); ++i)
                            d.buckets[i] = value.buckets[i] - before.buckets[i];
                    break;
            }
        }
        out.values_[name] = std::move(d);
    }
    return out;
}

std::string format_double(double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

namespace {

void json_escape_into(std::ostringstream& os, const std::string& s) {
    for (char c : s) {
        switch (c) {
            case '"': os << "\\\""; break;
            case '\\': os << "\\\\"; break;
            case '\n': os << "\\n"; break;
            case '\r': os << "\\r"; break;
            case '\t': os << "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x", c);
                    os << buf;
                } else {
                    os << c;
                }
        }
    }
}

}  // namespace

std::string MetricsSnapshot::to_json() const {
    std::ostringstream os;
    os << '{';
    bool first = true;
    for (const auto& [name, v] : values_) {
        if (!first) os << ',';
        first = false;
        os << '"';
        json_escape_into(os, name);
        os << "\":{";
        switch (v.kind) {
            case MetricValue::Kind::Counter:
                os << "\"kind\":\"counter\",\"count\":" << v.count;
                break;
            case MetricValue::Kind::Gauge:
                os << "\"kind\":\"gauge\",\"value\":" << format_double(v.value);
                break;
            case MetricValue::Kind::Histogram: {
                os << "\"kind\":\"histogram\",\"count\":" << v.count
                   << ",\"sum\":" << format_double(v.value) << ",\"bounds\":[";
                for (std::size_t i = 0; i < v.bounds.size(); ++i) {
                    if (i) os << ',';
                    os << format_double(v.bounds[i]);
                }
                os << "],\"buckets\":[";
                for (std::size_t i = 0; i < v.buckets.size(); ++i) {
                    if (i) os << ',';
                    os << v.buckets[i];
                }
                os << ']';
                break;
            }
        }
        os << '}';
    }
    os << '}';
    return os.str();
}

std::uint64_t& MetricsRegistry::counter(const std::string& name) {
    if (gauges_.count(name))
        throw ConfigError("metric '" + name + "' already registered with another kind");
    return counters_[name];
}

double& MetricsRegistry::gauge(const std::string& name) {
    if (counters_.count(name))
        throw ConfigError("metric '" + name + "' already registered with another kind");
    return gauges_[name];
}

MetricsSnapshot MetricsRegistry::snapshot() const {
    MetricsSnapshot out;
    for (const auto& [name, count] : counters_) out.set_counter(name, count);
    for (const auto& [name, value] : gauges_) out.set_gauge(name, value);
    return out;
}

}  // namespace pv::trace
