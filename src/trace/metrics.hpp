// PlugVolt — metrics: counters, gauges and fixed-bucket histograms.
//
// A MetricsRegistry is single-writer scratch space (one per campaign
// cell / polling module / bench trial) with the same discipline as a
// TraceRecorder; a MetricsSnapshot is the frozen, ordered, value-type
// result that travels inside CampaignCellResult and into report JSON.
// Snapshots are plain std::maps, so iteration order — and therefore the
// JSON export and any fingerprint mixed over them — is deterministic.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pv::trace {

/// Fixed-bucket histogram: `bounds` are strictly ascending inclusive
/// upper bounds, plus an implicit overflow bucket — buckets().size() ==
/// bounds().size() + 1.  Bucketing a sample is O(#buckets); the bucket
/// layout is fixed at construction so serial and sharded runs bucket
/// identically.
class Histogram {
public:
    explicit Histogram(std::vector<double> upper_bounds);

    /// Count `value` into its bucket and accumulate sum/count.
    void observe(double value);

    [[nodiscard]] std::uint64_t count() const { return count_; }
    [[nodiscard]] double sum() const { return sum_; }
    [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
    [[nodiscard]] const std::vector<std::uint64_t>& buckets() const { return buckets_; }

private:
    std::vector<double> bounds_;
    std::vector<std::uint64_t> buckets_;  // bounds_.size() + 1 (overflow last)
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
};

/// One frozen metric value.  For a counter only `count` is meaningful;
/// for a gauge only `value`; a histogram uses all four fields (`count`
/// = samples, `value` = sum).
struct MetricValue {
    enum class Kind : std::uint8_t { Counter, Gauge, Histogram };

    Kind kind = Kind::Counter;
    std::uint64_t count = 0;
    double value = 0.0;
    std::vector<double> bounds;
    std::vector<std::uint64_t> buckets;

    [[nodiscard]] bool operator==(const MetricValue& other) const;
};

/// An ordered, immutable-by-convention map of metric name -> value.
class MetricsSnapshot {
public:
    using Map = std::map<std::string, MetricValue>;

    void set_counter(const std::string& name, std::uint64_t count);
    void set_gauge(const std::string& name, double value);
    void set(const std::string& name, MetricValue value);

    /// Copy every entry of `other` in under `prefix + name` (use a
    /// prefix like "polling." to fold a subsystem's snapshot into a
    /// cell's).
    void merge(const MetricsSnapshot& other, const std::string& prefix = "");

    /// Monotonic delta against an earlier snapshot: counters and
    /// histogram counts/sums/buckets subtract (entries missing from
    /// `earlier` count from zero); gauges keep their current value.
    [[nodiscard]] MetricsSnapshot diff(const MetricsSnapshot& earlier) const;

    /// One JSON object, keys in map order, doubles printed with %.17g —
    /// byte-deterministic for equal snapshots.
    [[nodiscard]] std::string to_json() const;

    [[nodiscard]] const Map& values() const { return values_; }
    [[nodiscard]] bool empty() const { return values_.empty(); }
    [[nodiscard]] std::size_t size() const { return values_.size(); }
    [[nodiscard]] bool operator==(const MetricsSnapshot& other) const {
        return values_ == other.values_;
    }

private:
    Map values_;
};

/// Named registry of live counters and gauges.  NOT thread-safe — one registry
/// per logical unit of work, same single-writer rule as TraceRecorder.
class MetricsRegistry {
public:
    /// Find-or-create.  A counter/gauge name must not already be
    /// registered as the other instrument kind (ConfigError).
    std::uint64_t& counter(const std::string& name);
    double& gauge(const std::string& name);

    void add(const std::string& name, std::uint64_t delta) { counter(name) += delta; }
    void set(const std::string& name, double value) { gauge(name) = value; }

    [[nodiscard]] MetricsSnapshot snapshot() const;

private:
    std::map<std::string, std::uint64_t> counters_;
    std::map<std::string, double> gauges_;
};

/// Deterministic textual rendering of a double ("%.17g" — shortest is
/// not needed, stable is).  Shared by metrics JSON and the exporters.
[[nodiscard]] std::string format_double(double value);

}  // namespace pv::trace
