// One benchmark run's outcome: output checks, operation accounting and
// the metrics it prints.
//
// The last line of pv_e2e's standard output is the JSON object
// built by json(): end-to-end metrics for an untraced run, per-layer
// metrics for a traced one.  Every line before it is for people.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "stats.hpp"

namespace pvbench {

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// Scratch directory for span dumps and daemon state (run.py puts
    /// it under .bench_build/ in the checkout).
    std::string work_dir = ".";
};

/// A metric the benchmark declares: name and unit.
struct MetricSpec {
    const char* name;
    const char* unit;
};

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::string note;  ///< printed for people only (percentile rank, n)
};

class Report {
public:
    /// Record an output check.  A failed check fails the run.
    void check(bool ok, const std::string& claim);

    /// Count operations (maps, cells, jobs, DVFS requests) attempted and
    /// how many of them failed.
    void ops(std::uint64_t attempted, std::uint64_t failed) {
        attempted_ += attempted;
        failed_ += failed;
    }

    void end_to_end(std::string name, double value, std::string unit, std::string note = {});
    void layer(std::string name, double value, std::string unit, std::string note = {});
    /// Tail metric under the percentile rule; the note records which
    /// percentile the sample count supported and the count itself.
    void layer_tail(std::string name, const Tail& t, std::string unit);

    /// Bring the recorded metrics into the declared catalogs' order.
    /// Every workload prints every declared metric: a per-layer metric
    /// the workload does not exercise reads 0; a missing end-to-end
    /// metric or an undeclared name fails a check (a benchmark bug).
    void conform(const std::vector<MetricSpec>& e2e, const std::vector<MetricSpec>& layers);

    [[nodiscard]] bool correct() const { return check_failures_ == 0; }

    /// Human-readable table of every metric recorded.
    void print(std::FILE* out) const;

    /// The result line: {"correct", "attempted", "failed", "metrics"}.
    [[nodiscard]] std::string json(bool trace) const;

private:
    std::vector<Metric> e2e_;
    std::vector<Metric> layers_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    unsigned check_failures_ = 0;
};

/// "p99 of n=4312" (or "p50 of n=12, below the 10-beyond rule").
[[nodiscard]] std::string describe(const Tail& t);

/// Peak resident set of this process, MiB.
[[nodiscard]] double peak_rss_mb();

}  // namespace pvbench
