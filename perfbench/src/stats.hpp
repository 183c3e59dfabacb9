// Order statistics for the end-to-end benchmark.
//
// Percentiles are nearest-rank.  Tail percentiles follow one rule: a
// reported percentile must have at least ten samples strictly beyond
// it, so `tail()` walks down a fixed ladder from the wanted percentile
// until the sample count supports one, and says which it picked.
#pragma once

#include <cstddef>
#include <vector>

namespace pvbench {

/// Sum of the samples; 0 when empty.
[[nodiscard]] double sum(const std::vector<double>& samples);

/// Median (mean of the two middle samples for even n); 0 when empty.
[[nodiscard]] double median(std::vector<double> samples);

/// Nearest-rank percentile, `per_mille` in [1, 1000]: the sample at
/// rank ceil(per_mille * n / 1000).  0 when empty.
[[nodiscard]] double percentile(std::vector<double> samples, unsigned per_mille);

/// Samples strictly beyond the nearest-rank percentile of n samples.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, unsigned per_mille);

struct Tail {
    unsigned per_mille = 500;  ///< percentile actually reported
    double value = 0.0;
    std::size_t n = 0;         ///< sample count
    bool supported = false;    ///< >= 10 samples beyond `per_mille`
};

/// The highest percentile of {99.9, 99, 95, 90, 75, 50} not above
/// `wanted_per_mille` that has >= 10 samples beyond it.  With fewer
/// than 20 samples no rung qualifies: the median is returned with
/// supported = false.
[[nodiscard]] Tail tail(std::vector<double> samples, unsigned wanted_per_mille);

}  // namespace pvbench
