#include "stats.hpp"

#include <algorithm>
#include <numeric>

namespace pvbench {

double sum(const std::vector<double>& samples) {
    return std::accumulate(samples.begin(), samples.end(), 0.0);
}

double median(std::vector<double> samples) {
    if (samples.empty()) return 0.0;
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

namespace {

std::size_t nearest_rank(std::size_t n, unsigned per_mille) {
    const std::size_t rank = (n * per_mille + 999) / 1000;
    return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double percentile(std::vector<double> samples, unsigned per_mille) {
    if (samples.empty()) return 0.0;
    std::sort(samples.begin(), samples.end());
    return samples[nearest_rank(samples.size(), per_mille) - 1];
}

std::size_t samples_beyond(std::size_t n, unsigned per_mille) {
    return n == 0 ? 0 : n - nearest_rank(n, per_mille);
}

Tail tail(std::vector<double> samples, unsigned wanted_per_mille) {
    constexpr unsigned kLadder[] = {999, 990, 950, 900, 750, 500};
    Tail out;
    out.n = samples.size();
    for (const unsigned rung : kLadder) {
        if (rung > wanted_per_mille) continue;
        if (samples_beyond(out.n, rung) >= 10) {
            out.per_mille = rung;
            out.supported = true;
            break;
        }
    }
    out.value = out.supported ? percentile(std::move(samples), out.per_mille)
                              : median(std::move(samples));
    return out;
}

}  // namespace pvbench
