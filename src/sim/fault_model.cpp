#include "sim/fault_model.hpp"

#include "util/error.hpp"

namespace pv::sim {

FaultModel::FaultModel(TimingModel timing, VfCurve vf)
    : timing_(std::move(timing)), vf_(std::move(vf)) {}

double FaultModel::fault_probability(Megahertz f, Millivolts v, InstrClass c,
                                     double delay_scale) const {
    return fault_probability_at(timing_.slack_ps(f), timing_.path_delay_ps(v), c, delay_scale);
}

bool FaultModel::would_crash(Megahertz f, Millivolts v, double delay_scale) const {
    return would_crash_at(timing_.slack_ps(f), timing_.path_delay_ps(v), delay_scale);
}

double FaultModel::observable_probability(std::uint64_t n_ops) {
    if (n_ops == 0) throw ConfigError("onset_offset with zero operations");
    // Expected-count-of-3 criterion: a sweep cell reliably *observes*
    // faults once E[faults] ~ 3.
    return 3.0 / static_cast<double>(n_ops);
}

Millivolts FaultModel::onset_offset(Megahertz f, InstrClass c, std::uint64_t n_ops,
                                    double delay_scale) const {
    const double p_obs = observable_probability(n_ops);
    const Millivolts vnom = vf_.nominal(f);
    // fault_probability is monotone non-increasing in voltage, so the
    // onset offset is the unique sign change of p - p_obs.
    double lo = -vnom.value() + 1.0;  // just above 0 V supply
    double hi = 0.0;
    if (fault_probability(f, vnom, c, delay_scale) >= p_obs)
        return Millivolts{0.0};  // faults already at nominal: no headroom
    for (int i = 0; i < 80 && (hi - lo) > 0.005; ++i) {
        const double mid = 0.5 * (lo + hi);
        if (fault_probability(f, vnom + Millivolts{mid}, c, delay_scale) >= p_obs)
            lo = mid;
        else
            hi = mid;
    }
    return Millivolts{hi};
}

Millivolts FaultModel::crash_offset(Megahertz f, double delay_scale) const {
    const Millivolts vnom = vf_.nominal(f);
    double lo = -vnom.value() + 1.0;
    double hi = 0.0;
    if (would_crash(f, vnom, delay_scale)) return Millivolts{0.0};
    for (int i = 0; i < 80 && (hi - lo) > 0.005; ++i) {
        const double mid = 0.5 * (lo + hi);
        if (would_crash(f, vnom + Millivolts{mid}, delay_scale))
            lo = mid;
        else
            hi = mid;
    }
    return Millivolts{lo};
}

std::uint64_t FaultModel::sample_fault_count(Rng& rng, std::uint64_t n_ops, double p) const {
    return rng.binomial(n_ops, p);
}

std::uint64_t FaultModel::corrupt_value(Rng& rng, std::uint64_t correct) const {
    // Plundervolt-style multiplier corruption: usually a single flipped
    // bit in the upper partial-product columns, occasionally two.
    const unsigned flips = (rng.uniform() < 0.8) ? 1u : 2u;
    std::uint64_t value = correct;
    for (unsigned i = 0; i < flips; ++i) {
        const auto bit = 16 + rng.uniform_below(48);
        value ^= (1ULL << bit);
    }
    // Guarantee the result actually differs even if two flips collided.
    if (value == correct) value ^= (1ULL << 32);
    return value;
}

}  // namespace pv::sim
