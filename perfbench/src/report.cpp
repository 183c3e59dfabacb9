#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <utility>

namespace pvbench {

void Report::check(bool ok, const std::string& claim) {
    if (ok) return;
    ++check_failures_;
    std::fprintf(stderr, "CHECK FAILED: %s\n", claim.c_str());
}

void Report::end_to_end(std::string name, double value, std::string unit, std::string note) {
    check(std::isfinite(value), name + " is a finite number");
    e2e_.push_back({std::move(name), value, std::move(unit), std::move(note)});
}

void Report::layer(std::string name, double value, std::string unit, std::string note) {
    check(std::isfinite(value), name + " is a finite number");
    layers_.push_back({std::move(name), value, std::move(unit), std::move(note)});
}

void Report::layer_tail(std::string name, const Tail& t, std::string unit) {
    layer(std::move(name), t.value, std::move(unit), describe(t));
}

namespace {

std::vector<Metric> in_catalog_order(Report& report, const std::vector<Metric>& recorded,
                                     const std::vector<MetricSpec>& catalog,
                                     bool missing_is_zero) {
    std::vector<Metric> out;
    for (const MetricSpec& spec : catalog) {
        const auto it = std::find_if(recorded.begin(), recorded.end(),
                                     [&](const Metric& m) { return m.name == spec.name; });
        if (it != recorded.end()) {
            report.check(it->unit == spec.unit, it->name + " is reported in " + spec.unit);
            out.push_back(*it);
        } else {
            report.check(missing_is_zero, std::string(spec.name) + " is reported");
            out.push_back({spec.name, 0.0, spec.unit, "not measured by this run"});
        }
    }
    for (const Metric& m : recorded)
        report.check(std::any_of(catalog.begin(), catalog.end(),
                                 [&](const MetricSpec& spec) { return m.name == spec.name; }),
                     m.name + " is a declared metric");
    return out;
}

}  // namespace

void Report::conform(const std::vector<MetricSpec>& e2e, const std::vector<MetricSpec>& layers) {
    e2e_ = in_catalog_order(*this, e2e_, e2e, /*missing_is_zero=*/false);
    layers_ = in_catalog_order(*this, layers_, layers, /*missing_is_zero=*/true);
}

void Report::print(std::FILE* out) const {
    const auto rows = [&](const char* title, const std::vector<Metric>& metrics) {
        if (metrics.empty()) return;
        std::fprintf(out, "%s\n", title);
        for (const Metric& m : metrics)
            std::fprintf(out, "  %-34s %16.6f %-6s %s\n", m.name.c_str(), m.value,
                         m.unit.c_str(), m.note.c_str());
    };
    rows("end-to-end:", e2e_);
    rows("per-layer:", layers_);
    std::fprintf(out, "operations: %llu attempted, %llu failed; checks %s\n",
                 static_cast<unsigned long long>(attempted_),
                 static_cast<unsigned long long>(failed_),
                 correct() ? "passed" : "FAILED");
}

std::string Report::json(bool trace) const {
    std::string out = "{\"correct\": ";
    out += correct() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted_);
    out += ", \"failed\": " + std::to_string(failed_);
    out += ", \"metrics\": {";
    const std::vector<Metric>& metrics = trace ? layers_ : e2e_;
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric& m = metrics[i];
        char value[64];
        // JSON has no NaN/inf; such a value already failed a check.
        if (std::isfinite(m.value)) std::snprintf(value, sizeof value, "%.17g", m.value);
        else std::snprintf(value, sizeof value, "null");
        out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + value +
               ", \"unit\": \"" + m.unit + "\"}";
    }
    out += "}}";
    return out;
}

std::string describe(const Tail& t) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "p%g of n=%zu%s", static_cast<double>(t.per_mille) / 10.0,
                  t.n, t.supported ? "" : ", below the 10-beyond rule");
    return buf;
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

}  // namespace pvbench
