#include "check/invariant_registry.hpp"

#include <algorithm>
#include <utility>

#include "check/assert.hpp"

namespace pv::check {

std::size_t InvariantRegistry::add(std::string name, Predicate predicate) {
    PV_ASSERT(predicate != nullptr, "invariant '" << name << "' registered without a predicate");
    const std::size_t token = next_token_++;
    entries_.push_back(Entry{token, std::move(name), std::move(predicate)});
    return token;
}

void InvariantRegistry::remove(std::size_t token) {
    std::erase_if(entries_, [token](const Entry& e) { return e.token == token; });
}

std::size_t InvariantRegistry::check_now() {
    ++evaluations_;
    std::size_t found = 0;
    for (const Entry& e : entries_) {
        std::string why;
        if (e.predicate(why)) continue;
        PV_ASSERT(!fatal_, "invariant '" << e.name << "' violated: " << why);
        violations_.push_back(InvariantViolation{e.name, std::move(why)});
        ++found;
    }
    return found;
}

}  // namespace pv::check
