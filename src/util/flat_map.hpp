// PlugVolt — sorted flat-vector map (flat_map-style).
//
// The simulator hot path keeps several small key->value tables (the MSR
// register file, the driver's stale-read cache, the kthread table) that
// node-based maps serve badly: every insert is
// an allocation, every reset walks and frees nodes, and unordered
// iteration has to be re-sorted wherever determinism matters.  A sorted
// vector fixes all three at once — one contiguous buffer, binary-search
// lookup, ordered iteration for free, and clear() keeps the capacity so
// Machine::reset() recycles the allocation across thousands of sweep
// cells.  Deliberately minimal: single-threaded use, tens of entries,
// keys with operator< — exactly the regime where flat beats nodes.
#pragma once

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <utility>
#include <vector>

namespace pv {

template <typename K, typename V>
class FlatMap {
public:
    using value_type = std::pair<K, V>;
    using iterator = typename std::vector<value_type>::iterator;
    using const_iterator = typename std::vector<value_type>::const_iterator;

    [[nodiscard]] iterator begin() { return data_.begin(); }
    [[nodiscard]] iterator end() { return data_.end(); }
    [[nodiscard]] const_iterator begin() const { return data_.begin(); }
    [[nodiscard]] const_iterator end() const { return data_.end(); }

    [[nodiscard]] bool empty() const { return data_.empty(); }
    [[nodiscard]] std::size_t size() const { return data_.size(); }

    /// Drops every entry but keeps the buffer (reset-friendly).
    void clear() { data_.clear(); }

    [[nodiscard]] iterator find(const K& key) {
        const iterator it = lower_bound(key);
        return (it != data_.end() && it->first == key) ? it : data_.end();
    }
    [[nodiscard]] const_iterator find(const K& key) const {
        const const_iterator it = lower_bound(key);
        return (it != data_.end() && it->first == key) ? it : data_.end();
    }
    [[nodiscard]] bool contains(const K& key) const { return find(key) != data_.end(); }

    /// Find-or-default-construct, like std::map::operator[].
    V& operator[](const K& key) {
        const iterator it = lower_bound(key);
        if (it != data_.end() && it->first == key) return it->second;
        return data_.insert(it, value_type(key, V{}))->second;
    }

    V& at(const K& key) {
        const iterator it = find(key);
        if (it == data_.end()) throw std::out_of_range("FlatMap::at: no such key");
        return it->second;
    }
    const V& at(const K& key) const {
        const const_iterator it = find(key);
        if (it == data_.end()) throw std::out_of_range("FlatMap::at: no such key");
        return it->second;
    }

    /// Inserts key -> V(args...) unless the key exists (std::map::emplace
    /// semantics: existing entries are left untouched).
    template <typename... Args>
    std::pair<iterator, bool> emplace(const K& key, Args&&... args) {
        const iterator it = lower_bound(key);
        if (it != data_.end() && it->first == key) return {it, false};
        return {data_.insert(it, value_type(key, V(std::forward<Args>(args)...))), true};
    }

    std::size_t erase(const K& key) {
        const iterator it = find(key);
        if (it == data_.end()) return 0;
        data_.erase(it);
        return 1;
    }

private:
    [[nodiscard]] iterator lower_bound(const K& key) {
        return std::lower_bound(data_.begin(), data_.end(), key,
                                [](const value_type& e, const K& k) { return e.first < k; });
    }
    [[nodiscard]] const_iterator lower_bound(const K& key) const {
        return std::lower_bound(data_.begin(), data_.end(), key,
                                [](const value_type& e, const K& k) { return e.first < k; });
    }

    std::vector<value_type> data_;  // sorted by .first, unique keys
};

}  // namespace pv
