// PlugVolt — differential fault analysis on AES-128 (Piret–Quisquater).
//
// Plundervolt's second weaponization: a single-byte fault injected into
// the state entering round 9 (i.e. after round 8) spreads through one
// MixColumns column and surfaces as exactly four corrupted ciphertext
// bytes.  For each possible pre-MixColumns difference delta, the four
// output differences must match the column pattern (2d, d, d, 3d) pushed
// through the final SubBytes — which couples four bytes of the last
// round key.  Intersecting the surviving candidates across a handful of
// faulty ciphertexts pins the whole round-10 key; inverting the key
// schedule recovers the master key.
//
// This is the classic Piret–Quisquater 2003 attack, implemented against
// the byte-XOR fault shape produced by FaultableAes under undervolting.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "workload/crypto/aes.hpp"

namespace pv::crypto {

/// One faulty observation: correct and faulty ciphertext of the SAME
/// plaintext under the SAME key.
struct DfaPair {
    AesBlock correct{};
    AesBlock faulty{};
};

/// Invert the AES-128 key schedule: reconstruct the master key from the
/// last (round 10) round key.
[[nodiscard]] AesKey invert_key_schedule(const std::array<std::uint8_t, 16>& round10_key);

/// The AES inverse S-box value for `x`.
[[nodiscard]] std::uint8_t aes_inv_sbox(std::uint8_t x);

/// Identify which diagonal (0-3) of the round-9 input state was faulted,
/// from the positions of the corrupted ciphertext bytes; nullopt if the
/// difference does not look like a single-byte round-8 fault (e.g. the
/// fault hit another round).
[[nodiscard]] std::optional<unsigned> dfa_diagonal(const DfaPair& pair);

/// Incremental Piret-Quisquater key recovery.
class AesDfa {
public:
    /// Feed one observation; pairs whose difference shape does not match
    /// a round-8 single-byte fault are rejected (returns false).
    bool add_pair(const DfaPair& pair);

    /// True once every diagonal has at least `needed` usable pairs.
    [[nodiscard]] bool ready(std::size_t needed = 2) const;

    /// Attempt full key recovery; nullopt if some diagonal's candidates
    /// have not collapsed to a singleton yet (feed more pairs).
    [[nodiscard]] std::optional<AesKey> recover_key() const;

    /// Candidate count remaining for one diagonal's 4 key bytes (for
    /// progress reporting); SIZE_MAX before any pair arrived.
    [[nodiscard]] std::size_t candidates_for(unsigned diagonal) const;

private:
    std::array<std::vector<DfaPair>, 4> pairs_{};
};

}  // namespace pv::crypto
