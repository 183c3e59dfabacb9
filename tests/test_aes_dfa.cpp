// Piret-Quisquater differential fault analysis on AES-128.
#include "workload/crypto/aes_dfa.hpp"

#include <gtest/gtest.h>

#include "os/cpupower.hpp"
#include "os/kernel.hpp"
#include "sim/cpu_profile.hpp"
#include "sim/ocm.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace pv::crypto {
namespace {

AesKey test_key() {
    return {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
            0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};
}

AesBlock random_block(Rng& rng) {
    AesBlock b{};
    for (auto& v : b) v = static_cast<std::uint8_t>(rng.uniform_below(256));
    return b;
}

TEST(AesDfa, InverseSboxRoundTrips) {
    for (unsigned x = 0; x < 256; ++x) {
        const auto b = static_cast<std::uint8_t>(x);
        EXPECT_EQ(aes_inv_sbox(aes_sbox(b)), b);
        EXPECT_EQ(aes_sbox(aes_inv_sbox(b)), b);
    }
}

TEST(AesDfa, InvertKeyScheduleRecoversMasterKey) {
    const AesKey key = test_key();
    EXPECT_EQ(invert_key_schedule(aes_last_round_key(key)), key);
    // And for a handful of random keys.
    Rng rng(42);
    for (int i = 0; i < 20; ++i) {
        AesKey k;
        for (auto& v : k) v = static_cast<std::uint8_t>(rng.uniform_below(256));
        EXPECT_EQ(invert_key_schedule(aes_last_round_key(k)), k);
    }
}

TEST(AesDfa, FaultInjectorMatchesCleanEncryptWithZeroDiff) {
    const AesKey key = test_key();
    const AesBlock pt = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16};
    EXPECT_EQ(aes128_encrypt_with_fault(key, pt, 5, 3, 0x00), aes128_encrypt(key, pt));
    EXPECT_THROW((void)aes128_encrypt_with_fault(key, pt, 11, 0, 1), pv::ConfigError);
    EXPECT_THROW((void)aes128_encrypt_with_fault(key, pt, 5, 16, 1), pv::ConfigError);
}

TEST(AesDfa, Round8FaultTouchesExactlyFourBytes) {
    const AesKey key = test_key();
    Rng rng(7);
    for (unsigned pos = 0; pos < 16; ++pos) {
        const AesBlock pt = random_block(rng);
        const AesBlock good = aes128_encrypt(key, pt);
        const AesBlock bad = aes128_encrypt_with_fault(key, pt, 8, pos, 0x37);
        unsigned diffs = 0;
        for (unsigned i = 0; i < 16; ++i) diffs += (good[i] != bad[i]);
        EXPECT_EQ(diffs, 4u) << "pos=" << pos;
        const auto diag = dfa_diagonal({good, bad});
        ASSERT_TRUE(diag.has_value()) << "pos=" << pos;
        // The affected diagonal is (col - row) mod 4 of the fault site.
        EXPECT_EQ(*diag, ((pos / 4) + 4 - (pos % 4)) % 4) << "pos=" << pos;
    }
}

TEST(AesDfa, OtherRoundFaultsAreRejected) {
    const AesKey key = test_key();
    Rng rng(9);
    const AesBlock pt = random_block(rng);
    const AesBlock good = aes128_encrypt(key, pt);
    // Round 10 (and 9's output) faults corrupt a single byte; early
    // faults corrupt nearly everything — neither matches the shape.
    for (const unsigned round : {1u, 4u, 6u, 9u, 10u}) {
        const AesBlock bad = aes128_encrypt_with_fault(key, pt, round, 5, 0x21);
        AesDfa dfa;
        EXPECT_FALSE(dfa.add_pair({good, bad})) << "round " << round;
    }
}

TEST(AesDfa, RecoversKeyFromLaboratoryFaults) {
    const AesKey key = test_key();
    Rng rng(11);
    AesDfa dfa;
    // Three faults per diagonal: positions 0..3 hit distinct diagonals.
    for (unsigned pos = 0; pos < 4; ++pos) {
        for (int shot = 0; shot < 3; ++shot) {
            const AesBlock pt = random_block(rng);
            const auto diff = static_cast<std::uint8_t>(1 + rng.uniform_below(255));
            const AesBlock good = aes128_encrypt(key, pt);
            const AesBlock bad = aes128_encrypt_with_fault(key, pt, 8, pos, diff);
            EXPECT_TRUE(dfa.add_pair({good, bad}));
        }
    }
    ASSERT_TRUE(dfa.ready(3));
    const auto recovered = dfa.recover_key();
    ASSERT_TRUE(recovered.has_value());
    EXPECT_EQ(*recovered, key);
}

TEST(AesDfa, CandidatesShrinkWithMorePairs) {
    const AesKey key = test_key();
    Rng rng(13);
    AesDfa dfa;
    EXPECT_EQ(dfa.candidates_for(0), SIZE_MAX);
    const AesBlock pt1 = random_block(rng);
    const AesBlock pt2 = random_block(rng);
    // Position 0 faults diagonal 0.
    (void)dfa.add_pair({aes128_encrypt(key, pt1),
                        aes128_encrypt_with_fault(key, pt1, 8, 0, 0x5c)});
    const std::size_t after_one = dfa.candidates_for(0);
    EXPECT_GT(after_one, 0u);
    (void)dfa.add_pair({aes128_encrypt(key, pt2),
                        aes128_encrypt_with_fault(key, pt2, 8, 0, 0xa1)});
    const std::size_t after_two = dfa.candidates_for(0);
    EXPECT_LE(after_two, after_one);
    EXPECT_THROW((void)dfa.candidates_for(4), pv::ConfigError);
}

TEST(AesDfa, RecoverKeyNeedsAllDiagonals) {
    const AesKey key = test_key();
    Rng rng(15);
    AesDfa dfa;
    const AesBlock pt = random_block(rng);
    (void)dfa.add_pair({aes128_encrypt(key, pt),
                        aes128_encrypt_with_fault(key, pt, 8, 0, 0x11)});
    EXPECT_FALSE(dfa.ready(1));
    EXPECT_FALSE(dfa.recover_key().has_value());
}

TEST(AesDfa, EndToEndAgainstUndervoltedMachine) {
    // The full Plundervolt-on-AES weaponization, physics and all: park
    // the rail just above the crash boundary, farm faulty ciphertexts,
    // keep the ones whose difference matches a round-8 single-byte
    // fault, and recover the key.
    sim::Machine machine(sim::cometlake_i7_10510u(), 777);
    os::Kernel kernel(machine);
    os::Cpupower cpupower(machine);
    cpupower.frequency_set(machine.profile().freq_max);
    machine.advance_to(machine.rail_settle_time());
    const Millivolts crash = machine.fault_model().crash_offset(machine.profile().freq_max);
    machine.write_msr(0, sim::kMsrOcMailbox,
                      sim::encode_offset(crash + Millivolts{1.5}, sim::VoltagePlane::Core));
    machine.advance_to(machine.rail_settle_time());
    ASSERT_FALSE(machine.crashed());

    const AesKey key = test_key();
    FaultableAes aes(machine, 1, key);
    Rng rng(17);
    AesDfa dfa;
    int usable = 0;
    for (int i = 0; i < 300'000 && !dfa.ready(3); ++i) {
        const AesBlock pt = random_block(rng);
        const auto result = aes.encrypt(pt);
        if (!result.faulted) continue;
        // The attacker only sees ciphertexts: the shape filter alone
        // selects the round-8 faults.
        if (dfa.add_pair({aes128_encrypt(key, pt), result.ciphertext})) ++usable;
    }
    ASSERT_TRUE(dfa.ready(3)) << "collected only " << usable << " usable pairs";
    const auto recovered = dfa.recover_key();
    ASSERT_TRUE(recovered.has_value());
    EXPECT_EQ(*recovered, key);
}

}  // namespace
}  // namespace pv::crypto
