#include <gtest/gtest.h>

#include "os/cpupower.hpp"
#include "os/kernel.hpp"
#include "sim/cpu_profile.hpp"
#include "sim/ocm.hpp"
#include "util/error.hpp"
#include "workload/crypto/aes.hpp"
#include "workload/crypto/bignum.hpp"
#include "workload/crypto/rsa_crt.hpp"

namespace pv::crypto {
namespace {

TEST(Bignum, MulmodMatchesWideArithmetic) {
    EXPECT_EQ(mulmod(0xFFFFFFFFFFFFFFFFULL, 0xFFFFFFFFFFFFFFFFULL, 1000000007ULL),
              static_cast<u64>((static_cast<u128>(0xFFFFFFFFFFFFFFFFULL) *
                                0xFFFFFFFFFFFFFFFFULL) %
                               1000000007ULL));
    EXPECT_EQ(mulmod(7, 8, 5), 1u);
    EXPECT_THROW((void)mulmod(1, 2, 0), ConfigError);
}

TEST(Bignum, PowmodKnownValues) {
    EXPECT_EQ(powmod(2, 10, 1000), 24u);
    EXPECT_EQ(powmod(3, 0, 7), 1u);
    EXPECT_EQ(powmod(0, 5, 7), 0u);
    // Fermat: a^(p-1) = 1 mod p.
    EXPECT_EQ(powmod(12345, 1000000006ULL, 1000000007ULL), 1u);
}

TEST(Bignum, GcdAndModinv) {
    EXPECT_EQ(gcd(48, 18), 6u);
    EXPECT_EQ(gcd(17, 0), 17u);
    EXPECT_EQ(gcd(0, 17), 17u);
    const auto inv = modinv(3, 11);
    ASSERT_TRUE(inv.has_value());
    EXPECT_EQ(*inv, 4u);
    EXPECT_FALSE(modinv(6, 9).has_value());
    // Property: a * modinv(a, m) == 1 mod m for coprime pairs.
    for (u64 a = 2; a < 50; ++a) {
        const u64 m = 101;
        const auto i = modinv(a, m);
        ASSERT_TRUE(i.has_value());
        EXPECT_EQ(mulmod(a, *i, m), 1u);
    }
}

class PrimalityKnown : public ::testing::TestWithParam<std::pair<u64, bool>> {};

TEST_P(PrimalityKnown, Classifies) {
    const auto [n, prime] = GetParam();
    EXPECT_EQ(is_prime(n), prime) << n;
}

INSTANTIATE_TEST_SUITE_P(
    Values, PrimalityKnown,
    ::testing::Values(std::pair<u64, bool>{0, false}, std::pair<u64, bool>{1, false},
                      std::pair<u64, bool>{2, true}, std::pair<u64, bool>{3, true},
                      std::pair<u64, bool>{4, false}, std::pair<u64, bool>{37, true},
                      std::pair<u64, bool>{561, false},       // Carmichael
                      std::pair<u64, bool>{1105, false},      // Carmichael
                      std::pair<u64, bool>{2147483647, true}, // Mersenne prime 2^31-1
                      std::pair<u64, bool>{1000000007, true},
                      std::pair<u64, bool>{1000000008, false},
                      std::pair<u64, bool>{3215031751ULL, false},  // strong pseudoprime
                      std::pair<u64, bool>{18446744073709551557ULL, true}));

TEST(Bignum, RandomPrimeHasRequestedBits) {
    Rng rng(3);
    for (const unsigned bits : {8u, 16u, 30u, 40u}) {
        const u64 p = random_prime(rng, bits);
        EXPECT_TRUE(is_prime(p));
        EXPECT_GE(p, 1ULL << (bits - 1));
        EXPECT_LT(p, 1ULL << bits);
    }
    EXPECT_THROW((void)random_prime(rng, 7), ConfigError);
    EXPECT_THROW((void)random_prime(rng, 63), ConfigError);
}

TEST(RsaCrt, GeneratedKeyIsConsistent) {
    Rng rng(5);
    const RsaKey key = rsa_generate(rng);
    EXPECT_TRUE(is_prime(key.p));
    EXPECT_TRUE(is_prime(key.q));
    EXPECT_EQ(key.n, key.p * key.q);
    EXPECT_GT(key.p, key.q);
    const u64 phi = (key.p - 1) * (key.q - 1);
    EXPECT_EQ(mulmod(key.e, key.d, phi), 1u);
    EXPECT_EQ(mulmod(key.qinv, key.q % key.p, key.p), 1u);
}

TEST(RsaCrt, SignatureVerifies) {
    Rng rng(7);
    const RsaKey key = rsa_generate(rng);
    for (const u64 m : {u64{1}, u64{42}, u64{0xDEADBEEF}, key.n - 1}) {
        const u64 s = rsa_sign_reference(key, m);
        EXPECT_TRUE(rsa_verify(key, m, s)) << "m=" << m;
    }
}

TEST(RsaCrt, CrtMatchesDirectExponentiation) {
    Rng rng(9);
    const RsaKey key = rsa_generate(rng);
    for (u64 m = 1; m < 50; m += 7)
        EXPECT_EQ(rsa_sign_reference(key, m), powmod(m, key.d, key.n));
}

TEST(RsaCrt, BellcoreFactorsFromSingleHalfFault) {
    Rng rng(11);
    const RsaKey key = rsa_generate(rng);
    const u64 m = 0x1234567;
    // Synthesize a signature whose p-half is faulted: recombine with a
    // corrupted sp.
    const u64 sp_bad = powmod(m % key.p, key.dp, key.p) ^ 0x40;
    const u64 sq = powmod(m % key.q, key.dq, key.q);
    const u64 h = mulmod(key.qinv, (sp_bad % key.p + key.p - sq % key.p) % key.p, key.p);
    const u64 s_bad = sq + key.q * h;
    ASSERT_FALSE(rsa_verify(key, m, s_bad));
    const auto factor = bellcore_factor(key.n, key.e, m, s_bad);
    ASSERT_TRUE(factor.has_value());
    EXPECT_TRUE(*factor == key.p || *factor == key.q);
}

TEST(RsaCrt, BellcoreRejectsCorrectSignature) {
    Rng rng(13);
    const RsaKey key = rsa_generate(rng);
    const u64 s = rsa_sign_reference(key, 99);
    EXPECT_FALSE(bellcore_factor(key.n, key.e, 99, s).has_value());
}

TEST(RsaCrt, FaultableSignerCorrectAtNominal) {
    sim::Machine machine(sim::cometlake_i7_10510u(), 17);
    Rng rng(15);
    const RsaKey key = rsa_generate(rng);
    FaultableRsaSigner signer(machine, 1, key);
    for (const u64 m : {5ULL, 77777ULL, 0xCAFEBABEULL}) {
        EXPECT_EQ(signer.sign(m), rsa_sign_reference(key, m));
    }
    EXPECT_GT(signer.mul_count(), 0u);
}

TEST(RsaCrt, FaultableSignerFaultsUnderUndervolt) {
    sim::Machine machine(sim::cometlake_i7_10510u(), 19);
    os::Kernel kernel(machine);
    os::Cpupower cpupower(machine);
    cpupower.frequency_set(machine.profile().freq_max);
    machine.advance_to(machine.rail_settle_time());
    const Millivolts onset = machine.fault_model().onset_offset(
        machine.profile().freq_max, sim::InstrClass::Imul);
    machine.write_msr(0, sim::kMsrOcMailbox,
                      sim::encode_offset(onset - Millivolts{12.0}, sim::VoltagePlane::Core));
    machine.advance_to(machine.rail_settle_time());
    ASSERT_FALSE(machine.crashed());

    Rng rng(21);
    const RsaKey key = rsa_generate(rng);
    FaultableRsaSigner signer(machine, 1, key);
    bool faulted = false;
    for (int i = 0; i < 300 && !faulted; ++i)
        faulted = !rsa_verify(key, 1000 + static_cast<u64>(i),
                              signer.sign(1000 + static_cast<u64>(i)));
    EXPECT_TRUE(faulted);
}

TEST(RsaCrt, SignVerifiedSuppressesFaultyReleases) {
    // Shamir-style verify-before-release: under an undervolt that faults
    // plain sign(), the verified path never releases a bad signature.
    sim::Machine machine(sim::cometlake_i7_10510u(), 27);
    os::Kernel kernel(machine);
    os::Cpupower cpupower(machine);
    cpupower.frequency_set(machine.profile().freq_max);
    machine.advance_to(machine.rail_settle_time());
    const Millivolts onset = machine.fault_model().onset_offset(
        machine.profile().freq_max, sim::InstrClass::Imul);
    // Shallow enough that retries succeed, deep enough that faults occur.
    machine.write_msr(0, sim::kMsrOcMailbox,
                      sim::encode_offset(onset - Millivolts{6.0}, sim::VoltagePlane::Core));
    machine.advance_to(machine.rail_settle_time());
    ASSERT_FALSE(machine.crashed());

    Rng rng(29);
    const RsaKey key = rsa_generate(rng);
    FaultableRsaSigner signer(machine, 1, key);
    for (int i = 0; i < 150; ++i) {
        const u64 m = 5000 + static_cast<u64>(i);
        EXPECT_TRUE(rsa_verify(key, m, signer.sign_verified(m)));
    }
    EXPECT_GT(signer.suppressed_faults(), 0u)
        << "faults did occur; they were caught before release";
}

TEST(RsaCrt, SignVerifiedGivesUpUnderPersistentFaults) {
    // Deep in the band nearly every signature faults: the signer must
    // refuse rather than leak.
    sim::Machine machine(sim::cometlake_i7_10510u(), 31);
    machine.set_all_frequencies(machine.profile().freq_max);
    machine.advance_to(machine.rail_settle_time());
    const Millivolts crash = machine.fault_model().crash_offset(machine.profile().freq_max);
    machine.write_msr(0, sim::kMsrOcMailbox,
                      sim::encode_offset(crash + Millivolts{3.0}, sim::VoltagePlane::Core));
    machine.advance_to(machine.rail_settle_time());
    ASSERT_FALSE(machine.crashed());

    Rng rng(33);
    const RsaKey key = rsa_generate(rng);
    FaultableRsaSigner signer(machine, 1, key);
    EXPECT_THROW((void)signer.sign_verified(42, 4), pv::SimError);
}

TEST(Aes, Fips197Vector) {
    const AesKey key = {0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07,
                        0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f};
    const AesBlock pt = {0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77,
                         0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff};
    const AesBlock expected = {0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30,
                               0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4, 0xc5, 0x5a};
    EXPECT_EQ(aes128_encrypt(key, pt), expected);
}

TEST(Aes, SboxKnownEntries) {
    EXPECT_EQ(aes_sbox(0x00), 0x63);
    EXPECT_EQ(aes_sbox(0x01), 0x7c);
    EXPECT_EQ(aes_sbox(0x53), 0xed);
    EXPECT_EQ(aes_sbox(0xff), 0x16);
}

TEST(Aes, FaultableCleanAtNominal) {
    sim::Machine machine(sim::cometlake_i7_10510u(), 23);
    const AesKey key{};
    FaultableAes aes(machine, 0, key);
    const AesBlock pt{};
    const auto r = aes.encrypt(pt);
    EXPECT_FALSE(r.faulted);
    EXPECT_EQ(r.ciphertext, aes128_encrypt(key, pt));
}

TEST(Aes, FaultableCorruptsUnderUndervolt) {
    sim::Machine machine(sim::cometlake_i7_10510u(), 25);
    machine.set_all_frequencies(machine.profile().freq_max);
    machine.advance_to(machine.rail_settle_time());
    // The FpMul path (factor 0.97) only faults within ~2 mV of the crash
    // boundary, so park one millivolt above it and farm a fault.
    const Millivolts crash = machine.fault_model().crash_offset(machine.profile().freq_max);
    machine.write_msr(0, sim::kMsrOcMailbox,
                      sim::encode_offset(crash + Millivolts{1.5}, sim::VoltagePlane::Core));
    machine.advance_to(machine.rail_settle_time());
    ASSERT_FALSE(machine.crashed());

    const AesKey key = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16};
    FaultableAes aes(machine, 1, key);
    const AesBlock pt = {9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9};
    const AesBlock good = aes128_encrypt(key, pt);
    bool corrupted = false;
    for (int i = 0; i < 60000 && !corrupted; ++i) {
        const auto r = aes.encrypt(pt);
        if (r.faulted) {
            EXPECT_NE(r.ciphertext, good);
            EXPECT_GE(r.faulted_round, 1);
            EXPECT_LE(r.faulted_round, 10);
            corrupted = true;
        }
    }
    EXPECT_TRUE(corrupted);
}

}  // namespace
}  // namespace pv::crypto
