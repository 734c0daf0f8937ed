// Golden sequence for the warm-start solver (svc/warm_start.hpp).
//
// Drives WarmStartSolver over seeded add / remove / drift / capacity
// streams and pins, per solve, the path taken, the migration count, the
// exact bits of the served utility, a digest of the served assignment and
// the certificate verdict. Any refactor of the solve pipeline (super-optimal
// allocation, linearization, Algorithm 2, refinement, the warm candidate)
// must reproduce the sequence bit for bit. If a change here is
// INTENTIONAL, regenerate the table from the failure message and say why in
// the changelog.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "support/distributions.hpp"
#include "support/prng.hpp"
#include "svc/instance_state.hpp"
#include "svc/warm_start.hpp"
#include "utility/generator.hpp"

namespace aa::svc {
namespace {

constexpr util::Resource kCapacity = 64;
constexpr std::size_t kServers = 3;
constexpr int kRounds = 60;

util::UtilityPtr random_utility(support::Rng& rng) {
  support::DistributionParams dist;  // Section VII uniform H.
  return util::generate_utility(kCapacity, dist, rng);
}

/// FNV-1a over the served placement: server index and allocation bits.
std::uint64_t assignment_digest(const core::Assignment& assignment) {
  std::uint64_t hash = 14695981039346656037ull;
  const auto mix = [&](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xffu;
      hash *= 1099511628211ull;
    }
  };
  for (std::size_t i = 0; i < assignment.size(); ++i) {
    mix(assignment.server[i]);
    mix(std::bit_cast<std::uint64_t>(assignment.alloc[i]));
  }
  return hash;
}

std::string describe(const ServiceSolveResult& solved) {
  char line[96];
  std::snprintf(line, sizeof line, "%s %zu %016llx %016llx %d",
                solve_path_name(solved.path), solved.migrations,
                static_cast<unsigned long long>(
                    std::bit_cast<std::uint64_t>(solved.result.utility)),
                static_cast<unsigned long long>(
                    assignment_digest(solved.result.assignment)),
                solved.certificate.ok() ? 1 : 0);
  return line;
}

/// One seeded stream: every round applies 0-5 deltas (adds, removes,
/// mild or aggressive drift, the odd re-add of an existing utility so
/// identical threads tie, the odd capacity-slice change), then solves,
/// forcing the full path now and then.
std::vector<std::string> run_stream(std::uint64_t seed, int rounds) {
  support::Rng rng(seed);
  InstanceState state(kServers, kCapacity);
  for (int i = 0; i < 10; ++i) (void)state.add_thread(random_utility(rng));
  WarmStartSolver solver;
  std::vector<std::string> lines;
  for (int round = 0; round < rounds; ++round) {
    const std::size_t deltas = rng.uniform_below(6);
    for (std::size_t d = 0; d < deltas; ++d) {
      const double dice = rng.uniform01();
      if (state.num_threads() < 3 || dice < 0.15) {
        (void)state.add_thread(random_utility(rng));
        continue;
      }
      const std::size_t pick = rng.uniform_below(state.num_threads());
      const ThreadId id = state.threads()[pick].first;
      if (dice < 0.22) {
        (void)state.add_thread(state.threads()[pick].second);
      } else if (dice < 0.32) {
        (void)state.remove_thread(id);
      } else if (dice < 0.36) {
        state.set_solve_capacity(kCapacity - 8 + static_cast<util::Resource>(
                                                     rng.uniform_below(9)));
      } else if (dice < 0.8) {
        (void)state.scale_utility(id, 0.95 + 0.1 * rng.uniform01());
      } else {
        (void)state.scale_utility(id, 0.5 + 1.5 * rng.uniform01());
      }
    }
    const bool force_full = rng.uniform01() < 0.08;
    lines.push_back(describe(solver.solve(state, force_full)));
  }
  return lines;
}

std::string joined(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& line : lines) out += "    \"" + line + "\",\n";
  return out;
}

void expect_golden(std::uint64_t seed,
                   const std::vector<std::string>& golden) {
  const std::vector<std::string> actual = run_stream(seed, kRounds);
  EXPECT_EQ(actual, golden) << "seed " << seed << " actual sequence:\n"
                            << joined(actual);
}

TEST(WarmStartGolden, Seed7) {
  expect_golden(7, {
      "full 0 40161be4d158fe8b 2af09c494e0a56ab 1",
      "full 0 40161be4d158fe8b 2af09c494e0a56ab 1",
      "warm 0 401409e72e9b55e6 cd3bc363d82b3d99 1",
      "warm 0 4014efbce0ba920e 2d09137dd3c252c8 1",
      "cached 0 4014efbce0ba920e 2d09137dd3c252c8 1",
      "cached 0 4014efbce0ba920e 2d09137dd3c252c8 1",
      "warm 0 4014d047ac679ccb d2e8eeb2f7d3e7e5 1",
      "warm 0 4014b8851fab2fd3 a346f58cab97ddda 1",
      "warm 0 401502fc1c18ebf0 877a72f0ff572e3d 1",
      "warm 0 40152c5bce3243ee f1f8dcc81feef23d 1",
      "full 12 4015b5df9ed337ec 2070a32f92289fee 1",
      "warm 0 4015d630103c21d2 e5b5aae54a09d1cd 1",
      "warm 0 4015d630103c21d2 a9bb69b124fa7d0d 1",
      "warm 0 401659f8319d8661 4d4df971e38c2ee4 1",
      "warm 0 4016c89fac7a981c c09eb0e150e04e3b 1",
      "warm 0 4016beaab30c4eac 0ebb268e81e7e71d 1",
      "warm 0 401641a9a37fae3e f48095b6b9e915e5 1",
      "warm 0 401621db99f21eb9 e978f702b19e8d40 1",
      "full 7 40165f2e47756d35 6fbe152dcc1e47ee 1",
      "warm 0 4015d893d60fcf17 ddc979c6f2ff0da9 1",
      "warm 0 4015c347a3dd27a0 ae1964ce193b9f34 1",
      "full 15 40160bc767fe0998 e9b8b0a01d26a7ac 1",
      "warm 0 40160bc767fe0998 e9b8b0a01d26a7ac 1",
      "warm 0 401610fd302af23d 9c05d61f27da79e8 1",
      "cached 0 401610fd302af23d 9c05d61f27da79e8 1",
      "warm 0 4015f07b21d58794 68f8c9d941833dba 1",
      "warm 0 4017b3705e4f6966 f34f359f07b26654 1",
      "warm 0 4016d13e1c855fd8 a1985f3e0ceab6f0 1",
      "full 7 4016cf5ec7561524 f4b31d701698879e 1",
      "cached 0 4016cf5ec7561524 f4b31d701698879e 1",
      "cached 0 4016cf5ec7561524 f4b31d701698879e 1",
      "warm 0 4016cf5ec7561524 f4b31d701698879e 1",
      "warm 0 40183475552b1dee d49d689e8802f112 1",
      "cached 0 40183475552b1dee d49d689e8802f112 1",
      "warm 0 401806817356302a e5dd90539e387f79 1",
      "full 18 401b0023400945b2 284e4a33d8937e99 1",
      "cached 0 401b0023400945b2 284e4a33d8937e99 1",
      "warm 0 401c2ac74d89c18b e83606f5be40fc40 1",
      "full 3 4019c16cfc40d95d 33e9e8827c21ed7e 1",
      "cached 0 4019c16cfc40d95d 33e9e8827c21ed7e 1",
      "full 14 4019c03c488f8b3c 74759a7d720090f2 1",
      "warm 0 4019d30b8f060202 eaf075c3de7b35e0 1",
      "full 11 4019d2f6f9054f37 03fee0d3c3f10445 1",
      "warm 0 4019d2f6f9054f37 03fee0d3c3f10445 1",
      "warm 0 4019cefd254880a8 822fbc8128ee1c6d 1",
      "warm 0 4019b5fd30197397 912643cdecce1132 1",
      "cached 0 4019b5fd30197397 912643cdecce1132 1",
      "cached 0 4019b5fd30197397 912643cdecce1132 1",
      "warm 0 40199327d7ac4e27 4d31676339532bd7 1",
      "warm 0 40195c57decdd4b0 98d65c62d42decd3 1",
      "warm 0 4018ef45758a8055 d4ba05ac9e39105b 1",
      "cached 0 4018ef45758a8055 d4ba05ac9e39105b 1",
      "full 15 40192d20e5ff5de8 b9ec34483846437a 1",
      "warm 0 40192d20e5ff5de8 2871af7a8a41aa3b 1",
      "warm 0 4019b8e0f340a1ab c911417afa28e9e2 1",
      "warm 0 4019adfc5e845806 368a3ea421fe9e72 1",
      "warm 0 401ce2345f9b01ba eb3cbfc328d730af 1",
      "warm 0 401d3e0ed0debea7 1614af3df9ca56c0 1",
      "full 20 401d6f3cc242c955 f0b6f9c2dcbf75db 1",
      "cached 0 401d6f3cc242c955 f0b6f9c2dcbf75db 1",
  });
}

TEST(WarmStartGolden, Seed2016) {
  expect_golden(2016, {
      "full 0 4014c30c205ddca1 333a8d792e1d7299 1",
      "warm 0 4014c49d84b0669a f1db24fa2876d6da 1",
      "warm 0 40183a3666010f8b 92e931792208b658 1",
      "warm 0 401830d351f2d36d 92e931792208b658 1",
      "warm 0 4014654825f88a53 694df3549fe6d001 1",
      "warm 0 4019fd09d00c39f6 d75a2e7603fc9b18 1",
      "cached 0 4019fd09d00c39f6 d75a2e7603fc9b18 1",
      "warm 0 401a1326f05a198a 0b8d59dfff1728de 1",
      "warm 0 4018b0e609292202 cfc35c9bbbd75d2f 1",
      "cached 0 4018b0e609292202 cfc35c9bbbd75d2f 1",
      "full 5 401aace9c8cb8346 031282ee73c9a9e9 1",
      "warm 0 401aace9c8cb8346 38cdd5cd7629e3e8 1",
      "full 0 401aace9c8cb8346 38cdd5cd7629e3e8 1",
      "full 0 401aace9c8cb8346 38cdd5cd7629e3e8 1",
      "warm 0 401e38329afee9d0 38cdd5cd7629e3e8 1",
      "warm 0 401f0d885f397979 6e8a2d409ae2837d 1",
      "warm 0 402158d363ce7dee 359f2991b49410bc 1",
      "warm 0 40215b98eb82242e b9c332560da6f216 1",
      "full 8 402165377d4193a6 ade0ed00fbb7d177 1",
      "warm 0 40216d5278abacc4 ade0ed00fbb7d177 1",
      "warm 0 4021b6e7582a59bc fe8d6099aaf0d8b7 1",
      "warm 0 4021f3848a9e0497 837488ab140a6c00 1",
      "full 2 4021f489ec0f58bf 2624e3681580ea02 1",
      "warm 0 402183f58ae9eb35 01c5b8d83d1247a0 1",
      "warm 0 402180482fe0eb56 6240eca6b22e793f 1",
      "warm 0 4021e447c59470c6 9a46be66accaebd6 1",
      "warm 0 402292d9f2b39458 2f90e19f5dd579a9 1",
      "cached 0 402292d9f2b39458 2f90e19f5dd579a9 1",
      "warm 0 40228a21d0837ae3 3fba26249e96d777 1",
      "warm 0 4022bd000778e8e0 16e7f352907f2d33 1",
      "full 10 4022bd000778e8e0 fe83f5abc5cdc973 1",
      "warm 0 4022bf5b582e1757 9a2de655a6d87ac8 1",
      "warm 0 4024d945eff0a612 74f1422f07bac223 1",
      "full 8 402523216bd01a7f 90cd8c7ed1cc612a 1",
      "warm 0 4027f7a5b36fd58c d8a64ba884729baa 1",
      "warm 0 402ad1f8cd57cb24 f559b952a3aa7d7e 1",
      "warm 0 402cb9c564ec86c8 08781d2420ce75ac 1",
      "warm 0 402c49232762aca9 3d8207d96c80a162 1",
      "cached 0 402c49232762aca9 3d8207d96c80a162 1",
      "warm 0 40250f85ccf9b0dd cd0c798456e035e8 1",
      "warm 0 40250f85ccf9b0dd 75a32c63b8036fe8 1",
      "cached 0 40250f85ccf9b0dd 75a32c63b8036fe8 1",
      "full 20 4025bd63bbe3c59b 8af23fbde29caef8 1",
      "full 0 4025bd63bbe3c59b 8af23fbde29caef8 1",
      "cached 0 4025bd63bbe3c59b 8af23fbde29caef8 1",
      "cached 0 4025bd63bbe3c59b 8af23fbde29caef8 1",
      "warm 0 402647dbe559382b bbafd991bdbb253a 1",
      "warm 0 40264de189a14754 228d2bcf8e9497e2 1",
      "warm 0 4027637837c8ea22 acdadc375da47fa2 1",
      "warm 0 4027492061264760 393a68ddb74cd419 1",
      "full 7 4027779e1d0190e5 fd82e2e6afae40a9 1",
      "warm 0 40276bf262c84e1d b5c576a8eb07840f 1",
      "warm 0 40265b7bf0ea2153 9efedf5b4a81ac55 1",
      "cached 0 40265b7bf0ea2153 9efedf5b4a81ac55 1",
      "cached 0 40265b7bf0ea2153 9efedf5b4a81ac55 1",
      "warm 0 40285ece9eb14bfa c2f08f374436087a 1",
      "cached 0 40285ece9eb14bfa c2f08f374436087a 1",
      "warm 0 40285df85f0aa967 8dafa3c77c0b76ec 1",
      "warm 0 4027d001bdfdc2b6 c6066d6beea80f31 1",
      "warm 0 4027d001bdfdc2b6 c6066d6beea80f31 1",
  });
}

}  // namespace
}  // namespace aa::svc
