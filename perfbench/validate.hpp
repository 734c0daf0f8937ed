#pragma once

// Reply validation. A failure is an error reply, a missing or unparseable
// reply, an unmatched tag, a predicted id or thread set the reply does not
// match, certificate_ok=false, or an achieved_ratio outside
// [0.828, 1 + 1e-9].

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "workload.hpp"

namespace perfbench {

/// What a valid solve reply reported.
struct SolveReply {
  double utility = 0.0;
  double achieved_ratio = 0.0;
  double migrations = 0.0;
  std::string path;
};

class Validator {
 public:
  explicit Validator(long capacity) : capacity_(capacity) {}

  /// Checks one reply; a solve reply's figures go to `solve` when given.
  /// Returns an empty string when valid, else the reason.
  [[nodiscard]] std::string check(const Request& request,
                                  const std::string& reply,
                                  SolveReply* solve = nullptr) const;

  /// check() with bookkeeping: counts the failure and keeps the first
  /// few reasons for stderr.
  bool record(const Request& request, const std::string& reply,
              SolveReply* solve = nullptr);

  [[nodiscard]] std::size_t failures() const noexcept { return failures_; }
  [[nodiscard]] const std::vector<std::string>& samples() const noexcept {
    return samples_;
  }

 private:
  long capacity_;
  std::size_t failures_ = 0;
  std::vector<std::string> samples_;
};

/// FNV-1a over the solve utilities, printed with all 17 digits.
class Digest {
 public:
  void add(double utility);
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }
  [[nodiscard]] std::size_t count() const noexcept { return count_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ull;
  std::size_t count_ = 0;
};

}  // namespace perfbench
