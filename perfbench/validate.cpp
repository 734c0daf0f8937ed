#include "validate.hpp"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <vector>

#include "support/json.hpp"

namespace perfbench {

namespace {

constexpr double kAlpha = 0.828;
constexpr double kRatioSlack = 1e-9;
constexpr std::size_t kMaxSamples = 5;

}  // namespace

std::string Validator::check(const Request& request, const std::string& reply,
                             SolveReply* solve) const {
  if (reply.empty()) return "no reply";
  aa::support::JsonValue node;
  try {
    node = aa::support::json_parse(reply);
  } catch (const std::exception& error) {
    return std::string("unparseable reply: ") + error.what();
  }
  try {
    const aa::support::JsonValue* tag = node.find("tag");
    if (tag == nullptr || tag->as_string() != request.tag) {
      return "unmatched tag";
    }
    if (!node.at("ok").as_bool()) {
      const aa::support::JsonValue* code = node.find("code");
      return "error reply " + (code != nullptr ? code->as_string() : "?");
    }
    switch (request.kind) {
      case Kind::kAdd:
      case Kind::kUpdate:
      case Kind::kRemove:
        if (static_cast<std::uint64_t>(node.at("id").as_int()) != request.id) {
          return "id differs from the predicted id";
        }
        return {};
      case Kind::kScrape:
        if (node.at("body").as_string().find("aa_uptime_seconds") ==
            std::string::npos) {
          return "metrics body without aa_uptime_seconds";
        }
        return {};
      case Kind::kTenantAdmin:
        return {};
      case Kind::kSolve:
        break;
    }
    if (!node.at("certificate_ok").as_bool()) return "certificate_ok=false";
    const double ratio = node.at("achieved_ratio").as_number();
    if (!(ratio >= kAlpha && ratio <= 1.0 + kRatioSlack)) {
      return "achieved_ratio outside [0.828, 1+1e-9]";
    }
    const auto& assignment = node.at("assignment").as_array();
    std::vector<double> load;
    std::vector<std::uint64_t> ids;
    ids.reserve(assignment.size());
    for (const aa::support::JsonValue& entry : assignment) {
      const auto server = static_cast<std::size_t>(entry.at("server").as_int());
      if (server >= load.size()) load.resize(server + 1, 0.0);
      load[server] += entry.at("alloc").as_number();
      ids.push_back(static_cast<std::uint64_t>(entry.at("id").as_int()));
    }
    for (const double units : load) {
      if (units > static_cast<double>(capacity_) + 1e-6) {
        return "server over capacity";
      }
    }
    if (request.live != nullptr) {
      std::vector<std::uint64_t> want = *request.live;
      std::sort(want.begin(), want.end());
      std::sort(ids.begin(), ids.end());
      if (ids != want) return "assigned threads differ from the live set";
    }
    if (solve != nullptr) {
      solve->utility = node.at("utility").as_number();
      solve->achieved_ratio = ratio;
      solve->migrations = node.at("migrations").as_number();
      solve->path = node.at("path").as_string();
    }
    return {};
  } catch (const std::exception& error) {
    return std::string("malformed reply: ") + error.what();
  }
}

bool Validator::record(const Request& request, const std::string& reply,
                       SolveReply* solve) {
  const std::string reason = check(request, reply, solve);
  if (reason.empty()) return true;
  ++failures_;
  if (samples_.size() < kMaxSamples) {
    samples_.push_back(request.tag + " (" + kind_name(request.kind) +
                       "): " + reason);
  }
  return false;
}

void Digest::add(double utility) {
  char buf[40];
  const int n = std::snprintf(buf, sizeof buf, "%.17g;", utility);
  for (int i = 0; i < n; ++i) {
    hash_ ^= static_cast<unsigned char>(buf[i]);
    hash_ *= 1099511628211ull;
  }
  ++count_;
}

}  // namespace perfbench
