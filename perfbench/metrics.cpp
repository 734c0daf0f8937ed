#include "metrics.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>
#include <stdexcept>

#include "support/json.hpp"

namespace perfbench {

std::string result_line(bool correct, std::size_t attempted,
                        std::size_t failed, const Values& values,
                        bool per_layer) {
  const std::span<const MetricSpec> specs =
      per_layer ? std::span<const MetricSpec>(kPerLayer)
                : std::span<const MetricSpec>(kEndToEnd);
  aa::support::JsonValue metrics;
  for (const MetricSpec& spec : specs) {
    const auto it = values.find(spec.name);
    if (it == values.end()) {
      throw std::logic_error(std::string("metric not measured: ") +
                             spec.name);
    }
    aa::support::JsonValue metric;
    metric.set("value", std::isfinite(it->second) ? it->second : 0.0);
    metric.set("unit", spec.unit);
    metrics.set(spec.name, std::move(metric));
  }
  aa::support::JsonValue line;
  line.set("correct", correct);
  line.set("attempted", attempted);
  line.set("failed", failed);
  line.set("metrics", std::move(metrics));
  return line.dump();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

}  // namespace perfbench
