#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "hylo/common/check.hpp"

namespace perfbench {

double median(std::vector<double> samples) {
  const std::size_t n = samples.size();
  if (n == 0) return std::numeric_limits<double>::quiet_NaN();
  const auto mid = samples.begin() + static_cast<std::ptrdiff_t>(n / 2);
  std::nth_element(samples.begin(), mid, samples.end());
  if (n % 2 == 1) return *mid;
  const double upper = *mid;
  const double lower = *std::max_element(samples.begin(), mid);
  return 0.5 * (lower + upper);
}

Tail tail(std::vector<double> samples) {
  Tail t;
  t.samples = samples.size();
  if (samples.empty()) {
    t.value = std::numeric_limits<double>::quiet_NaN();
    return t;
  }
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  // Ladder in per-mille so the rank arithmetic stays exact in integers.
  for (const std::size_t permille : {999u, 990u, 950u, 900u, 750u, 500u}) {
    const std::size_t rank = (permille * n + 999) / 1000;  // ceil, 1-based
    if (n - rank >= kTailBeyond) {
      t.value = samples[rank - 1];
      t.percentile = static_cast<double>(permille) / 10.0;
      t.beyond = n - rank;
      return t;
    }
  }
  t.value = samples.back();
  return t;
}

void MetricSet::add(const std::string& name, double value,
                    const std::string& unit, hylo::obs::Json extra) {
  using hylo::obs::Json;
  HYLO_CHECK(std::isfinite(value), "metric " << name << " is not finite");
  result.set(name, Json::object().set("value", value).set("unit", unit));
  extra.set("value", value).set("unit", unit);
  detail.set(name, std::move(extra));
}

void MetricSet::add_p50(const std::string& name,
                        const std::vector<double>& samples,
                        const std::string& unit) {
  add(name, median(samples), unit,
      hylo::obs::Json::object().set(
          "samples", static_cast<std::int64_t>(samples.size())));
}

void MetricSet::add_tail(const std::string& name,
                         const std::vector<double>& samples,
                         const std::string& unit) {
  const Tail t = tail(samples);
  add(name, t.value, unit,
      hylo::obs::Json::object()
          .set("samples", static_cast<std::int64_t>(t.samples))
          .set("percentile", t.percentile)
          .set("beyond", static_cast<std::int64_t>(t.beyond)));
}

}  // namespace perfbench
