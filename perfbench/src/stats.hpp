#pragma once
/// \file stats.hpp
/// Order statistics the benchmark reports — the median and the tail rule
/// (the highest percentile of a fixed ladder that still has at least ten
/// samples beyond it) — and the metric set that carries each value with its
/// unit and the sample count it rests on.

#include <cstddef>
#include <string>
#include <vector>

#include "hylo/obs/json.hpp"

namespace perfbench {

/// Median (mean of the two middle values for an even count). NaN when
/// `samples` is empty.
double median(std::vector<double> samples);

/// Minimum samples a tail percentile must leave beyond it.
inline constexpr std::size_t kTailBeyond = 10;

struct Tail {
  double value = 0.0;
  /// The percentile reported (99.9, 99, 95, 90, 75 or 50), or 100 (the
  /// maximum) when fewer than 20 samples leave no ladder entry with ten
  /// samples beyond it.
  double percentile = 100.0;
  std::size_t beyond = 0;   ///< samples strictly after it in sorted order
  std::size_t samples = 0;
};

/// Tail by the rule above, with nearest-rank percentiles: the value at
/// 1-based rank ceil(p/100 · n) of the sorted samples. Empty input gives a
/// NaN value with zero samples.
Tail tail(std::vector<double> samples);

/// Metrics of one run: `result` holds {name: {value, unit}} for the result
/// line; `detail` the same plus what each value rests on (sample count, and
/// for tails the percentile and the samples beyond it) for the run record.
struct MetricSet {
  hylo::obs::Json result = hylo::obs::Json::object();
  hylo::obs::Json detail = hylo::obs::Json::object();

  /// Throws hylo::Error on a non-finite value.
  void add(const std::string& name, double value, const std::string& unit,
           hylo::obs::Json extra = hylo::obs::Json::object());
  /// Median of `samples`.
  void add_p50(const std::string& name, const std::vector<double>& samples,
               const std::string& unit);
  /// tail() of `samples`.
  void add_tail(const std::string& name, const std::vector<double>& samples,
                const std::string& unit);
};

}  // namespace perfbench
