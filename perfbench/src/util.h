#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Milliseconds on the steady clock since an arbitrary process-wide origin.
double NowMs();

/// Linear-interpolated percentile (q in [0, 100]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}
double Mean(const std::vector<double>& values);
/// Geometric mean of positive values; 0 when empty.
double GeoMean(const std::vector<double>& values);

/// Wall time of a fixed single-threaded scalar loop that calls no library
/// code: a gauge of the host's speed at that moment, so a run's figures can
/// be read against host drift.
double HostReferenceMs();

/// Peak resident set size of this process in MB (getrusage ru_maxrss).
double PeakRssMb();

/// FNV-1a 64-bit digest for the determinism checks. Timing never enters.
class Digest {
 public:
  void Add(const std::string& text);
  void Add(double value);  ///< Hashes the exact "%.17g" rendering.
  void Add(long long value);
  std::uint64_t value() const { return hash_; }
  std::string Hex() const;

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// One reported number: every metric carries an explicit unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< Human-readable provenance (not in the JSON line).
};

class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit,
           const std::string& note = "");
  const std::vector<Metric>& All() const { return metrics_; }
  /// Aligned "name  value unit  note" table.
  std::string Table() const;

 private:
  std::vector<Metric> metrics_;
};

/// Renders a double with all its digits for the JSON result line.
std::string JsonNumber(double value);
std::string JsonString(const std::string& text);

}  // namespace perfbench
