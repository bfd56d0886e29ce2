#include "util.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double NowMs() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  if (std::isinf(values[lo]) || std::isinf(values[hi])) {
    return frac < 0.5 ? values[lo] : values[hi];
  }
  return values[lo] + frac * (values[hi] - values[lo]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double HostReferenceMs() {
  const double start = NowMs();
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  double acc = 0.0;
  for (int i = 0; i < (1 << 21); ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += std::sqrt(static_cast<double>(x >> 11));
  }
  volatile double sink = acc;
  (void)sink;
  return NowMs() - start;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

void Digest::Add(const std::string& text) {
  for (unsigned char c : text) {
    hash_ ^= c;
    hash_ *= 0x100000001b3ULL;
  }
  hash_ ^= 0xff;  // Field separator: "ab"+"c" differs from "a"+"bc".
  hash_ *= 0x100000001b3ULL;
}

void Digest::Add(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  Add(std::string(buf));
}

void Digest::Add(long long value) { Add(std::to_string(value)); }

std::string Digest::Hex() const {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash_));
  return buf;
}

void MetricSet::Set(const std::string& name, double value,
                    const std::string& unit, const std::string& note) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m = Metric{name, value, unit, note};
      return;
    }
  }
  metrics_.push_back(Metric{name, value, unit, note});
}

std::string MetricSet::Table() const {
  std::size_t width = 0;
  for (const Metric& m : metrics_) width = std::max(width, m.name.size());
  std::string out;
  for (const Metric& m : metrics_) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.6g", m.value);
    out += "  " + m.name + std::string(width + 2 - m.name.size(), ' ') +
           value + " " + m.unit;
    if (!m.note.empty()) out += "   (" + m.note + ")";
    out += "\n";
  }
  return out;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace perfbench
