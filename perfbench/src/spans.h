#pragma once

#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// One benchmark-side span around a call into a library layer.
struct Span {
  std::string name;  ///< Layer row, e.g. "mqo.encode" or "anneal.sa".
  double start_ms = 0.0;
  double end_ms = 0.0;
  int parent = -1;    ///< Index of the enclosing span, -1 at the root.
  int instance = -1;  ///< Benchmark instance the span worked on.
};

/// In-memory span store, written out once at the end of the traced run.
/// Thread-safe: decomposition blocks open spans from pool workers and name
/// their parent explicitly.
class SpanRecorder {
 public:
  int Begin(const std::string& name, int parent, int instance);
  void End(int id);
  std::vector<Span> Spans() const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span; a null recorder records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const std::string& name, int parent,
             int instance);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  int id_ = -1;
};

/// Per-layer totals: self time is a span's duration minus the part of its
/// interval covered by its children (parallel children counted once).
struct LayerTime {
  double self_ms = 0.0;
  double wall_ms = 0.0;
  long long count = 0;
};
using LayerTimes = std::map<std::string, LayerTime>;

LayerTimes AggregateLayers(const std::vector<Span>& spans);

/// Wall-clock attribution per layer: every instant of a root span's
/// interval is credited to the innermost spans open at that instant, split
/// evenly when several run in parallel (pool-parallel decomposition
/// blocks), so the credits of one tree sum to its root's duration.
std::map<std::string, double> WallAttribution(const std::vector<Span>& spans);

/// Layers whose self time in `candidate` exceeds `baseline` by more than
/// `tolerance` (relative) and by more than `min_share` of the baseline's
/// total self time. Sorted by name.
std::vector<std::string> RegressedLayers(const LayerTimes& baseline,
                                         const LayerTimes& candidate,
                                         double tolerance, double min_share);

/// Self-test of the attribution: for every layer of a synthetic solve
/// trace, doubling that layer's spans must flag that layer and only it.
/// Returns an empty string on success, else what went wrong.
std::string AttributionSelfTest();

/// Writes spans plus, per layer, its busy self time, its wall attribution
/// and its share of the attributed wall time, as JSON.
bool WriteSpanFile(const std::string& path, const std::vector<Span>& spans,
                   const LayerTimes& layers);

}  // namespace perfbench
