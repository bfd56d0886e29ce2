#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <utility>

#include "util.h"

namespace perfbench {

int SpanRecorder::Begin(const std::string& name, int parent, int instance) {
  const double now = NowMs();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, now, now, parent, instance});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanRecorder::End(int id) {
  const double now = NowMs();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end_ms = now;
}

std::vector<Span> SpanRecorder::Spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

ScopedSpan::ScopedSpan(SpanRecorder* recorder, const std::string& name,
                       int parent, int instance)
    : recorder_(recorder) {
  if (recorder_ != nullptr) id_ = recorder_->Begin(name, parent, instance);
}

ScopedSpan::~ScopedSpan() {
  if (recorder_ != nullptr) recorder_->End(id_);
}

namespace {

std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].push_back(
          {s.start_ms, s.end_ms});
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    double covered = 0.0;
    double reach = s.start_ms;
    for (auto [lo, hi] : intervals) {
      lo = std::max(lo, reach);
      hi = std::min(hi, s.end_ms);
      if (hi > lo) {
        covered += hi - lo;
        reach = hi;
      }
    }
    self[i] = std::max(0.0, (s.end_ms - s.start_ms) - covered);
  }
  return self;
}

}  // namespace

LayerTimes AggregateLayers(const std::vector<Span>& spans) {
  const std::vector<double> self = SelfTimes(spans);
  LayerTimes layers;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    LayerTime& t = layers[spans[i].name];
    t.self_ms += self[i];
    t.wall_ms += spans[i].end_ms - spans[i].start_ms;
    ++t.count;
  }
  return layers;
}

std::map<std::string, double> WallAttribution(const std::vector<Span>& spans) {
  // Boundary events; at each elementary interval the open spans without an
  // open child share the interval.
  std::vector<std::pair<double, int>> events;  // (time, +1/-1 * (id + 1))
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const int tag = static_cast<int>(i) + 1;
    events.push_back({spans[i].start_ms, tag});
    events.push_back({spans[i].end_ms, -tag});
  }
  std::sort(events.begin(), events.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first < b.first : a.second < b.second;
  });
  std::vector<int> open_children(spans.size(), 0);
  std::vector<char> open(spans.size(), 0);
  std::vector<int> leaves;  // Open spans with no open child.
  std::map<std::string, double> credit;
  double last = events.empty() ? 0.0 : events.front().first;
  for (const auto& [time, tag] : events) {
    if (time > last && !leaves.empty()) {
      const double share = (time - last) / static_cast<double>(leaves.size());
      for (int leaf : leaves) {
        credit[spans[static_cast<std::size_t>(leaf)].name] += share;
      }
    }
    last = time;
    const auto id = static_cast<std::size_t>(std::abs(tag) - 1);
    const int parent = spans[id].parent;
    const std::size_t up = parent >= 0 ? static_cast<std::size_t>(parent) : 0;
    const bool parent_open = parent >= 0 && open[up];
    auto erase = [&](int x) {
      leaves.erase(std::remove(leaves.begin(), leaves.end(), x), leaves.end());
    };
    if (tag > 0) {
      open[id] = 1;
      leaves.push_back(static_cast<int>(id));
      if (parent_open && open_children[up]++ == 0) erase(parent);
    } else {
      open[id] = 0;
      erase(static_cast<int>(id));
      if (parent_open && --open_children[up] == 0) leaves.push_back(parent);
    }
  }
  return credit;
}

std::vector<std::string> RegressedLayers(const LayerTimes& baseline,
                                         const LayerTimes& candidate,
                                         double tolerance, double min_share) {
  double total = 0.0;
  for (const auto& [name, t] : baseline) total += t.self_ms;
  std::vector<std::string> flagged;
  for (const auto& [name, t] : candidate) {
    const auto it = baseline.find(name);
    const double base = it == baseline.end() ? 0.0 : it->second.self_ms;
    const double growth = t.self_ms - base;
    if (growth > tolerance * base && growth > min_share * total) {
      flagged.push_back(name);
    }
  }
  return flagged;
}

namespace {

/// One synthetic solve: the facade span wraps encode, kernel (with two
/// reads inside) and decode, with a slice of dispatch self time between.
/// `doubled` names the layer whose spans take twice as long.
std::vector<Span> SyntheticSolve(const std::string& doubled) {
  struct Step {
    const char* name;
    double self;
  };
  const Step steps[] = {{"io.parse", 0.5},   {"mqo.encode", 2.0},
                        {"anneal.sa", 3.0},  {"anneal.read", 4.0},
                        {"mqo.decode", 0.7}, {"core.facade", 1.5}};
  auto self_of = [&](const std::string& name) {
    for (const Step& s : steps) {
      if (name == s.name) return name == doubled ? 2.0 * s.self : s.self;
    }
    return 0.0;
  };
  std::vector<Span> spans;
  double t = 0.0;
  for (int op = 0; op < 3; ++op) {
    spans.push_back(Span{"io.parse", t, t + self_of("io.parse"), -1, op});
    t += self_of("io.parse");
    const int facade = static_cast<int>(spans.size());
    spans.push_back(Span{"core.facade", t, 0.0, -1, op});
    const double dispatch = self_of("core.facade");
    t += dispatch / 2;
    spans.push_back(Span{"mqo.encode", t, t + self_of("mqo.encode"), facade,
                         op});
    t += self_of("mqo.encode");
    const int kernel = static_cast<int>(spans.size());
    spans.push_back(Span{"anneal.sa", t, 0.0, facade, op});
    t += self_of("anneal.sa") / 2;
    for (int read = 0; read < 2; ++read) {
      spans.push_back(Span{"anneal.read", t, t + self_of("anneal.read") / 2,
                           kernel, op});
      t += self_of("anneal.read") / 2;
    }
    t += self_of("anneal.sa") / 2;
    spans[static_cast<std::size_t>(kernel)].end_ms = t;
    spans.push_back(Span{"mqo.decode", t, t + self_of("mqo.decode"), facade,
                         op});
    t += self_of("mqo.decode") + dispatch / 2;
    spans[static_cast<std::size_t>(facade)].end_ms = t;
  }
  return spans;
}

}  // namespace

std::string AttributionSelfTest() {
  const LayerTimes baseline = AggregateLayers(SyntheticSolve(""));
  for (const auto& [layer, t] : baseline) {
    const LayerTimes doubled = AggregateLayers(SyntheticSolve(layer));
    const std::vector<std::string> flagged =
        RegressedLayers(baseline, doubled, 0.25, 0.01);
    if (flagged.size() != 1 || flagged[0] != layer) {
      std::string names;
      for (const std::string& f : flagged) names += " " + f;
      return "doubling " + layer + " flagged [" + names + " ]";
    }
  }
  if (!RegressedLayers(baseline, baseline, 0.25, 0.01).empty()) {
    return "an unchanged trace flagged a layer";
  }
  return "";
}

bool WriteSpanFile(const std::string& path, const std::vector<Span>& spans,
                   const LayerTimes& layers) {
  std::ofstream out(path);
  if (!out) return false;
  std::map<std::string, double> wall = WallAttribution(spans);
  double total = 0.0;
  for (const auto& [name, t] : layers) total += wall[name];
  out << "{\"layers\":[";
  bool first = true;
  for (const auto& [name, t] : layers) {
    out << (first ? "" : ",") << "{\"layer\":" << JsonString(name)
        << ",\"self_ms\":" << JsonNumber(t.self_ms)
        << ",\"wall_ms\":" << JsonNumber(t.wall_ms)
        << ",\"wall_attributed_ms\":" << JsonNumber(wall[name])
        << ",\"self_share\":" << JsonNumber(total > 0 ? wall[name] / total : 0)
        << ",\"spans\":" << t.count << "}";
    first = false;
  }
  out << "],\n\"spans\":[\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i == 0 ? "" : ",\n") << "{\"name\":" << JsonString(s.name)
        << ",\"start_ms\":" << JsonNumber(s.start_ms)
        << ",\"end_ms\":" << JsonNumber(s.end_ms) << ",\"parent\":" << s.parent
        << ",\"instance\":" << s.instance << "}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
