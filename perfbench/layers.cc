#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <tuple>
#include <unordered_map>

namespace perfbench {
namespace {

/// The layer a span name belongs to.
const char* LayerOfSpan(const std::string& name) {
  if (name == "session") return kLayerUnattributed;
  if (name == "round" || name == "batch" || name == "trial") {
    return "core.trial";
  }
  if (name == "measure" || name == "default_measure" || name == "retry" ||
      name == "remeasure") {
    return "systems.measure";
  }
  if (name == "journal_append") return "core.journal.append";
  if (name == "gp_fit") return "ml.gp_fit";
  if (name == "acquisition") return "ml.acquisition";
  return "other";
}

}  // namespace

void LayerProfile::Add(const std::vector<atune::SpanRecord>& spans,
                       double call_wall_s) {
  wall_s_ += call_wall_s;
  std::unordered_map<uint64_t, size_t> index;
  for (size_t i = 0; i < spans.size(); ++i) {
    index[spans[i].id] = i;
    ++spans_[spans[i].name];
  }
  // Depth = number of ancestors present in the snapshot.
  std::vector<int> depth(spans.size(), -1);
  for (size_t i = 0; i < spans.size(); ++i) {
    std::vector<size_t> chain;
    size_t cur = i;
    int base = 0;
    while (true) {
      if (depth[cur] >= 0) {
        base = depth[cur];
        break;
      }
      chain.push_back(cur);
      auto parent = index.find(spans[cur].parent_id);
      if (spans[cur].parent_id == 0 || parent == index.end()) {
        base = -1;
        break;
      }
      cur = parent->second;
    }
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      depth[*it] = ++base;
    }
  }

  struct Event {
    uint64_t t;
    bool begin;
    size_t span;
  };
  std::vector<Event> events;
  double session_s = 0.0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const atune::SpanRecord& s = spans[i];
    if (s.end_ns <= s.start_ns) continue;  // synthesized replay spans
    events.push_back({s.start_ns, true, i});
    events.push_back({s.end_ns, false, i});
    if (s.name == "session") session_s += (s.end_ns - s.start_ns) * 1e-9;
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    return a.t < b.t;
  });

  std::vector<size_t> active;
  auto innermost = [&]() {
    return *std::max_element(
        active.begin(), active.end(), [&](size_t a, size_t b) {
          return std::make_tuple(depth[a], spans[a].start_ns, spans[a].id) <
                 std::make_tuple(depth[b], spans[b].start_ns, spans[b].id);
        });
  };
  uint64_t prev = events.empty() ? 0 : events.front().t;
  for (size_t e = 0; e < events.size();) {
    uint64_t t = events[e].t;
    if (!active.empty() && t > prev) {
      self_s_[LayerOfSpan(spans[innermost()].name)] += (t - prev) * 1e-9;
    }
    for (; e < events.size() && events[e].t == t; ++e) {
      if (events[e].begin) {
        active.push_back(events[e].span);
      } else {
        active.erase(std::find(active.begin(), active.end(), events[e].span));
      }
    }
    prev = t;
  }
  self_s_[kLayerJournalOpen] += std::max(0.0, call_wall_s - session_s);
}

double LayerProfile::self_s(const std::string& layer) const {
  auto it = self_s_.find(layer);
  return it == self_s_.end() ? 0.0 : it->second;
}

uint64_t LayerProfile::spans(const std::string& name) const {
  auto it = spans_.find(name);
  return it == spans_.end() ? 0 : it->second;
}

std::string LayerProfile::Table() const {
  std::vector<std::pair<double, std::string>> rows;
  for (const auto& [layer, s] : self_s_) rows.push_back({s, layer});
  std::sort(rows.rbegin(), rows.rend());
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line), "  %-22s %12s %8s\n", "layer", "self_s",
                "share");
  out += line;
  for (const auto& [s, layer] : rows) {
    std::snprintf(line, sizeof(line), "  %-22s %12.6f %7.2f%%\n",
                  layer.c_str(), s, wall_s_ > 0 ? 100.0 * s / wall_s_ : 0.0);
    out += line;
  }
  std::snprintf(line, sizeof(line), "  %-22s %12.6f %7.2f%%\n", "(call wall)",
                wall_s_, 100.0);
  out += line;
  return out;
}

}  // namespace perfbench
