#include "telemetry/run_report.h"

#include <algorithm>
#include <fstream>

#include "telemetry/json_util.h"

namespace tango::telemetry {

namespace {

std::string number(double v) {
  std::string s;
  append_number(s, v);
  return s;
}

std::string quoted(const std::string& v) {
  std::string s;
  append_quoted(s, v);
  return s;
}

}  // namespace

void RunReport::set_result(const std::string& key, double v) {
  results_[key] = number(v);
}

void RunReport::set_result(const std::string& key, const std::string& v) {
  results_[key] = quoted(v);
}

RunReport::Row& RunReport::Row::col(const std::string& key, double v) {
  cells_.emplace_back(key, number(v));
  return *this;
}

RunReport::Row& RunReport::Row::col(const std::string& key,
                                    const std::string& v) {
  cells_.emplace_back(key, quoted(v));
  return *this;
}

RunReport::Row& RunReport::add_row(Row row) {
  rows_.push_back(std::move(row));
  return rows_.back();
}

void RunReport::add_metrics(const MetricsRegistry& reg) {
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
  for (const auto& [name, c] : reg.counters()) counters_[name] = c->value();
  for (const auto& [name, g] : reg.gauges()) gauges_[name] = g->value();
  for (const auto& [name, h] : reg.histograms()) {
    HistSnapshot snap;
    snap.bounds = h->bounds();
    snap.counts = h->bucket_counts();
    snap.count = h->count();
    snap.sum = h->sum();
    snap.min = h->min();
    snap.max = h->max();
    histograms_[name] = std::move(snap);
  }
}

void RunReport::add_spans(const TraceCollector& trace,
                          const std::vector<std::string>& cats,
                          std::size_t max_spans) {
  for (const auto& ev : trace.events()) {
    if (spans_.size() >= max_spans) break;
    if (ev.phase != TraceEvent::Phase::kSpan) continue;
    if (!cats.empty() &&
        std::find(cats.begin(), cats.end(), ev.cat) == cats.end()) {
      continue;
    }
    spans_.push_back(ev);
  }
}

std::string RunReport::to_json() const {
  std::string out;
  out += "{\n  \"schema\": \"tango.run_report.v1\",\n  \"name\": ";
  append_quoted(out, name_);

  out += ",\n  \"results\": {";
  bool first = true;
  for (const auto& [k, v] : results_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    append_quoted(out, k);
    out += ": " + v;
  }
  out += first ? "}" : "\n  }";

  out += ",\n  \"rows\": [";
  first = true;
  for (const auto& row : rows_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {";
    bool first_cell = true;
    for (const auto& [k, v] : row.cells_) {
      if (!first_cell) out += ", ";
      first_cell = false;
      append_quoted(out, k);
      out += ": " + v;
    }
    out += "}";
  }
  out += first ? "]" : "\n  ]";

  out += ",\n  \"counters\": {";
  first = true;
  for (const auto& [name, v] : counters_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    append_quoted(out, name);
    out += ": " + std::to_string(v);
  }
  out += first ? "}" : "\n  }";

  out += ",\n  \"gauges\": {";
  first = true;
  for (const auto& [name, v] : gauges_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    append_quoted(out, name);
    out += ": ";
    append_number(out, v);
  }
  out += first ? "}" : "\n  }";

  out += ",\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    append_quoted(out, name);
    out += ": {\"bounds\": [";
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      if (i != 0) out += ", ";
      append_number(out, h.bounds[i]);
    }
    out += "], \"counts\": [";
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      if (i != 0) out += ", ";
      out += std::to_string(h.counts[i]);
    }
    out += "], \"count\": " + std::to_string(h.count);
    out += ", \"sum\": ";
    append_number(out, h.sum);
    out += ", \"min\": ";
    append_number(out, h.min);
    out += ", \"max\": ";
    append_number(out, h.max);
    out += "}";
  }
  out += first ? "}" : "\n  }";

  out += ",\n  \"spans\": [";
  first = true;
  for (const auto& ev : spans_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"cat\": ";
    append_quoted(out, ev.cat);
    out += ", \"name\": ";
    append_quoted(out, ev.name);
    out += ", \"lane\": " + std::to_string(ev.lane);
    out += ", \"begin_ns\": " + std::to_string(ev.begin.ns());
    out += ", \"dur_ns\": " + std::to_string(ev.dur.ns());
    out += "}";
  }
  out += first ? "]" : "\n  ]";

  out += "\n}\n";
  return out;
}

bool RunReport::write(const std::string& path) const {
  std::ofstream f(path, std::ios::binary);
  if (!f) return false;
  const std::string json = to_json();
  f.write(json.data(), static_cast<std::streamsize>(json.size()));
  return static_cast<bool>(f);
}

}  // namespace tango::telemetry
