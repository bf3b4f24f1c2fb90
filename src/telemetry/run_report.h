// Machine-readable run reports: one JSON document per run/bench capturing
// scalar results, tabular rows, a metrics-registry snapshot, and key spans.
//
// Schema (stable; bump the version string on breaking change):
//   {
//     "schema": "tango.run_report.v1",
//     "name": "<run name>",
//     "results":    { "<key>": number|string, ... },
//     "rows":       [ { "<col>": number|string, ... }, ... ],
//     "counters":   { "<name>": integer, ... },
//     "gauges":     { "<name>": number, ... },
//     "histograms": { "<name>": { "bounds": [...], "counts": [...],
//                                 "count": N, "sum": x,
//                                 "min": x, "max": x }, ... },
//     "spans":      [ { "cat": s, "name": s, "lane": N,
//                       "begin_ns": N, "dur_ns": N }, ... ]
//   }
// All keys are always present (empty containers when unused) so consumers
// can index without existence checks. tools/validate_telemetry.py is the
// reference validator.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace tango::telemetry {

class RunReport {
 public:
  explicit RunReport(std::string name) : name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const { return name_; }

  /// Scalar results ("LF.tango_s": 1.23). Numbers and strings only.
  void set_result(const std::string& key, double v);
  void set_result(const std::string& key, const std::string& v);

  /// One row of a result table; columns may differ between rows.
  class Row {
   public:
    Row& col(const std::string& key, double v);
    Row& col(const std::string& key, const std::string& v);

   private:
    friend class RunReport;
    /// Values pre-rendered as JSON fragments, in insertion order.
    std::vector<std::pair<std::string, std::string>> cells_;
  };
  /// Append a row: empty, or one a worker filled in beforehand.
  Row& add_row(Row row = {});

  /// Snapshot every instrument in `reg` into the report — values are
  /// copied, so the registry may die before the report is written.
  /// Replaces any previous snapshot.
  void add_metrics(const MetricsRegistry& reg);

  /// Copy spans from `trace` whose category is in `cats` (all spans when
  /// `cats` is empty), up to `max_spans` — the "key spans" of the run, kept
  /// small so reports stay greppable while full detail lives in the trace.
  void add_spans(const TraceCollector& trace,
                 const std::vector<std::string>& cats = {},
                 std::size_t max_spans = 256);

  [[nodiscard]] std::string to_json() const;
  bool write(const std::string& path) const;

 private:
  struct HistSnapshot {
    std::vector<double> bounds;
    std::vector<std::uint64_t> counts;
    std::uint64_t count = 0;
    double sum = 0, min = 0, max = 0;
  };

  std::string name_;
  std::map<std::string, std::string> results_;  // values: JSON fragments
  std::vector<Row> rows_;
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, HistSnapshot> histograms_;
  std::vector<TraceEvent> spans_;
};

}  // namespace tango::telemetry
