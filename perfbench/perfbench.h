// Repository benchmark: D-FASTER workloads over TCP loopback against an
// in-process DFasterCluster. The benchmark times its own calls into the
// public client, session and harness APIs and diffs the obs metrics
// registry around the measured window; it adds no tracing inside src/.
#ifndef DPR_PERFBENCH_PERFBENCH_H_
#define DPR_PERFBENCH_PERFBENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/status.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace dpr::perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  uint32_t seconds = 10;
  bool trace = false;
  /// Scratch directory for file-backed devices (inside the checkout).
  std::string tmp_dir;
};

/// One reported number. `samples` is the sample count behind a percentile
/// (0 when not a percentile); `base` spells out a ratio's numerator and
/// denominator.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  uint64_t samples = 0;
  std::string base;
};

struct RunResult {
  std::vector<std::string> errors;  // any entry makes the run incorrect
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> end_to_end;  // emitted with --trace 0
  std::vector<Metric> per_layer;   // emitted with --trace 1
  std::vector<Metric> info;        // printed only
};

/// Runs `config.workload`; unknown names add an error.
RunResult RunWorkload(const RunConfig& config);

/// Registry view of the measured windows: counters and histograms are
/// summed differences between the snapshots around each window, gauges the
/// largest end-of-window value.
class WindowMetrics {
 public:
  void Add(const MetricsSnapshot& before, const MetricsSnapshot& after);

  /// Serializes the accumulated view; MergeJson adds such a view in.
  void WriteJson(JsonWriter* w) const;
  Status MergeJson(const JsonValue& v);

  uint64_t counter(const std::string& name) const;
  int64_t gauge(const std::string& name) const;
  /// Empty histogram when the name was never registered.
  const Histogram& histogram(const std::string& name) const;

 private:
  std::map<std::string, uint64_t> counters_;
  std::map<std::string, int64_t> gauges_;
  std::map<std::string, Histogram> histograms_;
  Histogram empty_;
};

/// Appends the per-layer metrics derived from the registry window.
/// `window_s` is the measured window length; `user_bytes` the bytes of
/// keys and values the workload's acknowledged writes carried.
void AddLayerMetrics(const WindowMetrics& w, double window_s,
                     uint64_t user_bytes, RunResult* result);

/// Metric helpers: a percentile of a histogram recorded in microseconds (or
/// nanoseconds), scaled to the metric's unit, with its sample count.
Metric Percentile(const std::string& name, const Histogram& h, double p,
                  double scale, const std::string& unit);
/// num / den, 0 when den is 0, with the base spelled out.
Metric Ratio(const std::string& name, double num, double den,
             const std::string& num_name, const std::string& den_name,
             const std::string& unit = "ratio");

}  // namespace dpr::perfbench

#endif  // DPR_PERFBENCH_PERFBENCH_H_
