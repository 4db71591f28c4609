// Per-layer metrics derived from the obs registry over the measured window.
#include <algorithm>
#include <cstdio>

#include "obs/histogram_json.h"
#include "perfbench.h"

namespace dpr::perfbench {

namespace {

std::string Fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

Histogram Subtract(const Histogram& after, const Histogram* before) {
  if (before == nullptr || before->count() == 0) return after;
  std::vector<uint64_t> buckets(Histogram::kNumBuckets);
  for (int i = 0; i < Histogram::kNumBuckets; ++i) {
    const uint64_t a = after.bucket_count(i);
    const uint64_t b = before->bucket_count(i);
    buckets[i] = a > b ? a - b : 0;
  }
  Histogram out;
  const uint64_t count =
      after.count() > before->count() ? after.count() - before->count() : 0;
  const uint64_t sum =
      after.sum() > before->sum() ? after.sum() - before->sum() : 0;
  // The window's own min/max are unknown; the whole-run bounds only clamp
  // percentiles, which the bucket counts already place.
  out.AbsorbCounts(buckets.data(), Histogram::kNumBuckets, count, sum,
                   after.min(), after.max());
  return out;
}

}  // namespace

void WindowMetrics::Add(const MetricsSnapshot& before,
                        const MetricsSnapshot& after) {
  for (const auto& [name, value] : after.counters) {
    auto it = before.counters.find(name);
    const uint64_t base = it == before.counters.end() ? 0 : it->second;
    counters_[name] += value > base ? value - base : 0;
  }
  for (const auto& [name, value] : after.gauges) {
    auto [it, inserted] = gauges_.emplace(name, value);
    if (!inserted) it->second = std::max(it->second, value);
  }
  for (const auto& [name, hist] : after.histograms) {
    auto it = before.histograms.find(name);
    histograms_[name].Merge(
        Subtract(hist, it == before.histograms.end() ? nullptr : &it->second));
  }
}

void WindowMetrics::WriteJson(JsonWriter* w) const {
  w->BeginObject();
  w->Key("counters").BeginObject();
  for (const auto& [name, value] : counters_) w->Key(name).UInt(value);
  w->EndObject();
  w->Key("gauges").BeginObject();
  for (const auto& [name, value] : gauges_) w->Key(name).Int(value);
  w->EndObject();
  w->Key("histograms").BeginObject();
  for (const auto& [name, hist] : histograms_) {
    w->Key(name);
    HistogramToJson(hist, w);
  }
  w->EndObject();
  w->EndObject();
}

Status WindowMetrics::MergeJson(const JsonValue& v) {
  const JsonValue* counters = v.Find("counters");
  const JsonValue* gauges = v.Find("gauges");
  const JsonValue* histograms = v.Find("histograms");
  if (counters == nullptr || gauges == nullptr || histograms == nullptr) {
    return Status::Corruption("window metrics: missing section");
  }
  MetricsSnapshot delta;
  for (const auto& [name, value] : counters->object()) {
    delta.counters[name] = value.uint_value();
  }
  for (const auto& [name, value] : gauges->object()) {
    delta.gauges[name] = static_cast<int64_t>(value.number());
  }
  for (const auto& [name, value] : histograms->object()) {
    DPR_RETURN_NOT_OK(HistogramFromJson(value, &delta.histograms[name]));
  }
  Add(MetricsSnapshot{}, delta);
  return Status::OK();
}

uint64_t WindowMetrics::counter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

int64_t WindowMetrics::gauge(const std::string& name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0 : it->second;
}

const Histogram& WindowMetrics::histogram(const std::string& name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? empty_ : it->second;
}

Metric Percentile(const std::string& name, const Histogram& h, double p,
                  double scale, const std::string& unit) {
  const double v = h.count() == 0 ? 0.0 : h.Percentile(p) * scale;
  return Metric{name, v, unit, h.count(), ""};
}

Metric Ratio(const std::string& name, double num, double den,
             const std::string& num_name, const std::string& den_name,
             const std::string& unit) {
  return Metric{name, den > 0 ? num / den : 0.0, unit, 0,
                num_name + "=" + Fmt(num) + " / " + den_name + "=" + Fmt(den)};
}

void AddLayerMetrics(const WindowMetrics& w, double window_s,
                     uint64_t user_bytes, RunResult* result) {
  auto& out = result->per_layer;
  auto c = [&](const char* name) {
    return static_cast<double>(w.counter(name));
  };

  // client
  {
    const Histogram& fill = w.histogram("dfaster.client.batch_fill");
    out.push_back(Metric{"client.batch_fill_mean", fill.Mean(), "ops",
                         fill.count(), "batches=" + Fmt(fill.count())});
  }
  out.push_back(Percentile("session.op_commit_us_p50",
                           w.histogram("dpr.session.op_commit_us"), 50, 1.0,
                           "us"));

  // net: one frame per request and one per response; both ends of a
  // loopback connection live in this process, so count each frame once
  // (at its sender).
  const double frames = c("net.tcp.frames_sent");
  out.push_back(Ratio("net.frames_per_batch", frames,
                      c("dfaster.client.batches"), "net.tcp.frames_sent",
                      "dfaster.client.batches", "frames"));
  out.push_back(Ratio("net.syscalls_per_frame",
                      c("net.tcp.recv_calls") + c("net.tcp.writev_calls") +
                          c("net.uring.sqe_batches"),
                      frames, "recv+writev+uring.sqe_batches",
                      "net.tcp.frames_sent", "calls"));
  out.push_back(Ratio("net.loop.wakeups_per_frame", c("net.loop.wakeups"),
                      frames, "net.loop.wakeups", "net.tcp.frames_sent",
                      "wakeups"));
  out.push_back(Metric{"net.executor.queue_peak",
                       static_cast<double>(w.gauge("net.executor.queue_peak")),
                       "tasks", 0, ""});

  // dpr worker
  const double batches = c("dpr.worker.batches");
  out.push_back(Ratio("dpr.admission_retries_per_batch",
                      c("dpr.worker.admission_retries"), batches,
                      "dpr.worker.admission_retries", "dpr.worker.batches",
                      "retries"));
  out.push_back(Ratio("dpr.dep_records_per_batch",
                      c("dpr.dep_tracker.records"), batches,
                      "dpr.dep_tracker.records", "dpr.worker.batches",
                      "records"));

  // finder
  const double cuts = c("dpr.finder.cut_advances");
  out.push_back(Percentile("finder.report_to_cut_us_p50",
                           w.histogram("dpr.finder.report_to_cut_us"), 50,
                           1.0, "us"));
  out.push_back(Ratio("finder.cut_advances_per_s", cuts, window_s,
                      "dpr.finder.cut_advances", "window_s", "1/s"));
  out.push_back(Ratio("finder.reports_per_cut",
                      c("dpr.finder.reports_ingested"), cuts,
                      "dpr.finder.reports_ingested",
                      "dpr.finder.cut_advances", "reports"));

  // faster
  out.push_back(Percentile("faster.stamp_us_p99",
                           w.histogram("faster.checkpoint.stamp_us"), 99,
                           1.0, "us"));
  out.push_back(Ratio("faster.checkpoints_per_s",
                      c("faster.checkpoints_stamped"), window_s,
                      "faster.checkpoints_stamped", "window_s", "1/s"));
  out.push_back(Percentile("faster.flush_us_p50",
                           w.histogram("faster.checkpoint.flush_us"), 50, 1.0,
                           "us"));
  out.push_back(
      Percentile("faster.stamp_to_durable_us_p50",
                 w.histogram("faster.checkpoint.stamp_to_durable_us"), 50,
                 1.0, "us"));

  // ckpt
  out.push_back(Metric{
      "ckpt.interval_us",
      static_cast<double>(w.gauge("ckpt.controller.interval_us")), "us", 0,
      "final controller gauge"});
  out.push_back(Ratio("ckpt.skip_share", c("ckpt.controller.skips"),
                      c("ckpt.controller.decisions"),
                      "ckpt.controller.skips", "ckpt.controller.decisions"));
  out.push_back(Ratio("ckpt.bytes_per_put_byte",
                      c("ckpt.log_bytes_persisted") +
                          c("ckpt.index_bytes_persisted"),
                      static_cast<double>(user_bytes),
                      "ckpt.log+index_bytes_persisted",
                      "acked_upserts*16B", "bytes"));

  // storage
  out.push_back(Ratio("storage.fsyncs_per_checkpoint",
                      c("storage.sched.fsyncs"),
                      c("faster.checkpoints_flushed"), "storage.sched.fsyncs",
                      "faster.checkpoints_flushed", "fsyncs"));
  out.push_back(Ratio("storage.coalesced_share", c("storage.sched.coalesced"),
                      c("storage.sched.requests"), "storage.sched.coalesced",
                      "storage.sched.requests"));
  out.push_back(Percentile("storage.sched_wait_us_p50",
                           w.histogram("storage.sched.wait_us"), 50, 1.0,
                           "us"));
  out.push_back(Percentile("storage.io_completion_us_p50",
                           w.histogram("storage.io.completion_us"), 50, 1.0,
                           "us"));

  // recovery
  out.push_back(Metric{"recovery.rollbacks", c("dpr.worker.rollbacks"),
                       "count", 0, ""});
  out.push_back(Metric{"ckpt.chain_restores", c("ckpt.chain_restores"),
                       "count", 0, ""});
  out.push_back(Metric{"ckpt.scan_restores", c("ckpt.scan_restores"),
                       "count", 0, ""});
}

}  // namespace dpr::perfbench
