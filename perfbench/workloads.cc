// The workloads: load generation, setup, measured window, drain and
// read-back checks. Everything the cluster receives is generated here from
// the run's seed.
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <functional>
#include <memory>
#include <numeric>
#include <thread>
#include <type_traits>
#include <utility>

#include "common/clock.h"
#include "common/hash.h"
#include "common/random.h"
#include "common/sync.h"
#include "harness/cluster.h"
#include "obs/histogram_json.h"
#include "obs/json.h"
#include "perfbench.h"
#include "workload/ycsb.h"

namespace dpr::perfbench {

namespace {

// Shape of the deployment, shared by every workload.
constexpr uint64_t kNumKeys = 100000;
constexpr uint32_t kWorkers = 2;
constexpr uint32_t kBatch = 64;
constexpr uint32_t kWindow = 16 * kBatch;
constexpr double kZipfTheta = 0.99;
constexpr double kReadFraction = 0.5;
constexpr uint64_t kIntervalUs = 100000;

// Offered rate of the failover open loop: a fixed constant well below the
// closed loop's saturation throughput, never derived from a run of the code
// under test.
constexpr double kFailoverRate = 50000;

constexpr uint64_t kDurableIntervalUs = 20000;
constexpr uint32_t kDurableSessions = 4;
constexpr uint32_t kPutsPerCommit = 8;

// A run measures `seconds` in up to kRounds rounds, each on a freshly set
// up cluster: state fixed at cluster start (such as the phase between the
// workers' checkpoint timers) then varies within a run instead of between
// runs, and a rare stall moves one round's p99, not the run's median of
// them. setup_s is the median of the rounds' set-up times.
constexpr uint32_t kRounds = 15;
constexpr uint32_t kMinRoundSeconds = 2;  // >= 1000 samples per round p99
constexpr uint64_t kWarmupNs = 200000000;
constexpr uint64_t kSubWindowNs = 1000000000;
constexpr uint64_t kRssSampleNs = 50000000;
constexpr uint32_t kCheckedKeys = 1024;  // read back after ycsb/failover
constexpr uint32_t kPregenOps = 1 << 20;
constexpr uint32_t kMinFailures = 10;
// Failures per failover round: dense enough that ops delayed by recovery
// are a few percent of all ops, so op_p99 falls inside their distribution
// instead of on its edge.
constexpr uint32_t kFailuresPerRound = 4;
constexpr uint64_t kDrainTimeoutMs = 30000;

// ----------------------------------------------------------------- values

// Values certify themselves: the high 40 bits are a tag naming the writer
// (8 bits, 0 = preload) and its write counter (32 bits), the low 24 bits a
// hash of (key, tag). A read returning anything else is corrupt, and the
// tag identifies the write a read-back observed.
uint64_t MakeValue(uint64_t key, uint32_t writer, uint32_t counter) {
  const uint64_t tag = (uint64_t{writer} << 32) | counter;
  return (tag << 24) |
         (Mix64(key ^ (tag * 0x9E3779B97F4A7C15ull)) & 0xFFFFFF);
}

bool WellFormed(uint64_t key, uint64_t value) {
  const uint64_t tag = value >> 24;
  return (value & 0xFFFFFF) ==
         (Mix64(key ^ (tag * 0x9E3779B97F4A7C15ull)) & 0xFFFFFF);
}

uint32_t WriterOf(uint64_t value) { return static_cast<uint32_t>(value >> 56); }
uint32_t CounterOf(uint64_t value) {
  return static_cast<uint32_t>(value >> 24);
}

// Op stream: key in the low bits, bit 63 set for reads.
constexpr uint64_t kReadBit = 1ull << 63;

std::vector<uint64_t> Pregen(uint64_t seed) {
  YcsbOptions o;
  o.num_keys = kNumKeys;
  o.read_fraction = kReadFraction;
  o.zipf_theta = kZipfTheta;
  o.seed = seed;
  YcsbWorkload wl(o);
  std::vector<uint64_t> ops(kPregenOps);
  for (auto& op : ops) {
    const YcsbOp y = wl.Next();
    op = y.key | (y.type == YcsbOp::Type::kRead ? kReadBit : 0);
  }
  return ops;
}

// Exact nearest-rank percentile of raw samples (histogram buckets would
// quantize the end-to-end figures).
Metric SamplePercentile(const std::string& name, std::vector<uint64_t> v,
                        double p, double scale, const std::string& unit) {
  if (v.empty()) return Metric{name, 0.0, unit, 0, ""};
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
  rank = std::clamp<size_t>(rank, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + rank, v.end());
  return Metric{name, v[rank] * scale, unit, v.size(), ""};
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Resident set size now, from /proc/self/statm.
double RssMb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long size = 0, resident = 0;
  const int n = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  return n == 2 ? resident * (sysconf(_SC_PAGESIZE) / 1048576.0) : 0;
}

// ----------------------------------------------------------------- setup

std::unique_ptr<DFasterCluster> StartCluster(uint64_t interval_us,
                                             const std::string& storage_dir,
                                             std::string* error) {
  ClusterOptions o;
  o.num_workers = kWorkers;
  o.backend = StorageBackend::kLocal;  // memory devices unless a dir is set
  o.storage_dir = storage_dir;
  o.checkpoint_interval_us = interval_us;
  o.transport = TransportKind::kTcp;
  o.tcp.io_threads = 1;
  o.tcp.executor_threads = 1;
  o.tcp.backend = NetBackend::kAuto;
  auto cluster = std::make_unique<DFasterCluster>(o);
  Status s = cluster->Start();
  if (!s.ok()) {
    *error = "cluster start: " + s.ToString();
    return nullptr;
  }
  // Declared before the session: its destructor waits for callbacks that
  // may still bump the counter when preloading timed out.
  std::atomic<uint64_t> ok{0};
  auto client = cluster->NewClient(kBatch, kWindow);
  auto session = client->NewSession(1);
  for (uint64_t k = 0; k < kNumKeys; ++k) {
    session->Upsert(k, MakeValue(k, 0, 0), [&ok](KvResult r, uint64_t) {
      if (r == KvResult::kOk) ok.fetch_add(1, std::memory_order_relaxed);
    });
  }
  s = session->WaitForAll(60000);
  if (!s.ok() || ok.load() != kNumKeys) {
    *error = "preload: " + s.ToString() + ", acked " +
             std::to_string(ok.load()) + " of " + std::to_string(kNumKeys);
    return nullptr;
  }
  return cluster;
}

// --------------------------------------------------------- session driver

// Read-back bookkeeping for one checked key within one session: which of
// the session's acknowledged writes a final read may legitimately return.
struct KeyLog {
  uint32_t committed = 0;  // newest write known committed (0: preload)
  std::vector<std::pair<uint32_t, uint64_t>> pending;  // (counter, marker)
  std::vector<uint32_t> uncertain;  // acked before a failure, fate unknown
  bool dirty = false;
};

struct CommitSample {
  uint64_t start_ns;
  uint64_t marker;  // committed once the session's prefix reaches it
};

// One client session plus everything the benchmark measures about it.
// Issue/Maintain/Recover run on the session's own thread; op callbacks run
// on transport threads.
class SessionDriver {
 public:
  SessionDriver(std::shared_ptr<DFasterClient> client, uint32_t writer,
                const std::vector<int32_t>* slot_of, size_t num_slots,
                const std::atomic<bool>* tracing)
      : writer_(writer),
        slot_of_(slot_of),
        tracing_(tracing),
        logs_(num_slots),
        client_(std::move(client)),
        session_(client_->NewSession(1000 + writer)) {}

  SessionDriver(const SessionDriver&) = delete;
  SessionDriver& operator=(const SessionDriver&) = delete;

  /// Issues one op. `start_ns` is the instant latency is measured from (the
  /// due time in an open loop); a sampled op records op latency and, when
  /// `marker_commits`, its commit latency through the commit-point marker.
  void Issue(uint64_t key, bool read, bool sampled, uint64_t start_ns,
             bool marker_commits = true) {
    issued_.store(++issued_local_, std::memory_order_relaxed);
    const bool traced = tracing_->load(std::memory_order_relaxed);
    const uint64_t t0 = traced ? NowNanos() : 0;
    if (read) {
      DFasterClient::Session::OpCallback cb;
      if (sampled) {
        cb = [this, key, start_ns, traced, marker_commits](KvResult r,
                                                           uint64_t v) {
          OnRead(key, r, v);
          OnSampled(r, start_ns, traced, marker_commits);
        };
      } else {
        cb = [this, key](KvResult r, uint64_t v) { OnRead(key, r, v); };
      }
      session_->Read(key, std::move(cb));
    } else {
      const uint32_t counter = ++write_counter_;
      const uint64_t packed = key | (uint64_t{counter} << 32);
      DFasterClient::Session::OpCallback cb;
      if (sampled) {
        cb = [this, packed, start_ns, traced, marker_commits](KvResult r,
                                                              uint64_t) {
          OnWrite(packed, r);
          OnSampled(r, start_ns, traced, marker_commits);
        };
      } else {
        cb = [this, packed](KvResult r, uint64_t) { OnWrite(packed, r); };
      }
      session_->Upsert(key, MakeValue(key, writer_, counter), std::move(cb));
    }
    if (traced) issue_ns_.Record(NowNanos() - t0);
  }

  /// Learns the session's commit point: publishes the committed-op count,
  /// turns commit markers into commit-latency samples, and handles a
  /// failure the session has observed.
  void Maintain() {
    if (session_->needs_failure_handling()) Recover();
    const DprSession::CommitPoint point = session_->dpr().GetCommitPoint();
    const uint64_t now = NowNanos();
    while (!lost_ranges_.empty() &&
           lost_ranges_.front().first <= point.prefix_end) {
      lost_total_ += lost_ranges_.front().second;
      lost_ranges_.pop_front();
    }
    committed_.store(point.prefix_end - point.excluded.size() - lost_total_,
                     std::memory_order_relaxed);
    if (recovering_ && point.prefix_end > recovered_prefix_) {
      recovering_ = false;
      gap_ns_.push_back(now - failure_ns_);
    }
    Promote(point.prefix_end, now, /*failure=*/false);
  }

  /// Blocks until every op has a response and everything issued is
  /// committed, recovering from failures on the way.
  Status Drain() {
    Status s;
    for (int attempt = 0; attempt < 4; ++attempt) {
      if (session_->needs_failure_handling()) Recover();
      s = session_->WaitForCommit(kDrainTimeoutMs);
      if (s.ok() || !s.IsAborted()) break;
    }
    Maintain();
    return s;
  }

  /// Sets the time of the most recent injected failure, from which the
  /// next recovery's gap is measured.
  void NoteFailureInjected(uint64_t t_ns) {
    failure_at_ns_.store(t_ns, std::memory_order_relaxed);
  }

  DFasterClient::Session& session() { return *session_; }
  uint32_t writer() const { return writer_; }
  uint64_t issued() const { return issued_.load(std::memory_order_relaxed); }
  uint64_t acked() const { return acked_.load(std::memory_order_relaxed); }
  uint64_t committed() const {
    return committed_.load(std::memory_order_relaxed);
  }
  uint64_t aborted_rejects() const {
    return rejected_.load(std::memory_order_relaxed);
  }
  uint64_t lost() const { return lost_total_ + lost_pending(); }
  uint64_t corrupt() const { return corrupt_.load(std::memory_order_relaxed); }
  uint64_t acked_writes() const {
    return acked_writes_.load(std::memory_order_relaxed);
  }

  // Samples; read after the session thread has stopped.
  std::vector<uint64_t>& op_ns(bool traced) { return op_ns_[traced]; }
  std::vector<uint64_t>& commit_ns() { return commit_ns_; }
  std::vector<uint64_t>& gap_ns() { return gap_ns_; }
  std::vector<uint64_t>& recover_ns() { return recover_ns_; }
  Histogram& issue_ns() { return issue_ns_; }
  std::vector<uint64_t>& wait_all_ns() { return wait_all_ns_; }
  std::vector<uint64_t>& after_ack_ns() { return after_ack_ns_; }

  /// One blocking commit wait: WaitForAll took `all_ns`, the WaitForCommit
  /// after it `after_ack_ns`; every op of the round was issued at `starts`.
  void AddCommitWait(const uint64_t* starts, size_t n, uint64_t all_ns,
                     uint64_t after_ack_ns, uint64_t end_ns) {
    MutexLock guard(sample_mu_);
    for (size_t i = 0; i < n; ++i) commit_ns_.push_back(end_ns - starts[i]);
    wait_all_ns_.push_back(all_ns);
    after_ack_ns_.push_back(after_ack_ns);
  }

  /// Discards samples taken before the measured window. (Issue times are
  /// only recorded while tracing, which starts inside the window.)
  void ResetSamples() {
    MutexLock guard(sample_mu_);
    op_ns_[0].clear();
    op_ns_[1].clear();
    commit_ns_.clear();
    wait_all_ns_.clear();
    after_ack_ns_.clear();
  }

  /// True when `value` is a final value this session's history allows for
  /// the checked key in `slot` (see KeyLog).
  bool Allows(size_t slot, uint32_t counter) {
    MutexLock guard(log_mu_);
    const KeyLog& log = logs_[slot];
    if (counter == log.committed) return true;
    if (counter < log.committed) return false;
    for (const auto& [c, marker] : log.pending) {
      if (c == counter) return true;
    }
    return std::find(log.uncertain.begin(), log.uncertain.end(), counter) !=
           log.uncertain.end();
  }
  bool HasCommittedWrite(size_t slot) {
    MutexLock guard(log_mu_);
    return logs_[slot].committed != 0;
  }

 private:
  uint64_t lost_pending() const {
    uint64_t n = 0;
    for (const auto& [end, count] : lost_ranges_) n += count;
    return n;
  }

  // Every key is preloaded, so a read must find a well-formed value.
  void OnRead(uint64_t key, KvResult r, uint64_t v) {
    if (r == KvResult::kOk && WellFormed(key, v)) {
      acked_.fetch_add(1, std::memory_order_relaxed);
    } else if (r == KvResult::kOk || r == KvResult::kNotFound) {
      corrupt_.fetch_add(1, std::memory_order_relaxed);
    } else {
      Reject(r);
    }
  }

  void OnWrite(uint64_t packed, KvResult r) {
    if (r != KvResult::kOk) {
      Reject(r);
      return;
    }
    acked_.fetch_add(1, std::memory_order_relaxed);
    acked_writes_.fetch_add(1, std::memory_order_relaxed);
    const uint64_t key = packed & 0xFFFFFFFF;
    const int32_t slot = (*slot_of_)[key];
    if (slot < 0) return;
    const uint64_t marker = session_->dpr().next_seqno();
    MutexLock guard(log_mu_);
    KeyLog& log = logs_[slot];
    log.pending.emplace_back(static_cast<uint32_t>(packed >> 32), marker);
    if (!log.dirty) {
      log.dirty = true;
      dirty_.push_back(static_cast<size_t>(slot));
    }
  }

  // An op that was not acknowledged OK is an abort when the session has
  // seen a newer world-line (recovery rejected it), a failure otherwise;
  // failures are counted as attempted minus acknowledged minus aborted.
  void Reject(KvResult r) {
    if (r == KvResult::kError && session_->needs_failure_handling()) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  void OnSampled(KvResult r, uint64_t start_ns, bool traced,
                 bool marker_commits) {
    if (r != KvResult::kOk) return;
    const uint64_t now = NowNanos();
    // The marker is taken at the response, so sampling never forces a
    // partial batch out: the op's seqno is below next_seqno once its batch
    // was dispatched.
    const uint64_t marker =
        marker_commits ? session_->dpr().next_seqno() : 0;
    MutexLock guard(sample_mu_);
    op_ns_[traced].push_back(now - start_ns);
    if (marker_commits) commit_samples_.push_back({start_ns, marker});
  }

  // Commit-marker bookkeeping once the session knows `prefix` is
  // committed. After a failure, markers beyond the surviving prefix were
  // rolled back: their samples are dropped and their writes become
  // uncertain.
  void Promote(uint64_t prefix, uint64_t now, bool failure) {
    {
      MutexLock guard(sample_mu_);
      while (!commit_samples_.empty() &&
             commit_samples_.front().marker <= prefix) {
        commit_ns_.push_back(now - commit_samples_.front().start_ns);
        commit_samples_.pop_front();
      }
      if (failure) commit_samples_.clear();
    }
    MutexLock guard(log_mu_);
    size_t keep = 0;
    for (size_t slot : dirty_) {
      KeyLog& log = logs_[slot];
      auto& p = log.pending;
      size_t n = 0;
      for (const auto& entry : p) {
        if (entry.second <= prefix) {
          log.committed = std::max(log.committed, entry.first);
        } else if (failure) {
          log.uncertain.push_back(entry.first);
        } else {
          p[n++] = entry;
        }
      }
      p.resize(n);
      std::erase_if(log.uncertain,
                    [&](uint32_t c) { return c < log.committed; });
      if (p.empty()) {
        log.dirty = false;
      } else {
        dirty_[keep++] = slot;
      }
    }
    dirty_.resize(keep);
  }

  void Recover() {
    const uint64_t t0 = NowNanos();
    DprSession::CommitPoint survivors;
    Status s;
    for (;;) {
      s = session_->RecoverFromFailure(&survivors);
      if (s.ok() || NowNanos() - t0 > kDrainTimeoutMs * 1000000) break;
      SleepMicros(500);  // recovery cut not yet published
    }
    if (!s.ok()) return;  // Drain reports the session as stuck
    const uint64_t now = NowNanos();
    recover_ns_.push_back(now - t0);
    // Lost: everything issued above the surviving prefix plus the holes
    // below it. The holes are inside the prefix already; the range above
    // is subtracted once the prefix passes it (Maintain).
    const uint64_t next = session_->dpr().next_seqno();
    lost_total_ += survivors.excluded.size();
    lost_ranges_.emplace_back(next, next - survivors.prefix_end);
    Promote(survivors.prefix_end, now, /*failure=*/true);
    recovering_ = true;
    recovered_prefix_ = survivors.prefix_end;
    failure_ns_ = failure_at_ns_.load(std::memory_order_relaxed);
    if (failure_ns_ == 0 || failure_ns_ > t0) failure_ns_ = t0;
  }

  const uint32_t writer_;
  const std::vector<int32_t>* slot_of_;
  const std::atomic<bool>* tracing_;

  // Session-thread state.
  uint64_t issued_local_ = 0;
  uint32_t write_counter_ = 0;
  uint64_t lost_total_ = 0;
  std::deque<std::pair<uint64_t, uint64_t>> lost_ranges_;  // (end, count)
  bool recovering_ = false;
  uint64_t recovered_prefix_ = 0;
  uint64_t failure_ns_ = 0;
  Histogram issue_ns_;
  std::vector<uint64_t> gap_ns_;
  std::vector<uint64_t> recover_ns_;

  // relaxed: progress counters, read by the main thread at window edges;
  // no other data is published through them.
  std::atomic<uint64_t> issued_{0};
  std::atomic<uint64_t> acked_{0};
  std::atomic<uint64_t> acked_writes_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> corrupt_{0};
  std::atomic<uint64_t> committed_{0};
  std::atomic<uint64_t> failure_at_ns_{0};

  Mutex sample_mu_;
  std::vector<uint64_t> op_ns_[2] GUARDED_BY(sample_mu_);
  std::vector<uint64_t> commit_ns_ GUARDED_BY(sample_mu_);
  std::vector<uint64_t> wait_all_ns_ GUARDED_BY(sample_mu_);
  std::vector<uint64_t> after_ack_ns_ GUARDED_BY(sample_mu_);
  std::deque<CommitSample> commit_samples_ GUARDED_BY(sample_mu_);

  Mutex log_mu_;
  std::vector<KeyLog> logs_ GUARDED_BY(log_mu_);
  std::vector<size_t> dirty_ GUARDED_BY(log_mu_);

  // Last, so they are destroyed first: the session's destructor waits for
  // outstanding callbacks, which use every member above.
  std::shared_ptr<DFasterClient> client_;
  std::unique_ptr<DFasterClient::Session> session_;
};

// ------------------------------------------------------------- the run

struct Window {
  double seconds;
  double acked_per_s;
  double committed_per_s;
  bool traced;
};

// What a run accumulates over its rounds, and the report made from it.
struct Run {
  const RunConfig& config;
  RunResult* result;
  std::vector<int32_t> slot_of = std::vector<int32_t>(kNumKeys, -1);
  std::vector<uint64_t> checked;  // slot -> key

  std::vector<double> setup_s;
  // Per round: the window's sampled peak RSS, and the op p99 (an op p99
  // pooled over a run would rest on its few worst stalls).
  std::vector<double> rss_mb, op_p99_us;
  std::vector<Window> windows;
  WindowMetrics layers;
  std::vector<uint64_t> op_ns[2], commit_ns, gap_ns, recover_ns, wait_all_ns,
      after_ack_ns, inject_ns;
  Histogram issue_ns;
  uint64_t issued = 0, acked = 0, acked_writes = 0, rejected = 0, lost = 0;
  uint64_t uncommitted_tail = 0, keys_read_back = 0;
  double late_ms_max = 0;

  Mutex errors_mu;

  Run(const RunConfig& c, RunResult* r) : config(c), result(r) {}

  /// Records an error; callable from any thread.
  void Fail(const std::string& what) {
    MutexLock guard(errors_mu);
    result->errors.push_back(what);
  }

  /// Seeded sample of keys to read back (all keys when `all`).
  void ChooseCheckedKeys(bool all) {
    Random rng(config.seed ^ 0xC0FFEEull);
    const uint64_t want = all ? kNumKeys : kCheckedKeys;
    for (uint64_t k = 0; checked.size() < want; ++k) {
      const uint64_t key = all ? k : rng.Uniform(kNumKeys);
      if (slot_of[key] >= 0) continue;
      slot_of[key] = static_cast<int32_t>(checked.size());
      checked.push_back(key);
    }
  }

  /// Everything a round added, for the parent process (MergeJson).
  void WriteJson(JsonWriter* w) const;
  Status MergeJson(const JsonValue& v);

  void Report();
};

// One cluster instance and its sessions, measured for part of the run.
// Members are destroyed in reverse order: the drivers (sessions) go before
// the cluster they talk to.
struct Round {
  Run& run;
  const uint32_t round;
  const uint32_t seconds;       // this round's share of the window
  const uint32_t first_window;  // run-wide index of its first sub-window
  std::unique_ptr<DFasterCluster> cluster;
  std::atomic<bool> tracing{false};
  std::atomic<bool> stop{false};
  std::vector<std::unique_ptr<SessionDriver>> drivers;

  Round(Run& r, uint32_t index, uint32_t secs, uint32_t first)
      : run(r), round(index), seconds(secs), first_window(first) {}

  /// Starts and preloads this round's cluster (in a fresh storage
  /// directory when file-backed), timing it for setup_s.
  bool SetUp(uint64_t interval_us, bool file_backed) {
    std::string dir;
    if (file_backed) {
      dir = run.config.tmp_dir + "/round" + std::to_string(round);
      std::error_code ec;
      std::filesystem::create_directories(dir, ec);
      if (ec) {
        run.Fail("mkdir " + dir + ": " + ec.message());
        return false;
      }
    }
    std::string error;
    const Stopwatch timer;
    cluster = StartCluster(interval_us, dir, &error);
    run.setup_s.push_back(timer.ElapsedSeconds());
    if (cluster == nullptr) run.Fail(error);
    return cluster != nullptr;
  }

  void AddDrivers(uint32_t clients, uint32_t sessions_per_client) {
    for (uint32_t c = 0; c < clients; ++c) {
      std::shared_ptr<DFasterClient> client =
          cluster->NewClient(kBatch, kWindow);
      for (uint32_t s = 0; s < sessions_per_client; ++s) {
        const uint32_t writer = static_cast<uint32_t>(drivers.size()) + 1;
        drivers.push_back(std::make_unique<SessionDriver>(
            client, writer, &run.slot_of, run.checked.size(), &tracing));
      }
    }
  }

  std::pair<uint64_t, uint64_t> AckedAndCommitted() const {
    uint64_t acked = 0, committed = 0;
    for (const auto& d : drivers) {
      acked += d->acked();
      committed += d->committed();
    }
    return {acked, committed};
  }

  /// The round's measured window: one-second sub-windows (every other one
  /// run-wide traced in a trace run) with the registry snapshotted around
  /// them.
  void Measure() {
    for (auto& d : drivers) d->ResetSamples();
    // The executor peak is a high-water gauge: start it at the window.
    MetricsRegistry::Default().gauge("net.executor.queue_peak")->Set(0);
    const MetricsSnapshot before = MetricsRegistry::Default().Snapshot();
    const uint64_t t0 = NowNanos();
    double peak_rss = RssMb();
    auto last = AckedAndCommitted();
    uint64_t last_ns = t0;
    for (uint32_t i = 0; i < seconds; ++i) {
      const bool traced = run.config.trace && (first_window + i) % 2 == 1;
      tracing.store(traced, std::memory_order_relaxed);
      const uint64_t end = t0 + (i + 1) * kSubWindowNs;
      for (uint64_t now = NowNanos(); now < end; now = NowNanos()) {
        SleepMicros(std::min<uint64_t>(end - now, kRssSampleNs) / 1000);
        peak_rss = std::max(peak_rss, RssMb());
      }
      const auto cur = AckedAndCommitted();
      const uint64_t ns = NowNanos();
      const double secs = (ns - last_ns) / 1e9;
      run.windows.push_back(Window{secs, (cur.first - last.first) / secs,
                                   (cur.second - last.second) / secs,
                                   traced});
      last = cur;
      last_ns = ns;
    }
    tracing.store(false, std::memory_order_relaxed);
    run.layers.Add(before, MetricsRegistry::Default().Snapshot());
    run.rss_mb.push_back(peak_rss);
    if (last.first > last.second) {
      run.uncommitted_tail += last.first - last.second;
    }
  }

  /// After the load stopped: drains every session (all ops answered,
  /// everything issued committed), reads the checked keys back, and moves
  /// the sessions' samples and counts into the run.
  void Finish() {
    for (auto& d : drivers) {
      Status s = d->Drain();
      if (!s.ok()) {
        run.Fail("drain session " + std::to_string(d->writer()) + ": " +
                 s.ToString());
      }
    }
    for (auto& d : drivers) {
      if (d->corrupt() > 0) {
        run.Fail("session " + std::to_string(d->writer()) + " read " +
                 std::to_string(d->corrupt()) +
                 " missing or malformed values");
      }
    }
    ReadBack();
    auto append = [](std::vector<uint64_t>* to,
                     const std::vector<uint64_t>& from) {
      to->insert(to->end(), from.begin(), from.end());
    };
    // The run reports the median of the rounds' op p99s; a p99 needs ten
    // samples beyond it.
    std::vector<uint64_t> op;
    for (auto& d : drivers) append(&op, d->op_ns(false));
    if (!run.config.trace && op.size() < 1000) {
      run.Fail("op_p99_us in round " + std::to_string(round) + " rests on " +
               std::to_string(op.size()) + " samples (< 1000)");
    }
    run.op_p99_us.push_back(
        SamplePercentile("", std::move(op), 99, 1e-3, "").value);
    for (auto& d : drivers) {
      append(&run.op_ns[0], d->op_ns(false));
      append(&run.op_ns[1], d->op_ns(true));
      append(&run.commit_ns, d->commit_ns());
      append(&run.gap_ns, d->gap_ns());
      append(&run.recover_ns, d->recover_ns());
      append(&run.wait_all_ns, d->wait_all_ns());
      append(&run.after_ack_ns, d->after_ack_ns());
      run.issue_ns.Merge(d->issue_ns());
      run.issued += d->issued();
      run.acked += d->acked();
      run.acked_writes += d->acked_writes();
      run.rejected += d->aborted_rejects();
      run.lost += d->lost();
    }
  }

  /// Reads every checked key through a fresh session and checks the value
  /// against the sessions' histories (SessionDriver::Allows).
  void ReadBack() {
    const std::vector<uint64_t>& checked = run.checked;
    // Declared before the session, whose destructor waits for callbacks.
    std::vector<uint64_t> values(checked.size(), 0);
    std::vector<uint8_t> found(checked.size(), 0);
    auto client = cluster->NewClient(kBatch, kWindow);
    auto session = client->NewSession(999);
    // A new session starts on the initial world-line; after failures the
    // workers reject it until it has moved to the current one.
    for (int attempt = 0; attempt < 3; ++attempt) {
      for (size_t slot = 0; slot < checked.size(); ++slot) {
        session->Read(checked[slot],
                      [&values, &found, slot](KvResult r, uint64_t v) {
                        found[slot] = r == KvResult::kOk;
                        values[slot] = v;
                      });
      }
      Status s = session->WaitForAll(kDrainTimeoutMs);
      if (!s.ok()) run.Fail("read-back: " + s.ToString());
      if (!session->needs_failure_handling()) break;
      s = session->RecoverFromFailure(nullptr);
      if (!s.ok()) run.Fail("read-back session recovery: " + s.ToString());
    }
    uint64_t mismatches = 0;
    for (size_t slot = 0; slot < checked.size(); ++slot) {
      const uint64_t key = checked[slot];
      const uint64_t v = values[slot];
      bool ok = found[slot] && WellFormed(key, v);
      if (ok && WriterOf(v) == 0) {
        // The preload value: no session may have a committed write here.
        for (auto& d : drivers) ok = ok && !d->HasCommittedWrite(slot);
      } else if (ok) {
        ok = WriterOf(v) <= drivers.size() &&
             drivers[WriterOf(v) - 1]->Allows(slot, CounterOf(v));
      }
      if (!ok && mismatches++ == 0) {
        run.Fail("read-back: key " + std::to_string(key) + " holds writer " +
                 std::to_string(WriterOf(v)) + " write " +
                 std::to_string(CounterOf(v)) +
                 ", which that writer's history excludes");
      }
    }
    if (mismatches > 1) {
      run.Fail("read-back: " + std::to_string(mismatches) +
               " keys mismatched in round " + std::to_string(round));
    }
    run.keys_read_back += checked.size();
    run.result->attempted += checked.size();
    run.result->failed += mismatches;
  }

  ~Round() {
    drivers.clear();
    cluster.reset();
  }
};

namespace json {

template <typename T>
void Write(JsonWriter* w, const char* key, const std::vector<T>& v) {
  w->Key(key).BeginArray();
  for (T x : v) {
    if constexpr (std::is_floating_point_v<T>) {
      w->Double(x);
    } else {
      w->UInt(x);
    }
  }
  w->EndArray();
}

template <typename T>
void Read(const JsonValue& v, const char* key, std::vector<T>* out) {
  const JsonValue* a = v.Find(key);
  if (a == nullptr) return;
  for (const JsonValue& x : a->array()) {
    if constexpr (std::is_floating_point_v<T>) {
      out->push_back(x.number());
    } else {
      out->push_back(x.uint_value());
    }
  }
}

uint64_t Uint(const JsonValue& v, const char* key) {
  const JsonValue* x = v.Find(key);
  return x == nullptr ? 0 : x->uint_value();
}

}  // namespace json

void Run::WriteJson(JsonWriter* w) const {
  w->BeginObject();
  w->Key("errors").BeginArray();
  for (const std::string& e : result->errors) w->String(e);
  w->EndArray();
  w->Key("attempted").UInt(result->attempted);
  w->Key("failed").UInt(result->failed);
  json::Write(w, "setup_s", setup_s);
  json::Write(w, "rss_mb", rss_mb);
  json::Write(w, "op_p99_us", op_p99_us);
  w->Key("windows").BeginArray();
  for (const Window& win : windows) {
    w->BeginArray();
    w->Double(win.seconds).Double(win.acked_per_s).Double(win.committed_per_s);
    w->Bool(win.traced);
    w->EndArray();
  }
  w->EndArray();
  w->Key("layers");
  layers.WriteJson(w);
  json::Write(w, "op_ns0", op_ns[0]);
  json::Write(w, "op_ns1", op_ns[1]);
  json::Write(w, "commit_ns", commit_ns);
  json::Write(w, "gap_ns", gap_ns);
  json::Write(w, "recover_ns", recover_ns);
  json::Write(w, "wait_all_ns", wait_all_ns);
  json::Write(w, "after_ack_ns", after_ack_ns);
  json::Write(w, "inject_ns", inject_ns);
  w->Key("issue_ns");
  HistogramToJson(issue_ns, w);
  w->Key("issued").UInt(issued);
  w->Key("acked").UInt(acked);
  w->Key("acked_writes").UInt(acked_writes);
  w->Key("rejected").UInt(rejected);
  w->Key("lost").UInt(lost);
  w->Key("uncommitted_tail").UInt(uncommitted_tail);
  w->Key("keys_read_back").UInt(keys_read_back);
  w->Key("late_ms_max").Double(late_ms_max);
  w->EndObject();
}

Status Run::MergeJson(const JsonValue& v) {
  const JsonValue* errors = v.Find("errors");
  const JsonValue* win = v.Find("windows");
  const JsonValue* lay = v.Find("layers");
  const JsonValue* issue = v.Find("issue_ns");
  if (errors == nullptr || win == nullptr || lay == nullptr ||
      issue == nullptr) {
    return Status::Corruption("round result: missing section");
  }
  for (const JsonValue& e : errors->array()) Fail(e.string_value());
  result->attempted += json::Uint(v, "attempted");
  result->failed += json::Uint(v, "failed");
  json::Read(v, "setup_s", &setup_s);
  json::Read(v, "rss_mb", &rss_mb);
  json::Read(v, "op_p99_us", &op_p99_us);
  for (const JsonValue& x : win->array()) {
    if (x.array().size() != 4) return Status::Corruption("bad window");
    windows.push_back(Window{x.array()[0].number(), x.array()[1].number(),
                             x.array()[2].number(),
                             x.array()[3].bool_value()});
  }
  DPR_RETURN_NOT_OK(layers.MergeJson(*lay));
  json::Read(v, "op_ns0", &op_ns[0]);
  json::Read(v, "op_ns1", &op_ns[1]);
  json::Read(v, "commit_ns", &commit_ns);
  json::Read(v, "gap_ns", &gap_ns);
  json::Read(v, "recover_ns", &recover_ns);
  json::Read(v, "wait_all_ns", &wait_all_ns);
  json::Read(v, "after_ack_ns", &after_ack_ns);
  json::Read(v, "inject_ns", &inject_ns);
  Histogram h;
  DPR_RETURN_NOT_OK(HistogramFromJson(*issue, &h));
  issue_ns.Merge(h);
  issued += json::Uint(v, "issued");
  acked += json::Uint(v, "acked");
  acked_writes += json::Uint(v, "acked_writes");
  rejected += json::Uint(v, "rejected");
  lost += json::Uint(v, "lost");
  uncommitted_tail += json::Uint(v, "uncommitted_tail");
  keys_read_back += json::Uint(v, "keys_read_back");
  const JsonValue* late = v.Find("late_ms_max");
  if (late != nullptr) late_ms_max = std::max(late_ms_max, late->number());
  return Status::OK();
}

Metric RoundsP99(const std::string& name, const std::vector<double>& p99s,
                 uint64_t samples, const std::string& unit) {
  std::string rounds;
  for (double v : p99s) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), " %.4g", v);
    rounds += buf;
  }
  return Metric{name, Median(p99s), unit, samples,
                "median of the rounds' p99s:" + rounds};
}

void Run::Report() {
  auto& e2e = result->end_to_end;
  e2e.push_back(Metric{"setup_s", Median(setup_s), "s", setup_s.size(),
                       "median of the rounds' set-ups"});
  std::vector<double> mops[2], committed;
  for (const Window& w : windows) {
    mops[w.traced].push_back(w.acked_per_s / 1e6);
    if (!w.traced) committed.push_back(w.committed_per_s / 1e6);
  }
  std::string per_window;
  for (double v : mops[0]) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), " %.4g", v);
    per_window += buf;
  }
  e2e.push_back(Metric{"throughput_mops", Median(mops[0]), "Mops",
                       mops[0].size(),
                       "median of 1 s sub-windows:" + per_window});
  e2e.push_back(Metric{"committed_mops", Median(committed), "Mops",
                       committed.size(), "median of 1 s sub-windows"});
  e2e.push_back(SamplePercentile("op_p50_us", op_ns[0], 50, 1e-3, "us"));
  e2e.push_back(RoundsP99("op_p99_us", op_p99_us, op_ns[0].size(), "us"));
  e2e.push_back(SamplePercentile("commit_p50_ms", commit_ns, 50, 1e-6, "ms"));
  // Commit latency is pooled over the rounds: each round's cluster has its
  // own checkpoint-timer phase, and the pool averages over those phases.
  e2e.push_back(SamplePercentile("commit_p99_ms", commit_ns, 99, 1e-6, "ms"));
  if (!config.trace && commit_ns.size() < 1000) {
    Fail("commit_p99_ms rests on " + std::to_string(commit_ns.size()) +
         " samples (< 1000)");
  }
  // A round's peak moves in steps (buffers grow by doubling), so the
  // median over rounds would jump between steps; the mean moves smoothly.
  e2e.push_back(Metric{
      "peak_rss_mb",
      std::accumulate(rss_mb.begin(), rss_mb.end(), 0.0) /
          std::max<size_t>(rss_mb.size(), 1),
      "MB", rss_mb.size(), "mean over rounds of the window's sampled peak"});
  double window_s = 0;
  for (const Window& w : windows) window_s += w.seconds;
  AddLayerMetrics(layers, window_s, acked_writes * 16, result);
  const Metric gap =
      SamplePercentile("recovery.gap_ms_p50", gap_ns, 50, 1e-6, "ms");
  auto& layer = result->per_layer;
  layer.push_back(Percentile("client.issue_us_p99", issue_ns, 99, 1e-3, "us"));
  layer.push_back(SamplePercentile("client.wait_for_all_us_p50", wait_all_ns,
                                   50, 1e-3, "us"));
  layer.push_back(SamplePercentile("client.commit_after_ack_ms_p50",
                                   after_ack_ns, 50, 1e-6, "ms"));
  layer.push_back(
      SamplePercentile("session.recover_ms_p50", recover_ns, 50, 1e-6, "ms"));
  layer.push_back(SamplePercentile("recovery.inject_failure_ms_p50",
                                   inject_ns, 50, 1e-6, "ms"));
  layer.push_back(gap);
  const double aborted = issued ? static_cast<double>(lost) / issued : 0;
  layer.push_back(Metric{"recovery.aborted_frac", aborted, "ratio", 0,
                         "rolled_back=" + std::to_string(lost) +
                             " / issued=" + std::to_string(issued)});
  layer.push_back(Metric{"loadgen.late_ms_max", late_ms_max, "ms", 0,
                         "failover open loop only"});
  // Tracing overhead: traced minus untraced sub-windows of this run.
  const bool paired = config.trace && !mops[1].empty();
  const double p50_delta =
      SamplePercentile("", op_ns[1], 50, 1e-3, "us").value -
      SamplePercentile("", op_ns[0], 50, 1e-3, "us").value;
  layer.push_back(Metric{"trace.overhead_mops",
                         paired ? Median(mops[1]) - Median(mops[0]) : 0,
                         "Mops", 0, "traced - untraced sub-windows"});
  layer.push_back(Metric{"trace.overhead_op_p50_us", paired ? p50_delta : 0,
                         "us", 0, "traced - untraced sub-windows"});

  // Op accounting: attempted minus acknowledged, with recovery aborts kept
  // apart from failures.
  const uint64_t failed =
      issued > acked + rejected ? issued - acked - rejected : 0;
  result->attempted += issued;
  result->failed += failed;
  auto& info = result->info;
  info.push_back(Metric{
      "failed_frac", issued ? static_cast<double>(failed) / issued : 0,
      "ratio", 0,
      "(issued - acked_ok - recovery_rejects)=" + std::to_string(failed) +
          " / issued=" + std::to_string(issued)});
  info.push_back(Metric{"aborted_frac", aborted, "ratio", 0,
                        "rolled_back=" + std::to_string(lost) +
                            " / issued=" + std::to_string(issued)});
  info.push_back(Metric{"recovery_gap_ms", gap.value, "ms", gap.samples,
                        "p50 over failures"});
  info.push_back(Metric{"commit.uncommitted_tail_ops",
                        static_cast<double>(uncommitted_tail), "ops", 0,
                        "acked but not committed at each window's end"});
  info.push_back(Metric{"check.keys_read_back",
                        static_cast<double>(keys_read_back), "keys", 0, ""});
}

// ------------------------------------------------------------ workloads

// Closed loop at saturation: two sessions, each issuing as fast as its
// window admits.
void RunClosed(Round& r) {
  if (!r.SetUp(kIntervalUs, /*file_backed=*/false)) return;
  r.AddDrivers(2, 1);
  constexpr uint64_t kSampleStride = 256;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < r.drivers.size(); ++t) {
    threads.emplace_back([&r, t] {
      SessionDriver& d = *r.drivers[t];
      const std::vector<uint64_t> ops =
          Pregen(r.run.config.seed * 31 + r.round * 7 + t);
      uint64_t n = 0;
      while (!r.stop.load(std::memory_order_relaxed)) {
        for (int i = 0; i < 256; ++i, ++n) {
          const uint64_t op = ops[n % kPregenOps];
          const bool sampled = n % kSampleStride == 0;
          d.Issue(op & ~kReadBit, op & kReadBit, sampled,
                  sampled ? NowNanos() : 0);
        }
        d.Maintain();
      }
    });
  }
  SleepMicros(kWarmupNs / 1000);
  r.Measure();
  r.stop.store(true);
  for (auto& t : threads) t.join();
  r.Finish();
}

// Open loop: one generator thread issues at kFailoverRate ops/s on a fixed
// schedule and times each op from when it was due, while an injector
// crashes alternating workers at fixed times in the window.
void RunFailover(Round& r, uint32_t failures) {
  if (!r.SetUp(kIntervalUs, /*file_backed=*/false)) return;
  r.AddDrivers(1, 1);
  SessionDriver& d = *r.drivers[0];
  constexpr uint64_t kSampleStride = 64;
  // relaxed: a statistic, read after the join.
  std::atomic<uint64_t> late_max_ns{0};
  std::atomic<bool> measuring{false};
  std::thread gen([&] {
    // Sleeps end within microseconds of the requested time, which keeps
    // the generator on schedule.
    prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
    const std::vector<uint64_t> ops =
        Pregen(r.run.config.seed * 31 + r.round * 7);
    const double period_ns = 1e9 / kFailoverRate;
    const uint64_t t0 = NowNanos();
    uint64_t i = 0;
    uint64_t next_maintain = t0;
    while (!r.stop.load(std::memory_order_relaxed)) {
      uint64_t now = NowNanos();
      const uint64_t due_by_now =
          static_cast<uint64_t>((now - t0) / period_ns) + 1;
      const bool measured = measuring.load(std::memory_order_relaxed);
      while (i < due_by_now) {
        const uint64_t due = t0 + static_cast<uint64_t>(i * period_ns);
        if (measured && now > due &&
            now - due > late_max_ns.load(std::memory_order_relaxed)) {
          late_max_ns.store(now - due, std::memory_order_relaxed);
        }
        const uint64_t op = ops[i % kPregenOps];
        d.Issue(op & ~kReadBit, op & kReadBit, i % kSampleStride == 0, due);
        ++i;
        if ((i & 31) == 0) now = NowNanos();
      }
      if (now >= next_maintain) {
        d.Maintain();
        next_maintain = now + 1000000;
      }
      const uint64_t next_due = t0 + static_cast<uint64_t>(i * period_ns);
      now = NowNanos();
      if (next_due > now) SleepMicros((next_due - now) / 1000);
    }
  });
  SleepMicros(kWarmupNs / 1000);
  measuring.store(true);

  std::vector<uint64_t> inject_ns;
  const uint64_t span_ns = r.seconds * kSubWindowNs;
  const uint64_t start = NowNanos();
  std::thread injector([&r, &d, &inject_ns, failures, span_ns, start] {
    for (uint32_t k = 0; k < failures; ++k) {
      const uint64_t at = start + (2 * k + 1) * span_ns / (2 * failures);
      const uint64_t now = NowNanos();
      if (at > now) SleepMicros((at - now) / 1000);
      const uint64_t t = NowNanos();
      d.NoteFailureInjected(t);
      const WorkerId victim = (r.round + k) % kWorkers;
      Status s = r.cluster->InjectFailure({victim});
      inject_ns.push_back(NowNanos() - t);
      if (!s.ok()) r.run.Fail("inject failure: " + s.ToString());
    }
  });
  r.Measure();
  injector.join();
  r.stop.store(true);
  gen.join();
  r.run.late_ms_max =
      std::max(r.run.late_ms_max, late_max_ns.load() / 1e6);
  r.run.inject_ns.insert(r.run.inject_ns.end(), inject_ns.begin(),
                         inject_ns.end());
  r.Finish();
}

// Durable puts: each session upserts kPutsPerCommit keys, then blocks in
// WaitForAll and WaitForCommit (timed apart), on file-backed devices with a
// short checkpoint interval. A seeded think time of up to one interval
// before each round keeps the sessions from locking onto the checkpoint
// rhythm (in lockstep, the commit wait depends on a phase fixed at start).
// Sessions write disjoint keys, so every committed put has one exact
// expected value at read-back.
void RunDurablePut(Round& r) {
  if (!r.SetUp(kDurableIntervalUs, /*file_backed=*/true)) return;
  r.AddDrivers(2, kDurableSessions / 2);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < r.drivers.size(); ++t) {
    threads.emplace_back([&r, t] {
      SessionDriver& d = *r.drivers[t];
      Random rng(r.run.config.seed * 131 + r.round * 7 + t);
      const uint64_t stride = r.drivers.size();
      uint64_t starts[kPutsPerCommit];
      while (!r.stop.load(std::memory_order_relaxed)) {
        SleepMicros(rng.Uniform(kDurableIntervalUs));
        for (uint32_t j = 0; j < kPutsPerCommit; ++j) {
          const uint64_t key = rng.Uniform(kNumKeys / stride) * stride + t;
          starts[j] = NowNanos();
          d.Issue(key, /*read=*/false, /*sampled=*/true, starts[j],
                  /*marker_commits=*/false);
        }
        const uint64_t t1 = NowNanos();
        Status s = d.session().WaitForAll(kDrainTimeoutMs);
        const uint64_t t2 = NowNanos();
        if (s.ok()) s = d.session().WaitForCommit(kDrainTimeoutMs);
        const uint64_t t3 = NowNanos();
        if (!s.ok()) {
          r.run.Fail("session " + std::to_string(d.writer()) +
                     " WaitForCommit: " + s.ToString());
          break;
        }
        d.AddCommitWait(starts, kPutsPerCommit, t2 - t1, t3 - t2, t3);
        d.Maintain();
      }
    });
  }
  SleepMicros(kWarmupNs / 1000);
  r.Measure();
  r.stop.store(true);
  for (auto& t : threads) t.join();
  r.Finish();
}

bool WriteAll(int fd, const std::string& data) {
  for (size_t off = 0; off < data.size();) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

std::string ReadAll(int fd) {
  std::string out;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return out;
    out.append(buf, static_cast<size_t>(n));
  }
}

// Runs one round in a child process and merges what it measured into
// `run`. Every round starts from a fresh process, so state that lives as
// long as a process (thread placement, the process-wide client ring, the
// heap, the metrics registry) varies between rounds, where the median over
// rounds absorbs it, instead of between runs. The parent creates no
// threads, which keeps fork() safe.
void RunRoundInChild(Run& run, uint32_t index, uint32_t secs,
                     uint32_t first_window,
                     const std::function<void(Round&)>& body) {
  int fds[2];
  if (pipe(fds) != 0) {
    run.Fail(std::string("pipe: ") + std::strerror(errno));
    return;
  }
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) {
    run.Fail(std::string("fork: ") + std::strerror(errno));
    close(fds[0]);
    close(fds[1]);
    return;
  }
  if (pid == 0) {
    close(fds[0]);
    RunResult child_result;
    Run child(run.config, &child_result);
    child.slot_of = run.slot_of;
    child.checked = run.checked;
    {
      Round round(child, index, secs, first_window);
      body(round);
    }
    JsonWriter w;
    child.WriteJson(&w);
    _exit(WriteAll(fds[1], w.str()) ? 0 : 1);
  }
  close(fds[1]);
  const std::string payload = ReadAll(fds[0]);
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    run.Fail("round " + std::to_string(index) + ": child process " +
             (WIFSIGNALED(status)
                  ? "killed by signal " + std::to_string(WTERMSIG(status))
                  : "exited with " + std::to_string(WEXITSTATUS(status))));
    return;
  }
  JsonValue v;
  Status s = JsonValue::Parse(payload, &v);
  if (s.ok()) s = run.MergeJson(v);
  if (!s.ok()) {
    run.Fail("round " + std::to_string(index) + " result: " + s.ToString());
  }
}

}  // namespace

RunResult RunWorkload(const RunConfig& config) {
  RunResult result;
  const std::string& w = config.workload;
  if (w != "ycsb_closed" && w != "failover" && w != "durable_put") {
    result.errors.push_back("unknown workload '" + w + "'");
    return result;
  }
  std::error_code ec;
  std::filesystem::remove_all(config.tmp_dir, ec);
  Run run(config, &result);
  run.ChooseCheckedKeys(/*all=*/w == "durable_put");
  const uint32_t rounds =
      std::clamp(config.seconds / kMinRoundSeconds, 1u, kRounds);
  // At least kMinFailures in a run, whatever the number of rounds.
  const uint32_t failures_per_round =
      std::max(kFailuresPerRound, (kMinFailures + rounds - 1) / rounds);
  auto body = [&](Round& round) {
    if (w == "ycsb_closed") {
      RunClosed(round);
    } else if (w == "failover") {
      RunFailover(round, failures_per_round);
    } else {
      RunDurablePut(round);
    }
  };
  uint32_t first_window = 0;
  for (uint32_t i = 0; i < rounds && result.errors.empty(); ++i) {
    const uint32_t secs =
        config.seconds / rounds + (i < config.seconds % rounds ? 1 : 0);
    RunRoundInChild(run, i, secs, first_window, body);
    first_window += secs;
  }
  std::filesystem::remove_all(config.tmp_dir, ec);
  if (run.windows.empty()) return result;  // set-up failed
  run.Report();
  if (w == "durable_put") {
    result.info.push_back(Metric{"durable.waits",
                                 static_cast<double>(run.after_ack_ns.size()),
                                 "waits", 0,
                                 "WaitForCommit calls in the windows"});
    // Memory devices would make the commit path free; insist on fsyncs.
    if (run.layers.counter("storage.sched.fsyncs") == 0) {
      run.Fail("no fsyncs in the window: devices are not file-backed");
    }
  }
  if (w == "failover" && run.gap_ns.size() < kMinFailures) {
    run.Fail("only " + std::to_string(run.gap_ns.size()) +
             " failures recovered (want >= " + std::to_string(kMinFailures) +
             ")");
  }
  return result;
}

}  // namespace dpr::perfbench
