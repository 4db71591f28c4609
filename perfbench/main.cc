// dpr_perfbench --workload NAME --seed N --seconds S --trace 0|1
//               --tmp_dir DIR
//
// Prints the host fingerprint, every metric by name with its unit (and the
// sample count behind each percentile), and as the last line one JSON
// object {"correct","attempted","failed","metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1.
#include <sys/utsname.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <string>

#include "net/tcp_net.h"
#include "obs/json.h"
#include "perfbench.h"
#include "storage/async_io.h"

namespace dpr::perfbench {
namespace {

bool ParseArgs(int argc, char** argv, RunConfig* config) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      config->workload = value;
    } else if (flag == "--seed") {
      config->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      config->seconds =
          static_cast<uint32_t>(std::strtoul(value.c_str(), &end, 10));
    } else if (flag == "--trace") {
      config->trace = value == "1";
    } else if (flag == "--tmp_dir") {
      config->tmp_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
    if (end != nullptr && *end != '\0') {
      std::fprintf(stderr, "bad value for %s: %s\n", flag.c_str(),
                   value.c_str());
      return false;
    }
  }
  if (argc % 2 == 0 || config->workload.empty() || config->seconds == 0 ||
      config->seconds > 600 || config->tmp_dir.empty()) {
    std::fprintf(stderr,
                 "usage: dpr_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --tmp_dir DIR\n");
    return false;
  }
  return true;
}

void PrintFingerprint(const RunConfig& config) {
  utsname u{};
  uname(&u);
  JsonWriter w;
  w.BeginObject();
  w.Key("nproc").Int(sysconf(_SC_NPROCESSORS_ONLN));
  w.Key("kernel").String(std::string(u.sysname) + " " + u.release);
  // Probes only: this process forks the rounds and must stay thread-free.
  w.Key("net_backend")
      .String(ResolveNetBackend(NetBackend::kAuto) == NetBackend::kIoUring
                  ? "io_uring"
                  : "epoll");
  w.Key("io_engine").String(IoUringSupported() ? "io_uring" : "thread_pool");
  w.Key("build_type").String(DPR_PERFBENCH_BUILD_TYPE);
  w.Key("workload").String(config.workload);
  w.Key("seed").UInt(config.seed);
  w.Key("seconds").UInt(config.seconds);
  w.Key("trace").Bool(config.trace);
  w.EndObject();
  std::printf("host %s\n", w.str().c_str());
}

void PrintMetrics(const char* section, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-10s %-34s %14.6g %-6s", section, m.name.c_str(), m.value,
                m.unit.c_str());
    if (m.samples > 0) std::printf("  n=%llu", (unsigned long long)m.samples);
    if (!m.base.empty()) std::printf("  (%s)", m.base.c_str());
    std::printf("\n");
  }
}

}  // namespace
}  // namespace dpr::perfbench

int main(int argc, char** argv) {
  using namespace dpr::perfbench;
  RunConfig config;
  if (!ParseArgs(argc, argv, &config)) return 2;
  PrintFingerprint(config);
  std::fflush(stdout);

  RunResult result = RunWorkload(config);

  PrintMetrics("e2e", result.end_to_end);
  PrintMetrics("layer", result.per_layer);
  PrintMetrics("info", result.info);
  const std::vector<Metric>& emitted =
      config.trace ? result.per_layer : result.end_to_end;
  for (const Metric& m : emitted) {
    if (!std::isfinite(m.value)) {
      result.errors.push_back(m.name + " is not a finite number");
    }
  }
  for (const std::string& e : result.errors) {
    std::printf("error %s\n", e.c_str());
  }
  dpr::JsonWriter w;
  w.BeginObject();
  w.Key("correct").Bool(result.errors.empty());
  w.Key("attempted").UInt(std::max<uint64_t>(result.attempted, 1));
  w.Key("failed").UInt(result.failed);
  w.Key("metrics").BeginObject();
  for (const Metric& m : emitted) {
    w.Key(m.name).BeginObject();
    w.Key("value").Double(std::isfinite(m.value) ? m.value : 0.0);
    w.Key("unit").String(m.unit);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
  return 0;
}
