// scnet_perfbench: runs one workload and prints one JSON object (config,
// checks, end-to-end and per-layer metrics) on its last stdout line.
// perfbench/run.py builds this binary, launches it with a scrubbed
// environment and turns the object into the report.
//
//   scnet_perfbench --workload sort_mixed --seed 1 --seconds 10 --trace 0
//                   [--trace-out spans.json]
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "checks.h"
#include "core/cost_model.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "topo/topology.h"
#include "tune/profile.h"
#include "workloads.h"

extern char** environ;

namespace perfbench {

namespace {

std::shared_ptr<const scn::topo::HardwareTopology> g_topology;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

template <typename Map, typename Fn>
void write_object(std::ostream& out, const Map& map, Fn value) {
  out << "{";
  bool first = true;
  for (const auto& [key, v] : map) {
    out << (first ? "" : ",") << json_string(key) << ":" << value(v);
    first = false;
  }
  out << "}";
}

std::string metric_json(const Metric& m) {
  return "{\"value\":" + json_number(m.value) + ",\"unit\":" +
         json_string(m.unit) + "}";
}

int usage(const char* why) {
  std::cerr << "scnet_perfbench: " << why
            << "\nusage: scnet_perfbench --workload <sort_mixed|count_mixed|"
               "service_next|service_increment> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <path>]\n";
  return 2;
}

}  // namespace

scn::Runtime::Options runtime_options(std::size_t threads) {
  scn::Runtime::Options o;
  o.threads = threads;
  o.plan_cache_capacity = 64;
  o.pass_level = scn::PassLevel::kDefault;
  o.module_cache = true;
  o.backend = scn::EngineBackend::kAuto;
  o.topology = g_topology;
  o.placement = true;
  return o;
}

void set_topology(std::shared_ptr<const scn::topo::HardwareTopology> topology) {
  g_topology = std::move(topology);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig cfg;
  cfg.nproc = std::max(1u, std::thread::hardware_concurrency());
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        cfg.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        cfg.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        cfg.seconds = std::stod(value);
      } else if (arg == "--trace") {
        cfg.trace = value == "1";
      } else if (arg == "--trace-out") {
        cfg.trace_path = value;
      } else {
        return usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + arg).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (!(cfg.seconds > 0)) return usage("--seconds must be positive");
  if (kSanitized) {
    std::cerr << "scnet_perfbench: refusing to report from a sanitizer build\n";
    return 3;
  }

  Result (*run)(const RunConfig&) = nullptr;
  if (cfg.workload == "sort_mixed") run = run_sort_mixed;
  if (cfg.workload == "count_mixed") run = run_count_mixed;
  if (cfg.workload == "service_next") run = run_service_next;
  if (cfg.workload == "service_increment") run = run_service_increment;
  if (run == nullptr) return usage(("unknown workload " + cfg.workload).c_str());

  set_topology(std::make_shared<const scn::topo::HardwareTopology>(
      scn::topo::HardwareTopology::detect()));

  const bool self_test_ok = self_test();
  Result r = run(cfg);
  require(r, "checker_self_test", self_test_ok);

  // The central-counter baseline at the workload's client thread count:
  // a per-layer canary on traced runs and, for service_next, the paper's
  // claim (network counter vs central counter) on every run.
  unsigned clients = 1;
  if (cfg.workload == "service_next") clients = cfg.nproc;
  if (cfg.workload == "service_increment") clients = std::max(1u, cfg.nproc - 2);
  if (cfg.trace || cfg.workload == "service_next") {
    const double atomic = atomic_items_per_s(clients, 0.5);
    if (cfg.trace) r.per_layer["count.atomic_items_per_s"] = {atomic, "items/s"};
    if (cfg.workload == "service_next") {
      r.notes["paper_claim.network_over_atomic"] =
          json_number(r.end_to_end["items_per_s"].value / atomic);
      r.notes["paper_claim.threads"] = std::to_string(clients);
    }
  }
  r.end_to_end["peak_rss_mb"] = {peak_rss_mib(), "MiB"};

  std::map<std::string, std::string> config;
  config["workload"] = cfg.workload;
  config["seed"] = std::to_string(cfg.seed);
  config["seconds"] = json_number(cfg.seconds);
  config["trace"] = cfg.trace ? "1" : "0";
  config["build_type"] = PERFBENCH_BUILD_TYPE;
  config["march_native"] = PERFBENCH_MARCH_NATIVE ? "true" : "false";
  config["builder_checks_enabled"] =
      scn::builder_checks_enabled() ? "true" : "false";
  config["obs_compiled_in"] = scn::obs::compiled_in() ? "true" : "false";
  config["nproc"] = std::to_string(cfg.nproc);
  config["cpu_model"] = cpu_model();
  config["machine_profile_fingerprint"] = scn::tune::MachineProfile().fingerprint();
  config["topology_nodes"] = std::to_string(g_topology->node_count());
  // run.py strips SCNET_* before launching; anything listed here reached
  // the binary some other way and could have changed what was measured.
  std::string env_seen;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "SCNET_", 6) != 0) continue;
    if (!env_seen.empty()) env_seen += ' ';
    env_seen += *e;
  }
  config["scnet_env_seen_by_binary"] = env_seen;

  bool correct = r.failed == 0 && r.attempted > 0;
  for (const auto& [name, ok] : r.checks) correct = correct && ok;

  std::ostringstream out;
  out << "{\"correct\":" << (correct ? "true" : "false")
      << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
      << ",\"config\":";
  write_object(out, config, json_string);
  out << ",\"checks\":";
  write_object(out, r.checks,
               [](bool ok) { return std::string(ok ? "true" : "false"); });
  out << ",\"notes\":";
  write_object(out, r.notes, json_string);
  out << ",\"end_to_end\":";
  write_object(out, r.end_to_end, metric_json);
  out << ",\"per_layer\":";
  write_object(out, r.per_layer, metric_json);
  out << "}";
  std::cout << out.str() << std::endl;
  return 0;
}
