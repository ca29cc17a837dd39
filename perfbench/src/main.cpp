// wanplace benchmark binary.
//
//   perfbench --workload <select-q99|serve-demand|serve-churn> --seed <n>
//             --seconds <s> --trace <0|1> --dir <scratch dir> [--commit <id>]
//
// Generates the seeded inputs into --dir, runs the workload, checks every
// result, and prints a meta line, every metric by name and unit, the
// deterministic digest, and as the last line the result object. Normally
// started through perfbench/run.py, which builds this binary first.
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.h"
#include "inputs.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

[[noreturn]] void usage(const std::string& message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --dir DIR [--commit ID]\n",
               message.c_str());
  std::exit(2);
}

perfbench::Args parse(int argc, char** argv) {
  perfbench::Args args;
  bool have_workload = false, have_dir = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      std::size_t used = 0;
      if (flag == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value, &used);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value, &used);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--dir") {
        args.dir = value;
        have_dir = true;
      } else if (flag == "--commit") {
        args.commit = value;
      } else {
        usage("unknown flag " + flag);
      }
      if (used != 0 && used != value.size()) usage("bad value for " + flag);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag);
    }
  }
  if (!have_workload || !have_dir) usage("--workload and --dir are required");
  if (!(args.seconds > 0)) usage("--seconds must be positive");
  return args;
}

// CPUs this process may run on, as nproc(1) reports them.
std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 0;
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

std::string meta_json(const perfbench::Args& args) {
  std::string out = "{\"workload\": \"" + args.workload + "\"";
  out += ", \"seed\": " + std::to_string(args.seed);
  out += ", \"seconds\": " + perfbench::number(args.seconds);
  out += ", \"trace\": " + std::string(args.trace ? "1" : "0");
  out += ", \"nproc\": " + std::to_string(nproc());
  out += ", \"compiler\": \"" + std::string(
#if defined(__clang__)
                                   "clang "
#elif defined(__GNUC__)
                                   "gcc "
#endif
                                   __VERSION__) + "\"";
  out += ", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\"";
  out += ", \"commit\": \"" + (args.commit.empty() ? "unknown" : args.commit) +
         "\"";
  out += ", \"selector_parallelism\": 2, \"bound_parallelism\": 1}";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse(argc, argv);
  const auto* spec = perfbench::find_workload(args.workload);
  if (spec == nullptr) usage("unknown workload " + args.workload);
  try {
    const auto files = perfbench::write_inputs(*spec, args.seed, args.dir);
    perfbench::Sheet sheet;
    if (spec->serve)
      perfbench::run_serve(args, *spec, files, sheet);
    else
      perfbench::run_select(args, *spec, files, sheet);
    if (sheet.attempted() == 0) {
      std::fprintf(stderr, "perfbench: no operation was attempted\n");
      return 1;
    }
    const auto& expected = args.trace ? perfbench::per_layer_names()
                                      : perfbench::end_to_end_names();
    return sheet.print(expected, meta_json(args)) ? 0 : 1;
  } catch (const std::exception& err) {
    std::fprintf(stderr, "perfbench: %s\n", err.what());
    return 1;
  }
}
