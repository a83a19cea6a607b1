/**
 * @file
 * The benchmark's workloads and what each run reports.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util.h"

namespace pb {

/** Command-line settings of one run. */
struct RunArgs {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    uint64_t start_ns = 0;   ///< process start, for setup_s
    std::string self_exe;    ///< this binary, for the server process
};

/** What one run prints. */
struct RunResult {
    uint64_t attempted = 0, failed = 0;
    std::vector<std::string> errors;   ///< incorrect outputs and failed checks
    Metrics e2e;                       ///< end-to-end metrics
    Metrics layer;                     ///< per-layer ledger
};

/** read_miss, update_gc or scan; false when @p a.workload is none. */
bool runInProcess(const RunArgs &a, RunResult *r);

/**
 * The net layer's ledger (net.*): the RESP server as its own process,
 * driven open loop; adds its operations and errors to @p r.
 */
void probeWire(const RunArgs &a, RunResult *r);

/** Server process for probeWire; returns the exit code. */
int serveMain(int argc, char **argv);

}  // namespace pb
