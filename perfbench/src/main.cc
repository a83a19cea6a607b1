/**
 * @file
 * perfbench — the Prism benchmark driver.
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *   perfbench selftest
 *
 * Prints a human-readable report on stderr and, as the last line of
 * stdout, one JSON object: {"correct", "attempted", "failed", "metrics"}.
 * With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
 * per-layer ledger, and read_miss's traced run adds the wire probe
 * (`perfbench serve` is that probe's server process, started by the
 * driver itself).
 */
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "model.h"
#include "util.h"
#include "workloads.h"

namespace {

struct Named {
    const char *name;
    const char *unit;
};

// Must match BENCHMARK.json (run.py checks the printed names against it).
constexpr Named kEndToEnd[] = {
    {"setup_s", "s"},       {"throughput_kops", "kop/s"},
    {"p50_us", "us"},       {"p90_us", "us"},
    {"ssd_write_amp", "x"}, {"peak_rss_mb", "MB"},
};

constexpr Named kPerLayer[] = {
    {"kv.get_p50_us", "us"},
    {"kv.get_p99_us", "us"},
    {"kv.put_p50_us", "us"},
    {"kv.put_p99_us", "us"},
    {"kv.scan_p50_us", "us"},
    {"kv.scan_p99_us", "us"},
    {"net.wire_p50_us", "us"},
    {"net.wire_p99_us", "us"},
    {"net.engine_p50_us", "us"},
    {"net.engine_p99_us", "us"},
    {"net.loop_p50_us", "us"},
    {"net.loop_p99_us", "us"},
    {"net.null_p50_us", "us"},
    {"net.null_p99_us", "us"},
    {"net.gen_lag_p99_us", "us"},
    {"net.backpressure", "count"},
    {"core.get_src.pwb", "per_kget"},
    {"core.get_src.svc", "per_kget"},
    {"core.get_src.vs", "per_kget"},
    {"core.svc.hit_ratio", "ratio"},
    {"core.svc.admissions_per_kop", "per_kop"},
    {"core.svc.evictions_per_kop", "per_kop"},
    {"core.svc.scan_reorgs", "count"},
    {"core.tcq.batches", "count"},
    {"core.tcq.reqs_per_batch", "reqs"},
    {"core.vs.gc_passes", "count"},
    {"core.vs.gc_moved_mb", "MB"},
    {"core.vs.gc_pass_ms_p50", "ms"},
    {"core.vs.gc_reclaimed_chunks", "count"},
    {"core.vs.read_retries", "count"},
    {"core.pwb.append_mb", "MB"},
    {"core.pwb.stalled_puts", "count"},
    {"core.pwb.stall_ms_total", "ms"},
    {"core.pwb.reclaim_passes", "count"},
    {"core.pwb.reclaimed_values", "count"},
    {"core.pwb.deferred_values", "count"},
    {"core.pwb.dedup_ratio", "ratio"},
    {"core.hsit.cas_retries", "count"},
    {"core.bg.tasks", "count"},
    {"core.bg.queue_delay_p50_us", "us"},
    {"core.bg.queue_delay_p99_us", "us"},
    {"core.bg.task_ms_p50", "ms"},
    {"index.lookup_ns", "ns"},
    {"index.scan_ns_per_row", "ns"},
    {"pmem.fences_per_put", "per_put"},
    {"pmem.flushes_per_put", "per_put"},
    {"pmem.nvm_read_bytes_per_op", "B/op"},
    {"pmem.nvm_write_bytes_per_op", "B/op"},
    {"io.read_reqs", "count"},
    {"io.write_reqs", "count"},
    {"io.reqs_per_submit", "reqs"},
    {"io.submit_us_p50", "us"},
    {"io.read_wait_p50_us", "us"},
    {"io.read_wait_p99_us", "us"},
    {"io.write_wait_p99_us", "us"},
    {"io.read_mb", "MB"},
    {"io.write_mb", "MB"},
    {"io.util", "ratio"},
    {"trace.self_us_per_op.core", "us"},
    {"trace.self_us_per_op.pwb", "us"},
    {"trace.self_us_per_op.svc", "us"},
    {"trace.self_us_per_op.vs", "us"},
    {"trace.self_us_per_op.ssd", "us"},
    {"trace.self_us_per_op.bg", "us"},
    {"trace.self_us_per_op.other", "us"},
    {"trace.overhead_pct", "%"},
};

/** The listed metrics in order; ones a workload lacks read 0. */
template <size_t N>
pb::Metrics
select(const Named (&names)[N], const pb::Metrics &from)
{
    pb::Metrics out;
    for (const Named &n : names)
        out.set(n.name, from.get(n.name), n.unit);
    return out;
}

void
report(const char *title, const pb::Metrics &m)
{
    std::fprintf(stderr, "%s\n", title);
    for (const auto &x : m.list())
        std::fprintf(stderr, "  %-32s %14.4f %s\n", x.name.c_str(), x.value,
                     x.unit.c_str());
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1\n       perfbench selftest\n");
    return 2;
}

}  // namespace

int
main(int argc, char **argv)
{
    pb::RunArgs a;
    a.start_ns = pb::nowNs();
    if (argc >= 2 && std::strcmp(argv[1], "serve") == 0)
        return pb::serveMain(argc, argv);

    // The checker must catch its planted faults before it judges a run.
    const std::string self = pb::checkerSelfTest();
    if (!self.empty()) {
        std::fprintf(stderr, "checker self-test failed: %s\n", self.c_str());
        return 1;
    }
    if (argc >= 2 && std::strcmp(argv[1], "selftest") == 0) {
        std::fprintf(stderr, "checker self-test passed\n");
        return 0;
    }

    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds")
            a.seconds = std::strtod(v.c_str(), nullptr);
        else if (k == "--trace")
            a.trace = v == "1";
        else
            return usage();
    }
    if (argc % 2 != 1 || a.workload.empty() || !(a.seconds > 0))
        return usage();
    char exe[4096];
    const ssize_t n = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
    if (n <= 0)
        return 1;
    a.self_exe.assign(exe, static_cast<size_t>(n));

    pb::RunResult r;
    if (!pb::runInProcess(a, &r)) {
        std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
        return 2;
    }
    if (a.trace && a.workload == "read_miss")
        pb::probeWire(a, &r);

    const pb::Metrics e2e = select(kEndToEnd, r.e2e);
    const pb::Metrics layer = select(kPerLayer, r.layer);
    std::fprintf(stderr, "workload %s seed %llu: attempted %llu, failed %llu\n",
                 a.workload.c_str(), static_cast<unsigned long long>(a.seed),
                 static_cast<unsigned long long>(r.attempted),
                 static_cast<unsigned long long>(r.failed));
    report("end to end:", e2e);
    if (a.trace)
        report("per layer:", layer);
    for (const auto &e : r.errors)
        std::fprintf(stderr, "INCORRECT: %s\n", e.c_str());

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                r.errors.empty() ? "true" : "false",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed),
                (a.trace ? layer : e2e).json().c_str());
    return 0;
}
