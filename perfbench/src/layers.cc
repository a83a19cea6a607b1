#include "layers.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/trace.h"
#include "index/key_index.h"
#include "sim/device_profile.h"

namespace pb {

using prism::Status;
using prism::io::IoCompletion;
using prism::io::IoRequest;

// ---------------------------------------------------------------------------
// TimingBackend

TimingBackend::TimingBackend(std::shared_ptr<prism::io::IoBackend> inner,
                             bool timed)
    : inner_(std::move(inner)), timed_(timed)
{
}

Status
TimingBackend::submit(std::span<const IoRequest> batch)
{
    uint64_t t0 = 0;
    if (timed_) {
        // Registered before the inner submit: a completion may be reaped
        // on another thread before submit() returns.
        std::lock_guard<std::mutex> g(mu_);
        t0 = nowNs();
        if (sent_.empty())
            busy_since_ = t0;
        for (const IoRequest &r : batch)
            sent_.emplace(r.user_data,
                          Sent{t0, r.op == IoRequest::Op::kWrite});
    }
    Status st = inner_->submit(batch);
    if (timed_) {
        const uint64_t t1 = nowNs();
        std::lock_guard<std::mutex> g(mu_);
        if (st.isOk()) {
            submit_ns_.record(t1 - t0);
        } else {
            for (const IoRequest &r : batch) {
                auto it = sent_.find(r.user_data);
                if (it != sent_.end())
                    sent_.erase(it);
            }
            if (sent_.empty())
                busy_ns_ += t1 - busy_since_;
        }
    }
    if (!st.isOk())
        return st;
    submits_.fetch_add(1, std::memory_order_relaxed);
    for (const IoRequest &r : batch) {
        if (r.op == IoRequest::Op::kWrite) {
            write_reqs_.fetch_add(1, std::memory_order_relaxed);
            write_bytes_.fetch_add(r.length, std::memory_order_relaxed);
        } else {
            read_reqs_.fetch_add(1, std::memory_order_relaxed);
            read_bytes_.fetch_add(r.length, std::memory_order_relaxed);
        }
    }
    return st;
}

void
TimingBackend::reaped(const std::vector<IoCompletion> &out, size_t from)
{
    if (!timed_ || from == out.size())
        return;
    const uint64_t now = nowNs();
    std::lock_guard<std::mutex> g(mu_);
    for (size_t i = from; i < out.size(); i++) {
        auto it = sent_.find(out[i].user_data);
        if (it == sent_.end())
            continue;
        (it->second.write ? write_wait_ns_ : read_wait_ns_)
            .record(now - it->second.t_ns);
        sent_.erase(it);
    }
    if (sent_.empty())
        busy_ns_ += now - busy_since_;
}

size_t
TimingBackend::pollCompletions(std::vector<IoCompletion> &out, size_t max)
{
    const size_t from = out.size();
    const size_t n = inner_->pollCompletions(out, max);
    reaped(out, from);
    return n;
}

size_t
TimingBackend::waitCompletions(std::vector<IoCompletion> &out, size_t max,
                               uint64_t timeout_us)
{
    const size_t from = out.size();
    const size_t n = inner_->waitCompletions(out, max, timeout_us);
    reaped(out, from);
    return n;
}

Status
TimingBackend::readSync(uint64_t offset, void *buf, uint32_t length)
{
    Status st = inner_->readSync(offset, buf, length);
    if (st.isOk()) {
        read_reqs_.fetch_add(1, std::memory_order_relaxed);
        read_bytes_.fetch_add(length, std::memory_order_relaxed);
    }
    return st;
}

Status
TimingBackend::writeSync(uint64_t offset, const void *src, uint32_t length)
{
    Status st = inner_->writeSync(offset, src, length);
    if (st.isOk()) {
        write_reqs_.fetch_add(1, std::memory_order_relaxed);
        write_bytes_.fetch_add(length, std::memory_order_relaxed);
    }
    return st;
}

TimingBackend::Totals
TimingBackend::totals() const
{
    Totals t;
    t.read_reqs = read_reqs_.load(std::memory_order_relaxed);
    t.write_reqs = write_reqs_.load(std::memory_order_relaxed);
    t.read_bytes = read_bytes_.load(std::memory_order_relaxed);
    t.write_bytes = write_bytes_.load(std::memory_order_relaxed);
    t.submits = submits_.load(std::memory_order_relaxed);
    std::lock_guard<std::mutex> g(mu_);
    t.busy_ns = busy_ns_ + (sent_.empty() ? 0 : nowNs() - busy_since_);
    t.submit_ns = submit_ns_;
    t.read_wait_ns = read_wait_ns_;
    t.write_wait_ns = write_wait_ns_;
    return t;
}

// ---------------------------------------------------------------------------
// Fixture

Fixture::Fixture(const FixtureSpec &spec)
{
    // The same derivation as ycsb::PrismStore at one shard, so the store
    // is the one prism_server serves; only the devices differ, being
    // wrapped in TimingBackend.
    opts.obs_port = -1;
    opts.shards = 1;
    opts.trace_enabled = spec.trace;
    const uint64_t dataset = std::max<uint64_t>(spec.dataset_bytes, 1 << 20);
    const uint64_t pwb_total = std::max<uint64_t>(dataset * 16 / 100, 16 << 20);
    opts.pwb_size_bytes = std::max<uint64_t>(
        pwb_total / static_cast<uint64_t>(spec.expected_threads), 2 << 20);
    opts.svc_capacity_bytes =
        std::max<uint64_t>(dataset * 20 / 100, 16 << 20);
    const uint64_t nvm_bytes =
        std::max(pwb_total, opts.pwb_size_bytes *
                                static_cast<uint64_t>(spec.expected_threads)) +
        opts.pwb_size_bytes * 4 + opts.hsit_capacity * 32 +
        std::max<uint64_t>(dataset / 4, 128u << 20);
    const uint64_t dev_bytes =
        std::max<uint64_t>(spec.ssd_bytes, opts.chunk_bytes * 64);
    opts.bg_workers = std::max(opts.bg_workers,
                               std::min(spec.expected_threads, spec.num_ssds));

    std::vector<std::shared_ptr<prism::io::IoBackend>> backends;
    for (int i = 0; i < spec.num_ssds; i++) {
        devices.push_back(std::make_shared<TimingBackend>(
            std::make_shared<prism::sim::SsdDevice>(
                dev_bytes, prism::sim::kSamsung980ProProfile, true),
            spec.trace));
        backends.push_back(devices.back());
    }
    auto nvm = std::make_shared<prism::sim::NvmDevice>(
        nvm_bytes, prism::sim::kOptaneDcpmmProfile, true);
    region = std::make_shared<prism::pmem::PmemRegion>(nvm, true);
    std::vector<prism::core::ShardBackends> shards;
    shards.push_back({region, backends});
    db = prism::core::ShardRouter::open(opts, std::move(shards));
}

TimingBackend::Totals
Fixture::ioTotals() const
{
    TimingBackend::Totals sum;
    for (const auto &d : devices) {
        const TimingBackend::Totals t = d->totals();
        sum.read_reqs += t.read_reqs;
        sum.write_reqs += t.write_reqs;
        sum.read_bytes += t.read_bytes;
        sum.write_bytes += t.write_bytes;
        sum.submits += t.submits;
        sum.busy_ns += t.busy_ns;
        sum.submit_ns.merge(t.submit_ns);
        sum.read_wait_ns.merge(t.read_wait_ns);
        sum.write_wait_ns.merge(t.write_wait_ns);
    }
    return sum;
}

// ---------------------------------------------------------------------------
// EngineTimer

prism::core::AsyncCallback
EngineTimer::timed(SharedHist *h, prism::core::AsyncCallback cb)
{
    if (!recording.load(std::memory_order_relaxed))
        return cb;
    const uint64_t t0 = nowNs();
    return [h, t0, cb = std::move(cb)](const Status &st) {
        h->record(nowNs() - t0);
        if (cb)
            cb(st);
    };
}

prism::core::OpFuture
EngineTimer::asyncPut(uint64_t key, std::string_view value,
                      prism::core::AsyncCallback cb)
{
    return inner_.asyncPut(key, value, timed(&put_ns, std::move(cb)));
}

prism::core::OpFuture
EngineTimer::asyncGet(uint64_t key, prism::core::AsyncCallback cb)
{
    return inner_.asyncGet(key, timed(&get_ns, std::move(cb)));
}

// ---------------------------------------------------------------------------
// TraceWindows

namespace {

std::vector<uint64_t>
layerBusy()
{
    std::vector<uint64_t> v(prism::trace::kNumLayers);
    for (size_t l = 0; l < v.size(); l++)
        v[l] = prism::trace::layerBusyNs(l);
    return v;
}

}  // namespace

void
TraceWindows::start()
{
    busy_.assign(prism::trace::kNumLayers, 0);
    on_ = false;
    prism::trace::TraceRegistry::global().setEnabled(false);
    edge_ = nowNs() + kWindowNs;
}

bool
TraceWindows::tick()
{
    if (nowNs() < edge_)
        return false;
    edge_ += kWindowNs;
    if (on_) {
        prism::trace::TraceRegistry::global().setEnabled(false);
        const std::vector<uint64_t> now = layerBusy();
        for (size_t l = 0; l < busy_.size(); l++)
            busy_[l] += now[l] - at_on_[l];
    } else {
        at_on_ = layerBusy();
        prism::trace::TraceRegistry::global().setEnabled(true);
    }
    on_ = !on_;
    return true;
}

void
TraceWindows::stop()
{
    if (on_) {
        edge_ = 0;
        tick();
    }
}

// ---------------------------------------------------------------------------
// Ledger

namespace {

double
per(double num, double den)
{
    return den > 0 ? num / den : 0;
}

}  // namespace

void
ledgerFromRegistry(const Diff &d, const OpCounts &ops, Metrics *m)
{
    const double gets = static_cast<double>(ops.gets);
    const double puts = static_cast<double>(ops.puts);
    const double n = static_cast<double>(ops.ops());
    auto c = [&](const char *name) { return static_cast<double>(d.c(name)); };

    m->set("core.get_src.pwb", per(1000 * c("prism.get.pwb_hits"), gets),
           "per_kget");
    m->set("core.get_src.svc", per(1000 * c("prism.get.svc_hits"), gets),
           "per_kget");
    m->set("core.get_src.vs", per(1000 * c("prism.get.vs_reads"), gets),
           "per_kget");

    m->set("core.svc.hit_ratio",
           per(c("prism.svc.hits"), c("prism.svc.hits") + c("prism.svc.misses")),
           "ratio");
    m->set("core.svc.admissions_per_kop",
           per(1000 * c("prism.svc.admissions"), n), "per_kop");
    m->set("core.svc.evictions_per_kop",
           per(1000 * c("prism.svc.evictions"), n), "per_kop");
    m->set("core.svc.scan_reorgs", c("prism.svc.scan_reorgs"), "count");

    m->set("core.tcq.batches", c("prism.tcq.batches"), "count");
    m->set("core.tcq.reqs_per_batch",
           per(c("prism.tcq.requests"), c("prism.tcq.batches")), "reqs");

    m->set("core.vs.gc_passes", c("prism.vs.gc_passes"), "count");
    m->set("core.vs.gc_moved_mb", c("prism.vs.gc_moved_bytes") / 1e6, "MB");
    m->set("core.vs.gc_pass_ms_p50",
           d.h("prism.vs.gc_pass_ns").percentile(0.5) / 1e6, "ms");
    m->set("core.vs.gc_reclaimed_chunks", c("prism.vs.gc_reclaimed_chunks"),
           "count");
    m->set("core.vs.read_retries", c("prism.vs.retries"), "count");

    // A stalled put records one prism.pwb.stall_ns sample; the
    // prism.pwb.stalls counter counts wait-loop iterations instead.
    const prism::Histogram stall = d.h("prism.pwb.stall_ns");
    m->set("core.pwb.append_mb", c("prism.pwb.append_bytes") / 1e6, "MB");
    m->set("core.pwb.stalled_puts", static_cast<double>(stall.count()),
           "count");
    m->set("core.pwb.stall_ms_total", static_cast<double>(stall.sum()) / 1e6,
           "ms");
    m->set("core.pwb.reclaim_passes", c("prism.pwb.reclaim_passes"), "count");
    m->set("core.pwb.reclaimed_values", c("prism.pwb.reclaimed_values"),
           "count");
    m->set("core.pwb.deferred_values",
           c("prism.pwb.reclaim_deferred_values"), "count");
    m->set("core.pwb.dedup_ratio",
           per(c("prism.pwb.reclaim_skipped_stale"),
               c("prism.pwb.reclaim_skipped_stale") +
                   c("prism.pwb.reclaimed_values")),
           "ratio");

    m->set("core.hsit.cas_retries", c("prism.hsit.cas_retries"), "count");

    const prism::Histogram qd = d.h("prism.bg.queue_delay_ns");
    m->set("core.bg.tasks", c("prism.bg.tasks"), "count");
    m->set("core.bg.queue_delay_p50_us", qd.percentile(0.5) / 1e3, "us");
    m->set("core.bg.queue_delay_p99_us", qd.percentile(0.99) / 1e3, "us");
    m->set("core.bg.task_ms_p50",
           d.h("prism.bg.task_ns").percentile(0.5) / 1e6, "ms");

    m->set("pmem.fences_per_put", per(c("pmem.fences"), puts), "per_put");
    m->set("pmem.flushes_per_put", per(c("pmem.flushes"), puts), "per_put");
    m->set("pmem.nvm_read_bytes_per_op", per(c("sim.nvm.bytes_read"), n),
           "B/op");
    m->set("pmem.nvm_write_bytes_per_op", per(c("sim.nvm.bytes_written"), n),
           "B/op");
}

void
ledgerFromIo(const TimingBackend::Totals &a, const TimingBackend::Totals &b,
             double seconds, size_t devices, Metrics *m)
{
    const double reads = static_cast<double>(b.read_reqs - a.read_reqs);
    const double writes = static_cast<double>(b.write_reqs - a.write_reqs);
    auto phase = [](Hist h, const Hist &before) {
        h.subtract(before);
        return h;
    };
    const Hist submit = phase(b.submit_ns, a.submit_ns);
    const Hist rwait = phase(b.read_wait_ns, a.read_wait_ns);
    const Hist wwait = phase(b.write_wait_ns, a.write_wait_ns);
    m->set("io.read_reqs", reads, "count");
    m->set("io.write_reqs", writes, "count");
    m->set("io.reqs_per_submit",
           per(reads + writes, static_cast<double>(b.submits - a.submits)),
           "reqs");
    m->set("io.submit_us_p50", submit.quantile(0.5) / 1e3, "us");
    m->set("io.read_wait_p50_us", rwait.quantile(0.5) / 1e3, "us");
    m->set("io.read_wait_p99_us", rwait.quantile(0.99) / 1e3, "us");
    m->set("io.write_wait_p99_us", wwait.quantile(0.99) / 1e3, "us");
    m->set("io.read_mb", static_cast<double>(b.read_bytes - a.read_bytes) / 1e6,
           "MB");
    m->set("io.write_mb",
           static_cast<double>(b.write_bytes - a.write_bytes) / 1e6, "MB");
    m->set("io.util",
           per(static_cast<double>(b.busy_ns - a.busy_ns) / 1e9,
               seconds * static_cast<double>(devices)),
           "ratio");
}

void
crossCheck(const prism::stats::StatsSnapshot &at_open, const Fixture &fx,
           uint64_t user_bytes, std::vector<std::string> *errs)
{
    // Background GC may still be moving data after the clients stop;
    // compare again until both sides settle.
    std::vector<std::string> found;
    for (int attempt = 0; attempt < 40; attempt++) {
        if (attempt > 0)
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
        const Diff d{at_open, snap()};
        const TimingBackend::Totals io = fx.ioTotals();
        found.clear();
        auto expect = [&](const char *what, uint64_t ours, uint64_t theirs) {
            if (ours != theirs)
                found.push_back(std::string(what) + ": benchmark counted " +
                                std::to_string(ours) + ", registry " +
                                std::to_string(theirs));
        };
        expect("SSD bytes read", io.read_bytes, d.c("sim.ssd.bytes_read"));
        expect("SSD bytes written", io.write_bytes,
               d.c("sim.ssd.bytes_written"));
        expect("SSD read requests", io.read_reqs, d.c("sim.ssd.read_ops"));
        expect("SSD write requests", io.write_reqs, d.c("sim.ssd.write_ops"));
        expect("user bytes written", user_bytes,
               d.c("prism.user_bytes_written"));
        if (found.empty())
            return;
    }
    errs->insert(errs->end(), found.begin(), found.end());
}

void
timeIndex(const prism::index::KeyIndex &index,
          const std::vector<uint64_t> &lookup_keys,
          const std::vector<uint64_t> &scan_starts, size_t scan_len,
          Metrics *m, std::vector<std::string> *errs)
{
    uint64_t found = 0;
    const uint64_t t0 = nowNs();
    for (uint64_t k : lookup_keys)
        found += index.lookup(k).has_value();
    const uint64_t t1 = nowNs();
    std::vector<std::pair<uint64_t, uint64_t>> out;
    uint64_t rows = 0;
    for (uint64_t s : scan_starts) {
        out.clear();
        rows += index.scan(s, scan_len, out);
    }
    const uint64_t t2 = nowNs();
    m->set("index.lookup_ns",
           per(static_cast<double>(t1 - t0),
               static_cast<double>(lookup_keys.size())),
           "ns");
    m->set("index.scan_ns_per_row",
           per(static_cast<double>(t2 - t1), static_cast<double>(rows)), "ns");
    if (found != lookup_keys.size())
        errs->push_back("index lookups found " + std::to_string(found) +
                        " of " + std::to_string(lookup_keys.size()) +
                        " loaded keys");
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

}  // namespace pb
