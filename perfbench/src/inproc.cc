/**
 * @file
 * The in-process closed-loop workloads: read_miss, update_gc and scan.
 *
 * Each client thread issues one blocking operation at a time through
 * the store's public API. A key is written only by the thread that owns
 * it (record index modulo the thread count), so the model knows every
 * key's final version once the threads stop.
 */
#include <latch>
#include <thread>

#include "common/trace.h"
#include "layers.h"
#include "model.h"
#include "workloads.h"

namespace pb {

namespace {

struct Spec {
    uint64_t records;
    size_t value_bytes;
    FixtureSpec fx;
    int threads;
    double update_share;  ///< puts; the rest are gets, or scans
    bool scans;           ///< the non-update share is scans, not gets
    bool zipf;            ///< Zipf 0.99 popularity; else uniform
    uint64_t warmup_ms;
    size_t max_scan = 100;
};

/**
 * Why each workload is shaped as it is (README.md has the full table):
 *  - read_miss: uniform gets over a dataset 5x the SVC (Table 1's 20%
 *    cache share), so most gets go to Value Storage through thread
 *    combining; nothing is written, so PWB reclamation and GC idle.
 *  - update_gc: YCSB-A on a fleet 6.7x the dataset, so Value Storage
 *    GC (80% watermark) cycles within the timed phase; the warm-up
 *    fills the fleet to the watermark first. Far smaller fleets abort
 *    the process in GC relocation (2 x 40 MiB on every run; CHANGES.md).
 *  - scan: YCSB-E, 95% scans of 2..100 rows and 5% updates.
 */
bool
specFor(const std::string &w, Spec *s)
{
    if (w == "read_miss") {
        *s = {100000, 1000, {}, 4, 0.0, false, false, 1500};
        s->fx.dataset_bytes = s->records * s->value_bytes;
        return true;
    }
    if (w == "update_gc") {
        *s = {50000, 1000, {}, 4, 0.5, false, true, 4000};
        s->fx.dataset_bytes = s->records * s->value_bytes;
        s->fx.ssd_bytes = 160ull << 20;
        return true;
    }
    if (w == "scan") {
        *s = {100000, 1000, {}, 2, 0.05, true, true, 1500};
        s->fx.dataset_bytes = s->records * s->value_bytes;
        return true;
    }
    return false;
}

/** Per-thread tallies; merged after the threads stop. */
struct Tally {
    Hist get_ns, put_ns, scan_ns;
    Windowed all_ns;      ///< every timed op, by start time
    uint64_t t_start = 0; ///< start of the timed phase
    OpCounts ops;
    uint64_t failed = 0;
    uint64_t user_bytes = 0;
    std::vector<std::string> errs;
    std::atomic<uint64_t> done{0};   ///< timed ops, read at window edges
};

constexpr size_t kMaxErrors = 5;

void
note(std::vector<std::string> *errs, std::string e)
{
    if (errs->size() < kMaxErrors)
        errs->push_back(std::move(e));
}

/** Closed-loop generator of one client thread. */
class Client {
  public:
    Client(const Spec &s, const KeySet &ks, Model &m, const Zipf &zipf,
           prism::core::ShardRouter &db, int tid, uint64_t seed)
        : s_(s), ks_(ks), m_(m), zipf_(zipf), db_(db), tid_(tid),
          rng_(seed * 1000003 + static_cast<uint64_t>(tid))
    {
    }

    /** One operation; timed into @p t when @p record. */
    void
    step(Tally *t, bool record)
    {
        const double u = rng_.unit();
        if (u < s_.update_share)
            put(t, record);
        else if (s_.scans)
            scan(t, record);
        else
            get(t, record);
    }

    /** Record index of the next operation's key. */
    uint64_t
    pick()
    {
        return s_.zipf ? zipf_.next(rng_) : rng_.below(ks_.size());
    }

  private:
    void
    put(Tally *t, bool record)
    {
        // The chosen rank's own-key neighbour keeps the popularity
        // shape while giving every key a single writer.
        const uint64_t T = static_cast<uint64_t>(s_.threads);
        uint64_t idx = pick() / T * T + static_cast<uint64_t>(tid_);
        if (idx >= ks_.size())
            idx -= T;
        const uint32_t ver = m_.issue(idx);
        encodeValue(ks_.key(idx), ver, s_.value_bytes, &buf_);
        const uint64_t t0 = nowNs();
        const prism::Status st = db_.put(ks_.key(idx), buf_);
        const uint64_t dt = nowNs() - t0;
        if (st.isOk()) {
            m_.ack(idx, ver);
            t->user_bytes += buf_.size();
        }
        if (!record)
            return;
        t->ops.puts++;
        if (!st.isOk()) {
            t->failed++;
            note(&t->errs, "put failed: " + st.toString());
            return;
        }
        t->put_ns.record(dt);
        t->all_ns.record(t0 - t->t_start, dt);
    }

    void
    get(Tally *t, bool record)
    {
        const uint64_t idx = pick();
        const uint32_t before = m_.acked(idx);
        const uint64_t t0 = nowNs();
        const prism::Status st = db_.get(ks_.key(idx), &val_);
        const uint64_t dt = nowNs() - t0;
        if (!st.isOk()) {
            if (record) {
                t->ops.gets++;
                t->failed++;
                note(&t->errs, "get failed: " + st.toString());
            }
            return;
        }
        std::string err = checkValue(ks_, m_, idx, val_, before);
        if (!err.empty())
            note(&t->errs, "get: " + err);
        if (!record)
            return;
        t->ops.gets++;
        t->get_ns.record(dt);
        t->all_ns.record(t0 - t->t_start, dt);
    }

    void
    scan(Tally *t, bool record)
    {
        const size_t len = 2 + rng_.below(s_.max_scan - 1);
        uint64_t pos = ks_.posOf(pick());
        pos = std::min<uint64_t>(pos, ks_.size() - len);
        // Start between the previous key and this one, so the store's
        // lower-bound search is exercised, not just exact matches.
        const uint64_t start = pos > 0 ? ks_.sortedKey(pos - 1) + 1 : 0;
        acked_.resize(len);
        for (size_t j = 0; j < len; j++)
            acked_[j] = m_.acked(ks_.sortedIdx(pos + j));
        rows_.clear();
        const uint64_t t0 = nowNs();
        const prism::Status st = db_.scan(start, len, &rows_);
        const uint64_t dt = nowNs() - t0;
        if (!st.isOk()) {
            if (record) {
                t->ops.scans++;
                t->failed++;
                note(&t->errs, "scan failed: " + st.toString());
            }
            return;
        }
        std::string err = checkScan(ks_, m_, pos, len, rows_, acked_);
        if (!err.empty())
            note(&t->errs, err);
        if (!record)
            return;
        t->ops.scans++;
        t->scan_ns.record(dt);
        t->all_ns.record(t0 - t->t_start, dt);
    }

    const Spec &s_;
    const KeySet &ks_;
    Model &m_;
    const Zipf &zipf_;
    prism::core::ShardRouter &db_;
    const int tid_;
    Rng rng_;
    std::string buf_, val_;
    Rows rows_;
    std::vector<uint32_t> acked_;
};

/** Load every record at version 1 with @p threads threads. */
uint64_t
load(const Spec &s, const KeySet &ks, prism::core::ShardRouter &db,
     std::vector<std::string> *errs)
{
    std::vector<std::thread> th;
    std::vector<std::vector<std::string>> terrs(s.threads);
    std::atomic<uint64_t> bytes{0};
    for (int t = 0; t < s.threads; t++) {
        th.emplace_back([&, t] {
            std::string v;
            for (uint64_t i = static_cast<uint64_t>(t); i < ks.size();
                 i += static_cast<uint64_t>(s.threads)) {
                encodeValue(ks.key(i), 1, s.value_bytes, &v);
                const prism::Status st = db.put(ks.key(i), v);
                if (st.isOk())
                    bytes.fetch_add(v.size(), std::memory_order_relaxed);
                else
                    note(&terrs[t], "load put failed: " + st.toString());
            }
        });
    }
    for (auto &x : th)
        x.join();
    for (auto &e : terrs)
        for (auto &x : e)
            note(errs, std::move(x));
    db.flushAll();
    return bytes.load();
}

/** After quiescing, every key must hold exactly its acknowledged version. */
void
readBack(const KeySet &ks, const Model &m, prism::core::ShardRouter &db,
         std::vector<std::string> *errs)
{
    constexpr size_t kBatch = 1000;
    Rows rows;
    std::vector<uint32_t> acked;
    for (uint64_t pos = 0; pos < ks.size(); pos += kBatch) {
        const size_t n = std::min<uint64_t>(kBatch, ks.size() - pos);
        acked.resize(n);
        for (size_t j = 0; j < n; j++) {
            const uint64_t idx = ks.sortedIdx(pos + j);
            acked[j] = m.acked(idx);
            if (m.issued(idx) != acked[j])
                note(errs, "read-back: a write to key " +
                               std::to_string(ks.key(idx)) +
                               " was never acknowledged");
        }
        rows.clear();
        const uint64_t start = pos > 0 ? ks.sortedKey(pos - 1) + 1 : 0;
        const prism::Status st = db.scan(start, n, &rows);
        std::string err = st.isOk() ? checkScan(ks, m, pos, n, rows, acked)
                                    : "scan failed: " + st.toString();
        if (err.empty()) {
            // Quiesced: the newest acknowledged version, not a newer one.
            for (size_t j = 0; j < n && err.empty(); j++) {
                uint64_t key;
                uint32_t ver;
                decodeValue(rows[j].second, &key, &ver);
                if (ver != acked[j])
                    err = "key " + std::to_string(key) + " holds version " +
                          std::to_string(ver) + ", acknowledged " +
                          std::to_string(acked[j]);
            }
        }
        if (!err.empty()) {
            note(errs, "read-back: " + err);
            return;
        }
    }
}

}  // namespace

bool
runInProcess(const RunArgs &a, RunResult *r)
{
    Spec s;
    if (!specFor(a.workload, &s))
        return false;
    s.fx.trace = a.trace;

    const KeySet ks(s.records, a.seed);
    Model model(ks.size());
    const Zipf zipf(ks.size(), 0.99);

    const prism::stats::StatsSnapshot at_open = snap();
    Fixture fx(s.fx);
    prism::core::ShardRouter &db = *fx.db;
    uint64_t user_bytes = load(s, ks, db, &r->errors);
    const double setup_s = static_cast<double>(nowNs() - a.start_ns) / 1e9;

    // Clients: warm-up, park, timed phase, stop. Parking at both edges
    // makes the registry differences cover exactly the timed operations.
    const int T = s.threads;
    std::vector<Tally> tally(T);
    std::atomic<int> phase{0};  // 0 warm-up, 1 timed, 2 stop
    std::latch parked(T), stopped(T);
    std::atomic<bool> go{false};
    std::atomic<uint64_t> t_start{0};
    std::vector<std::thread> th;
    for (int t = 0; t < T; t++) {
        th.emplace_back([&, t] {
            Client c(s, ks, model, zipf, db, t, a.seed);
            Tally *tl = &tally[t];
            while (phase.load(std::memory_order_relaxed) == 0)
                c.step(tl, false);
            parked.count_down();
            go.wait(false);
            tl->t_start = t_start.load();
            while (phase.load(std::memory_order_relaxed) == 1) {
                c.step(tl, true);
                tl->done.fetch_add(1, std::memory_order_relaxed);
            }
            stopped.count_down();
        });
    }
    auto doneOps = [&] {
        uint64_t n = 0;
        for (auto &t : tally)
            n += t.done.load(std::memory_order_relaxed);
        return n;
    };

    std::this_thread::sleep_for(std::chrono::milliseconds(s.warmup_ms));
    phase.store(1);
    parked.wait();
    Diff timed;
    timed.a = snap();
    const TimingBackend::Totals io_a = fx.ioTotals();
    TraceWindows win;
    uint64_t ops_on = 0, ops_off = 0, ns_on = 0, ns_off = 0;
    t_start = nowNs();
    const uint64_t t_end =
        t_start + static_cast<uint64_t>(a.seconds * 1e9);
    go.store(true);
    go.notify_all();
    if (a.trace) {
        win.start();
        uint64_t edge_ops = 0, edge_t = t_start;
        while (nowNs() < t_end) {
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
            const bool was_on = win.on();
            if (win.tick()) {
                const uint64_t n = doneOps(), t = nowNs();
                (was_on ? ops_on : ops_off) += n - edge_ops;
                (was_on ? ns_on : ns_off) += t - edge_t;
                edge_ops = n;
                edge_t = t;
            }
        }
        win.stop();
    } else {
        sleepUntil(t_end);
    }
    phase.store(2);
    stopped.wait();
    const double elapsed = static_cast<double>(nowNs() - t_start) / 1e9;
    for (auto &x : th)
        x.join();
    timed.b = snap();
    const TimingBackend::Totals io_b = fx.ioTotals();

    Tally all;
    for (auto &t : tally) {
        all.get_ns.merge(t.get_ns);
        all.put_ns.merge(t.put_ns);
        all.scan_ns.merge(t.scan_ns);
        all.all_ns.merge(t.all_ns);
        all.ops.gets += t.ops.gets;
        all.ops.puts += t.ops.puts;
        all.ops.scans += t.ops.scans;
        all.failed += t.failed;
        user_bytes += t.user_bytes;
        for (auto &e : t.errs)
            note(&r->errors, e);
    }
    r->attempted = all.ops.ops();
    r->failed = all.failed;

    Diff life{at_open, timed.b};
    r->e2e.set("setup_s", setup_s, "s");
    // Host contention (vCPU steal) only ever lowers a window's rate and
    // raises its latencies, so each figure is taken from the run's quieter
    // windows: the upper quartile of rates, the lower quartile of
    // latency percentiles. A program regression moves every window.
    const auto full = static_cast<uint64_t>(a.seconds);
    r->e2e.set("throughput_kops", all.all_ns.rate(0.75, full) / 1e3,
               "kop/s");
    r->e2e.set("p50_us", all.all_ns.latency(0.5, 0.25, full) / 1e3, "us");
    r->e2e.set("p90_us", all.all_ns.latency(0.9, 0.25, full) / 1e3, "us");
    r->e2e.set("ssd_write_amp",
               static_cast<double>(life.c("sim.ssd.bytes_written")) /
                   static_cast<double>(life.c("prism.user_bytes_written")),
               "x");

    Metrics &L = r->layer;
    L.set("kv.get_p50_us", all.get_ns.quantile(0.5) / 1e3, "us");
    L.set("kv.get_p99_us", all.get_ns.quantile(0.99) / 1e3, "us");
    L.set("kv.put_p50_us", all.put_ns.quantile(0.5) / 1e3, "us");
    L.set("kv.put_p99_us", all.put_ns.quantile(0.99) / 1e3, "us");
    L.set("kv.scan_p50_us", all.scan_ns.quantile(0.5) / 1e3, "us");
    L.set("kv.scan_p99_us", all.scan_ns.quantile(0.99) / 1e3, "us");
    ledgerFromRegistry(timed, all.ops, &L);
    ledgerFromIo(io_a, io_b, elapsed, fx.devices.size(), &L);
    if (a.trace) {
        const std::vector<uint64_t> busy = win.busyNs();
        for (size_t l = 0; l < busy.size(); l++)
            L.set(std::string("trace.self_us_per_op.") +
                      prism::trace::layerName(l),
                  ops_on ? static_cast<double>(busy[l]) / 1e3 /
                               static_cast<double>(ops_on)
                         : 0,
                  "us");
        const double thr_on = ns_on ? ops_on * 1e9 / ns_on : 0;
        const double thr_off = ns_off ? ops_off * 1e9 / ns_off : 0;
        L.set("trace.overhead_pct",
              thr_off > 0 ? (thr_off - thr_on) / thr_off * 100 : 0, "%");

        // Direct PacTree timing over the workload's own key choices.
        Client c(s, ks, model, zipf, db, 0, a.seed ^ 0x5eed);
        std::vector<uint64_t> lookups, starts;
        for (int i = 0; i < 50000; i++)
            lookups.push_back(ks.key(c.pick()));
        for (int i = 0; i < 2000; i++)
            starts.push_back(ks.key(c.pick()));
        timeIndex(db.keyIndex(), lookups, starts, 50, &L, &r->errors);
    }

    // Each workload must stress the layer it was chosen for.
    const uint64_t vs = timed.c("prism.get.vs_reads");
    const uint64_t srcs = timed.c("prism.get.pwb_hits") +
                          timed.c("prism.get.svc_hits") + vs;
    if (all.ops.gets > 0 && srcs != all.ops.gets)
        r->errors.push_back("gets by source sum to " + std::to_string(srcs) +
                            ", benchmark issued " +
                            std::to_string(all.ops.gets));
    if (a.workload == "read_miss" && vs * 2 <= all.ops.gets)
        r->errors.push_back("read_miss: only " + std::to_string(vs) + " of " +
                            std::to_string(all.ops.gets) +
                            " gets reached Value Storage");
    if (a.workload == "update_gc" && timed.c("prism.vs.gc_passes") == 0)
        r->errors.push_back("update_gc: no GC pass ran in the timed phase");
    const double rpb = L.get("core.tcq.reqs_per_batch");
    if (timed.c("prism.tcq.batches") > 0 &&
        (rpb < 1 || rpb > fx.opts.read_queue_depth))
        r->errors.push_back("core.tcq.reqs_per_batch out of range: " +
                            std::to_string(rpb));

    // Quiesce, read everything back, then compare lifetime totals.
    db.flushAll();
    readBack(ks, model, db, &r->errors);
    crossCheck(at_open, fx, user_bytes, &r->errors);
    r->e2e.set("peak_rss_mb", peakRssMb(), "MB");
    return true;
}

}  // namespace pb
