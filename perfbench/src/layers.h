/**
 * @file
 * What the benchmark places at the program's public boundaries:
 *
 *  - TimingBackend: an io::IoBackend decorator handed to each Value
 *    Storage in place of its simulated SSD. It always counts requests
 *    and bytes; with timers on it also times submits, each request's
 *    wait from submit to reap, and how long the device had work.
 *  - EngineTimer: a ycsb::KvStore over the store that net::RespServer
 *    calls into, timing each command from dispatch to completion.
 *  - Fixture: the Prism store as prism_server opens it (simulator
 *    backend, one shard, Table 1 budgets), with the SSDs decorated.
 *  - registry diffs turned into the per-layer ledger.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/stats.h"
#include "index/key_index.h"
#include "core/shard_router.h"
#include "io/io_backend.h"
#include "pmem/pmem_region.h"
#include "sim/nvm_device.h"
#include "sim/ssd_device.h"
#include "util.h"
#include "ycsb/kv_interface.h"

namespace pb {

class TimingBackend : public prism::io::IoBackend {
  public:
    TimingBackend(std::shared_ptr<prism::io::IoBackend> inner, bool timed);

    prism::Status submit(std::span<const prism::io::IoRequest> batch)
        override;
    size_t pollCompletions(std::vector<prism::io::IoCompletion> &out,
                           size_t max) override;
    size_t waitCompletions(std::vector<prism::io::IoCompletion> &out,
                           size_t max, uint64_t timeout_us) override;
    prism::Status readSync(uint64_t offset, void *buf,
                           uint32_t length) override;
    prism::Status writeSync(uint64_t offset, const void *src,
                            uint32_t length) override;
    prism::Status flush() override { return inner_->flush(); }
    uint64_t capacity() const override { return inner_->capacity(); }
    uint64_t inflight() const override { return inner_->inflight(); }
    bool healthy() const override { return inner_->healthy(); }
    void setDropout(bool on) override { inner_->setDropout(on); }
    int deviceNumber() const override { return inner_->deviceNumber(); }
    prism::io::IoDeviceStats &stats() override { return inner_->stats(); }
    std::string_view kind() const override { return inner_->kind(); }

    /** Counts since construction; timers only when constructed timed. */
    struct Totals {
        uint64_t read_reqs = 0, write_reqs = 0;
        uint64_t read_bytes = 0, write_bytes = 0;
        uint64_t submits = 0;      ///< asynchronous submit() calls
        uint64_t busy_ns = 0;      ///< time with a request in flight
        Hist submit_ns, read_wait_ns, write_wait_ns;
    };
    Totals totals() const;

  private:
    void reaped(const std::vector<prism::io::IoCompletion> &out,
                size_t from);

    std::shared_ptr<prism::io::IoBackend> inner_;
    const bool timed_;
    std::atomic<uint64_t> read_reqs_{0}, write_reqs_{0};
    std::atomic<uint64_t> read_bytes_{0}, write_bytes_{0};
    std::atomic<uint64_t> submits_{0};

    struct Sent {
        uint64_t t_ns;
        bool write;
    };
    mutable std::mutex mu_;  ///< guards everything below
    std::unordered_multimap<uint64_t, Sent> sent_;
    uint64_t busy_since_ = 0, busy_ns_ = 0;
    Hist submit_ns_, read_wait_ns_, write_wait_ns_;
};

/** Store shape; budgets follow ycsb::PrismStore's Table 1 derivation. */
struct FixtureSpec {
    int num_ssds = 2;
    uint64_t ssd_bytes = 1ull << 30;
    uint64_t dataset_bytes = 128ull << 20;
    int expected_threads = 8;
    bool trace = false;   ///< PrismOptions::trace_enabled + timed decorators
};

/** The Prism store under test, built on decorated simulated SSDs. */
struct Fixture {
    explicit Fixture(const FixtureSpec &spec);

    prism::core::PrismOptions opts;
    std::vector<std::shared_ptr<TimingBackend>> devices;
    std::shared_ptr<prism::pmem::PmemRegion> region;
    std::unique_ptr<prism::core::ShardRouter> db;

    /** Decorator totals summed over the fleet. */
    TimingBackend::Totals ioTotals() const;
};

/**
 * The KvStore surface RespServer calls into, timing every GET and SET
 * from dispatch to completion while recording is on.
 */
class EngineTimer : public prism::ycsb::KvStore {
  public:
    explicit EngineTimer(prism::ycsb::KvStore &inner) : inner_(inner) {}

    std::string name() const override { return inner_.name(); }
    prism::Status put(uint64_t key, std::string_view value) override {
        return inner_.put(key, value);
    }
    prism::Status get(uint64_t key, std::string *value) override {
        return inner_.get(key, value);
    }
    prism::Status del(uint64_t key) override { return inner_.del(key); }
    prism::Status
    scan(uint64_t start, size_t count,
         std::vector<std::pair<uint64_t, std::string>> *out) override
    {
        return inner_.scan(start, count, out);
    }
    prism::core::OpFuture asyncPut(uint64_t key, std::string_view value,
                                   prism::core::AsyncCallback cb) override;
    prism::core::OpFuture asyncGet(uint64_t key,
                                   prism::core::AsyncCallback cb) override;
    void flushAll() override { inner_.flushAll(); }

    /** Record only while set (the timed phase). */
    std::atomic<bool> recording{false};
    SharedHist get_ns, put_ns;

  private:
    prism::core::AsyncCallback timed(SharedHist *h,
                                     prism::core::AsyncCallback cb);
    prism::ycsb::KvStore &inner_;
};

/** The ShardRouter behind the ycsb::KvStore surface. */
class RouterStore : public prism::ycsb::KvStore {
  public:
    explicit RouterStore(prism::core::ShardRouter &db) : db_(db) {}
    std::string name() const override { return "Prism"; }
    prism::Status put(uint64_t key, std::string_view value) override {
        return db_.put(key, value);
    }
    prism::Status get(uint64_t key, std::string *value) override {
        return db_.get(key, value);
    }
    prism::Status del(uint64_t key) override { return db_.del(key); }
    prism::Status
    scan(uint64_t start, size_t count,
         std::vector<std::pair<uint64_t, std::string>> *out) override
    {
        return db_.scan(start, count, out);
    }
    prism::core::OpFuture
    asyncPut(uint64_t key, std::string_view value,
             prism::core::AsyncCallback cb) override
    {
        return db_.asyncPut(key, value, std::move(cb));
    }
    prism::core::OpFuture
    asyncGet(uint64_t key, prism::core::AsyncCallback cb) override
    {
        return db_.asyncGet(key, std::move(cb));
    }
    void flushAll() override { db_.flushAll(); }

  private:
    prism::core::ShardRouter &db_;
};

/**
 * Alternates the tracer off and on in fixed windows for a traced run,
 * and keeps each layer's self time accumulated in the on windows.
 * Call tick() from one thread; it flips at window edges.
 */
class TraceWindows {
  public:
    static constexpr uint64_t kWindowNs = 250'000'000;

    void start();
    /** Flip when a window has ended; returns true on a flip. */
    bool tick();
    void stop();
    /** Cumulative self ns per tracer layer, accumulated in on windows. */
    std::vector<uint64_t> busyNs() const { return busy_; }
    bool on() const { return on_; }

  private:
    bool on_ = false;
    uint64_t edge_ = 0;
    std::vector<uint64_t> busy_, at_on_;
};

/** Registry snapshots at the edges of a phase, and their differences. */
struct Diff {
    prism::stats::StatsSnapshot a, b;
    uint64_t c(const char *name) const { return b.counterDelta(a, name); }
    prism::Histogram h(const char *name) const {
        return b.histogramDelta(a, name);
    }
};

inline prism::stats::StatsSnapshot
snap()
{
    return prism::stats::StatsRegistry::global().snapshot();
}

/** Issued-op totals a workload hands to the ledger. */
struct OpCounts {
    uint64_t gets = 0, puts = 0, scans = 0;
    uint64_t ops() const { return gets + puts + scans; }
};

/**
 * Per-layer metrics from registry differences over the timed phase
 * (core.*, pmem.*) and from decorator totals (io.*).
 */
void ledgerFromRegistry(const Diff &d, const OpCounts &ops, Metrics *m);
void ledgerFromIo(const TimingBackend::Totals &a,
                  const TimingBackend::Totals &b, double seconds,
                  size_t devices, Metrics *m);

/**
 * Cross-checks between independent counts over the store's lifetime,
 * from @p at_open (taken before the store opened) to now: decorator
 * against sim.ssd.* requests and bytes, and @p user_bytes (what the
 * benchmark wrote) against prism.user_bytes_written. Appends failures
 * to @p errs.
 */
void crossCheck(const prism::stats::StatsSnapshot &at_open,
                const Fixture &fx, uint64_t user_bytes,
                std::vector<std::string> *errs);

/**
 * Direct timing of the loaded store's PacTree: mean ns per lookup of
 * @p lookup_keys (all loaded, so each must be found) and per row of
 * scans from @p scan_starts of @p scan_len rows.
 */
void timeIndex(const prism::index::KeyIndex &index,
               const std::vector<uint64_t> &lookup_keys,
               const std::vector<uint64_t> &scan_starts, size_t scan_len,
               Metrics *m, std::vector<std::string> *errs);

/** Peak resident set of this process, in MB. */
double peakRssMb();

}  // namespace pb
