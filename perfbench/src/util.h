/**
 * @file
 * Small helpers shared by the benchmark's drivers: a monotonic clock,
 * a seeded generator, YCSB's Zipfian key chooser, a fixed-memory
 * latency histogram and an ordered metric list that prints as JSON.
 *
 * They are the benchmark's own, not the program's, so that a change to
 * the program's histogram or generator cannot move what is measured.
 */
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace pb {

inline uint64_t
nowNs()
{
    timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
           static_cast<uint64_t>(ts.tv_nsec);
}

/** Sleep until the CLOCK_MONOTONIC deadline @p t_ns. */
inline void
sleepUntil(uint64_t t_ns)
{
    timespec ts{static_cast<time_t>(t_ns / 1000000000ull),
                static_cast<long>(t_ns % 1000000000ull)};
    while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) !=
           0) {
    }
}

inline uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** splitmix64 stream. */
class Rng {
  public:
    explicit Rng(uint64_t seed) : s_(mix64(seed)) {}
    uint64_t next() { return mix64(s_++); }
    /** Uniform in [0, n). */
    uint64_t below(uint64_t n) { return next() % n; }
    double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  private:
    uint64_t s_;
};

/**
 * YCSB's Zipfian generator (Gray et al.) over ranks [0, n): rank 0 is
 * the hottest. Keys are hashes of the rank, so hot keys are spread over
 * the key space as in YCSB's scrambled distribution.
 */
class Zipf {
  public:
    Zipf(uint64_t n, double theta) : n_(n), theta_(theta)
    {
        for (uint64_t i = 1; i <= n; i++)
            zetan_ += 1.0 / std::pow(static_cast<double>(i), theta);
        const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta);
        alpha_ = 1.0 / (1.0 - theta);
        eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
               (1.0 - zeta2 / zetan_);
    }

    uint64_t
    next(Rng &rng) const
    {
        const double u = rng.unit();
        const double uz = u * zetan_;
        if (uz < 1.0)
            return 0;
        if (uz < 1.0 + std::pow(0.5, theta_))
            return 1;
        const auto r = static_cast<uint64_t>(
            static_cast<double>(n_) *
            std::pow(eta_ * u - eta_ + 1.0, alpha_));
        return std::min(r, n_ - 1);
    }

  private:
    uint64_t n_;
    double theta_;
    double zetan_ = 0, alpha_ = 0, eta_ = 0;
};

/**
 * Log-linear latency histogram in nanoseconds: 64 buckets per power of
 * two (under 1.6% relative error), fixed memory, so a long run does not
 * grow the process it measures.
 */
class Hist {
  public:
    void
    record(uint64_t v)
    {
        b_[bucket(v)]++;
        n_++;
    }

    void
    merge(const Hist &o)
    {
        for (size_t i = 0; i < b_.size(); i++)
            b_[i] += o.b_[i];
        n_ += o.n_;
    }

    /** Remove the samples of @p earlier, a past copy of this one. */
    void
    subtract(const Hist &earlier)
    {
        for (size_t i = 0; i < b_.size(); i++)
            b_[i] -= std::min(b_[i], earlier.b_[i]);
        n_ -= std::min(n_, earlier.n_);
    }

    uint64_t count() const { return n_; }

    /** Value at quantile @p q in [0, 1], interpolated inside a bucket. */
    double
    quantile(double q) const
    {
        if (n_ == 0)
            return 0;
        const double target = q * static_cast<double>(n_ - 1);
        uint64_t seen = 0;
        for (size_t i = 0; i < b_.size(); i++) {
            if (b_[i] == 0)
                continue;
            if (static_cast<double>(seen + b_[i]) > target) {
                const double frac =
                    (target - static_cast<double>(seen) + 0.5) /
                    static_cast<double>(b_[i]);
                const double lo = static_cast<double>(lower(i));
                const double hi = static_cast<double>(
                    i + 1 < b_.size() ? lower(i + 1) : lower(i));
                return lo + (hi - lo) * std::min(frac, 1.0);
            }
            seen += b_[i];
        }
        return static_cast<double>(lower(b_.size() - 1));
    }

  private:
    static constexpr int kSub = 6;
    static constexpr size_t kBuckets = (64 - kSub + 1) << kSub;

    static size_t
    bucket(uint64_t v)
    {
        if (v < (1ull << kSub))
            return static_cast<size_t>(v);
        const int e = 63 - __builtin_clzll(v);  // >= kSub
        const uint64_t sub = (v >> (e - kSub)) & ((1ull << kSub) - 1);
        return (static_cast<size_t>(e - kSub + 1) << kSub) + sub;
    }

    static uint64_t
    lower(size_t i)
    {
        const size_t hi = i >> kSub, sub = i & ((1u << kSub) - 1);
        if (hi == 0)
            return sub;
        const int e = static_cast<int>(hi) + kSub - 1;
        return (1ull << e) + (static_cast<uint64_t>(sub) << (e - kSub));
    }

    std::array<uint64_t, kBuckets> b_{};
    uint64_t n_ = 0;
};

/**
 * Latencies split into one-second windows of the timed phase, so a run's
 * figure can be taken across windows rather than over the whole run.
 */
class Windowed {
  public:
    static constexpr uint64_t kWindowNs = 1'000'000'000;

    void
    record(uint64_t since_start_ns, uint64_t v)
    {
        const size_t w = since_start_ns / kWindowNs;
        if (w >= w_.size())
            w_.resize(w + 1);
        w_[w].record(v);
    }

    void
    merge(const Windowed &o)
    {
        if (o.w_.size() > w_.size())
            w_.resize(o.w_.size());
        for (size_t i = 0; i < o.w_.size(); i++)
            w_[i].merge(o.w_[i]);
    }

    /**
     * The @p over quantile, across the first @p full windows, of each
     * window's @p q quantile of latency.
     */
    double
    latency(double q, double over, uint64_t full) const
    {
        std::vector<double> v;
        for (size_t i = 0; i < w_.size() && i < full; i++)
            if (w_[i].count() > 0)
                v.push_back(w_[i].quantile(q));
        return across(v, over);
    }

    /** The @p over quantile, across full windows, of samples per second. */
    double
    rate(double over, uint64_t full) const
    {
        std::vector<double> v;
        for (size_t i = 0; i < w_.size() && i < full; i++)
            v.push_back(static_cast<double>(w_[i].count()) * 1e9 / kWindowNs);
        return across(v, over);
    }

  private:
    static double
    across(std::vector<double> v, double over)
    {
        if (v.empty())
            return 0;
        std::sort(v.begin(), v.end());
        const double pos = over * static_cast<double>(v.size() - 1);
        const size_t lo = static_cast<size_t>(pos);
        const size_t hi = std::min(lo + 1, v.size() - 1);
        return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
    }

    std::vector<Hist> w_;
};

/** Hist behind a mutex, for samples recorded from several threads. */
class SharedHist {
  public:
    void
    record(uint64_t v)
    {
        std::lock_guard<std::mutex> g(mu_);
        h_.record(v);
    }
    Hist
    snapshot() const
    {
        std::lock_guard<std::mutex> g(mu_);
        return h_;
    }

  private:
    mutable std::mutex mu_;
    Hist h_;
};

/** One reported metric. */
struct Metric {
    std::string name;
    double value;
    std::string unit;
};

/** Ordered metric list; names are unique. */
class Metrics {
  public:
    void
    set(const std::string &name, double value, const std::string &unit)
    {
        if (!std::isfinite(value))
            value = 0;
        for (auto &m : list_) {
            if (m.name == name) {
                m.value = value;
                m.unit = unit;
                return;
            }
        }
        list_.push_back({name, value, unit});
    }

    double
    get(const std::string &name) const
    {
        for (const auto &m : list_)
            if (m.name == name)
                return m.value;
        return 0;
    }

    const std::vector<Metric> &list() const { return list_; }

    /** {"name": {"value": v, "unit": "u"}, ...} */
    std::string
    json() const
    {
        std::string out = "{";
        char buf[64];
        for (size_t i = 0; i < list_.size(); i++) {
            std::snprintf(buf, sizeof(buf), "%.17g", list_[i].value);
            out += (i ? ", \"" : "\"") + list_[i].name +
                   "\": {\"value\": " + buf + ", \"unit\": \"" +
                   list_[i].unit + "\"}";
        }
        return out + "}";
    }

  private:
    std::vector<Metric> list_;
};

}  // namespace pb
