/**
 * @file
 * The benchmark's model of what the store must return.
 *
 * Every value encodes its key, a per-key version and a checksum. The
 * model keeps, per record, the last version the store acknowledged and
 * the highest version the benchmark has issued. Each key has exactly
 * one writer thread (or connection), so once the load is quiet the
 * store must hold exactly the acknowledged version of every key; while
 * writes are in flight a read may return any version between the one
 * acknowledged before the read began and the highest one issued.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace pb {

/** Bytes of key, version and checksum at the front of every value. */
constexpr size_t kValueHeader = 24;

/** Wire keys must fit the server's 48-bit default-tenant range. */
constexpr uint64_t kKeyMask = (1ull << 48) - 1;

using Rows = std::vector<std::pair<uint64_t, std::string>>;

/** N distinct non-zero 48-bit keys derived from a seed, and their order. */
class KeySet {
  public:
    KeySet(uint64_t n, uint64_t seed);

    uint64_t size() const { return keys_.size(); }
    /** Key of record @p idx (records are numbered in load order). */
    uint64_t key(uint64_t idx) const { return keys_[idx]; }
    /** Key at position @p pos of the ascending key order. */
    uint64_t sortedKey(uint64_t pos) const { return keys_[order_[pos]]; }
    /** Record at position @p pos of the ascending key order. */
    uint64_t sortedIdx(uint64_t pos) const { return order_[pos]; }
    /** Position of record @p idx in the ascending key order. */
    uint64_t posOf(uint64_t idx) const { return pos_[idx]; }

  private:
    std::vector<uint64_t> keys_;
    std::vector<uint32_t> order_;
    std::vector<uint32_t> pos_;
};

/** Write @p size bytes encoding (key, version) into @p out. */
void encodeValue(uint64_t key, uint32_t version, size_t size,
                 std::string *out);

/** Decode and verify the checksum; false when the value is corrupt. */
bool decodeValue(std::string_view v, uint64_t *key, uint32_t *version);

/** Per-record acknowledged and issued versions; loaded records are 1. */
class Model {
  public:
    explicit Model(uint64_t n);

    uint32_t acked(uint64_t idx) const {
        return acked_[idx].load(std::memory_order_acquire);
    }
    uint32_t issued(uint64_t idx) const {
        return issued_[idx].load(std::memory_order_acquire);
    }
    /** Next version of @p idx; only the key's writer calls this. */
    uint32_t issue(uint64_t idx) {
        return issued_[idx].fetch_add(1, std::memory_order_acq_rel) + 1;
    }
    /** Record that the store acknowledged @p version of @p idx. */
    void ack(uint64_t idx, uint32_t version) {
        acked_[idx].store(version, std::memory_order_release);
    }

  private:
    std::unique_ptr<std::atomic<uint32_t>[]> acked_, issued_;
};

/**
 * Check one returned value of record @p idx. @p acked_before is the
 * model's acknowledged version when the read began. Returns an empty
 * string when the value is correct, else what is wrong.
 */
std::string checkValue(const KeySet &ks, const Model &m, uint64_t idx,
                       std::string_view value, uint32_t acked_before);

/**
 * Check a scan that should return the @p count keys starting at sorted
 * position @p pos. @p acked_before holds each expected row's
 * acknowledged version when the scan began.
 */
std::string checkScan(const KeySet &ks, const Model &m, uint64_t pos,
                      size_t count, const Rows &rows,
                      const std::vector<uint32_t> &acked_before);

/**
 * The checker's own test: it must accept correct reads and reject a
 * value for the wrong key, a version older than one acknowledged before
 * the read, and a scan that drops a row. Returns an empty string on
 * success, else which case failed.
 */
std::string checkerSelfTest();

}  // namespace pb
