#include "model.h"

#include <algorithm>
#include <cstring>

#include "util.h"

namespace pb {

namespace {

uint64_t
load64(const char *p)
{
    uint64_t v;
    std::memcpy(&v, p, 8);
    return v;
}

/** Hash of the value with its checksum field (bytes 16..23) skipped. */
uint64_t
checksum(std::string_view v)
{
    uint64_t h = 0x243f6a8885a308d3ull ^ v.size();
    size_t i = 0;
    for (; i + 8 <= v.size(); i += 8) {
        if (i == 16)
            continue;
        h = mix64(h ^ load64(v.data() + i));
    }
    for (; i < v.size(); i++)
        h = mix64(h ^ static_cast<unsigned char>(v[i]));
    return h;
}

}  // namespace

KeySet::KeySet(uint64_t n, uint64_t seed)
    : keys_(n), order_(n), pos_(n)
{
    std::vector<uint64_t> salt(n, 0);
    auto gen = [&](uint64_t i) {
        uint64_t k = 0;
        while (k == 0)
            k = mix64(mix64(seed) ^ (i * 0x100000001b3ull) ^
                      (salt[i]++ << 40)) &
                kKeyMask;
        keys_[i] = k;
    };
    for (uint64_t i = 0; i < n; i++)
        gen(i);
    for (;;) {
        for (uint64_t i = 0; i < n; i++)
            order_[i] = static_cast<uint32_t>(i);
        std::sort(order_.begin(), order_.end(),
                  [&](uint32_t a, uint32_t b) { return keys_[a] < keys_[b]; });
        bool unique = true;
        for (uint64_t p = 1; p < n; p++) {
            if (keys_[order_[p]] == keys_[order_[p - 1]]) {
                gen(order_[p]);
                unique = false;
            }
        }
        if (unique)
            break;
    }
    for (uint64_t p = 0; p < n; p++)
        pos_[order_[p]] = static_cast<uint32_t>(p);
}

void
encodeValue(uint64_t key, uint32_t version, size_t size, std::string *out)
{
    out->resize(std::max(size, kValueHeader));
    char *p = out->data();
    const uint32_t pad = 0;
    std::memcpy(p, &key, 8);
    std::memcpy(p + 8, &version, 4);
    std::memcpy(p + 12, &pad, 4);
    uint64_t s = mix64(key) ^ version;
    for (size_t i = kValueHeader; i < out->size(); i += 8) {
        const uint64_t w = mix64(s++);
        std::memcpy(p + i, &w, std::min<size_t>(8, out->size() - i));
    }
    const uint64_t c = checksum(*out);
    std::memcpy(p + 16, &c, 8);
}

bool
decodeValue(std::string_view v, uint64_t *key, uint32_t *version)
{
    if (v.size() < kValueHeader)
        return false;
    if (load64(v.data() + 16) != checksum(v))
        return false;
    *key = load64(v.data());
    std::memcpy(version, v.data() + 8, 4);
    return true;
}

Model::Model(uint64_t n)
    : acked_(new std::atomic<uint32_t>[n]),
      issued_(new std::atomic<uint32_t>[n])
{
    for (uint64_t i = 0; i < n; i++) {
        acked_[i].store(1, std::memory_order_relaxed);
        issued_[i].store(1, std::memory_order_relaxed);
    }
}

std::string
checkValue(const KeySet &ks, const Model &m, uint64_t idx,
           std::string_view value, uint32_t acked_before)
{
    uint64_t key = 0;
    uint32_t version = 0;
    if (!decodeValue(value, &key, &version))
        return "bad checksum for key " + std::to_string(ks.key(idx));
    if (key != ks.key(idx))
        return "key " + std::to_string(ks.key(idx)) +
               " returned the value of key " + std::to_string(key);
    if (version < acked_before)
        return "key " + std::to_string(key) + " returned version " +
               std::to_string(version) + " after version " +
               std::to_string(acked_before) + " was acknowledged";
    const uint32_t issued = m.issued(idx);
    if (version > issued)
        return "key " + std::to_string(key) + " returned version " +
               std::to_string(version) + " but only " +
               std::to_string(issued) + " were issued";
    return {};
}

std::string
checkScan(const KeySet &ks, const Model &m, uint64_t pos, size_t count,
          const Rows &rows, const std::vector<uint32_t> &acked_before)
{
    if (rows.size() != count)
        return "scan from position " + std::to_string(pos) + " returned " +
               std::to_string(rows.size()) + " rows, expected " +
               std::to_string(count);
    for (size_t j = 0; j < count; j++) {
        if (j > 0 && rows[j].first <= rows[j - 1].first)
            return "scan keys not strictly ascending at row " +
                   std::to_string(j);
        if (rows[j].first != ks.sortedKey(pos + j))
            return "scan row " + std::to_string(j) + " has key " +
                   std::to_string(rows[j].first) + ", expected " +
                   std::to_string(ks.sortedKey(pos + j));
        std::string err = checkValue(ks, m, ks.sortedIdx(pos + j),
                                     rows[j].second, acked_before[j]);
        if (!err.empty())
            return "scan row " + std::to_string(j) + ": " + err;
    }
    return {};
}

std::string
checkerSelfTest()
{
    const KeySet ks(64, 7);
    Model m(ks.size());
    std::string v;

    // A correct read at a version acknowledged before it began passes.
    const uint32_t v2 = m.issue(3);
    encodeValue(ks.key(3), v2, 100, &v);
    m.ack(3, v2);
    if (!checkValue(ks, m, 3, v, m.acked(3)).empty())
        return "rejected a correct read";

    // Planted fault 1: the value of another key.
    encodeValue(ks.key(4), 1, 100, &v);
    if (checkValue(ks, m, 3, v, m.acked(3)).empty())
        return "accepted a value for the wrong key";

    // Planted fault 2: a version older than one acknowledged earlier.
    encodeValue(ks.key(3), 1, 100, &v);
    if (checkValue(ks, m, 3, v, m.acked(3)).empty())
        return "accepted a stale version";

    // Planted fault 3: a scan that drops a row.
    const uint64_t pos = 10, count = 5;
    Rows rows;
    std::vector<uint32_t> acked;
    for (uint64_t p = pos; p < pos + count; p++) {
        const uint64_t idx = ks.sortedIdx(p);
        encodeValue(ks.key(idx), m.acked(idx), 100, &v);
        rows.emplace_back(ks.key(idx), v);
        acked.push_back(m.acked(idx));
    }
    if (!checkScan(ks, m, pos, count, rows, acked).empty())
        return "rejected a correct scan";
    Rows dropped = rows;
    dropped.erase(dropped.begin() + 2);
    dropped.push_back({ks.sortedKey(pos + count), rows.back().second});
    if (checkScan(ks, m, pos, count, dropped, acked).empty())
        return "accepted a scan that dropped a row";

    // A flipped byte must fail the checksum.
    encodeValue(ks.key(3), v2, 100, &v);
    v[50] ^= 1;
    if (checkValue(ks, m, 3, v, m.acked(3)).empty())
        return "accepted a corrupted value";
    return {};
}

}  // namespace pb
