/**
 * @file
 * The wire probe behind the `net.*` ledger: net::RespServer over the
 * prism_server fixture, run as its own process, driven open loop at a
 * fixed rate by the benchmark's own RESP client, then the same client
 * against a RespServer over an in-memory map (the harness floor).
 *
 * It runs in read_miss's traced run and is not a workload of its own:
 * on the 4-vCPU VM it was built on, latency from scheduled arrival at
 * light load tracks the host's CPU steal (p50 33 us at 0.5% steal, 83 us
 * at 12%), so no end-to-end bound could hold across runs.
 *
 * Server process (`perfbench serve`): loads the records, serves RESP
 * through an EngineTimer, and answers line commands on stdin — MARK and
 * END bracket the timed phase and print the engine's figures; STOP <set
 * bytes> stops the listener, cross-checks lifetime totals and exits. It
 * also exits when stdin closes, so it never outlives the driver.
 *
 * Client: one thread per connection sends each request at its
 * scheduled arrival (ppoll with a nanosecond timeout, which also wakes
 * for replies; the thread's timer slack is 1 ns), times it from that
 * arrival, and records how late it was sent. Requests are YCSB-B: 95%
 * GET, 5% SET, Zipf 0.99, 256-byte values; a key is SET only by the
 * connection that owns it.
 */
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstring>
#include <deque>
#include <iostream>
#include <shared_mutex>
#include <thread>
#include <unordered_map>

#include "layers.h"
#include "model.h"
#include "net/resp_server.h"
#include "workloads.h"

extern char **environ;

namespace pb {

namespace {

constexpr uint64_t kRecords = 100000;
constexpr size_t kValueBytes = 256;
constexpr int kConns = 2;
constexpr double kRate = 5000;        ///< offered requests per second
constexpr double kSetShare = 0.05;
constexpr uint64_t kWarmupNs = 1'000'000'000;
constexpr double kProbeSeconds = 8;    ///< timed phase against Prism
constexpr double kNullSeconds = 4;     ///< against the in-memory store
constexpr uint64_t kDrainNs = 5'000'000'000;

// ---------------------------------------------------------------------------
// A trivial in-memory store: the RespServer floor for net.null_*.

class NullStore : public prism::ycsb::KvStore {
  public:
    std::string name() const override { return "null"; }
    prism::Status
    put(uint64_t key, std::string_view value) override
    {
        std::unique_lock<std::shared_mutex> g(mu_);
        map_[key].assign(value);
        return prism::Status::ok();
    }
    prism::Status
    get(uint64_t key, std::string *value) override
    {
        std::shared_lock<std::shared_mutex> g(mu_);
        auto it = map_.find(key);
        if (it == map_.end())
            return prism::Status::notFound();
        *value = it->second;
        return prism::Status::ok();
    }
    prism::Status
    del(uint64_t key) override
    {
        std::unique_lock<std::shared_mutex> g(mu_);
        map_.erase(key);
        return prism::Status::ok();
    }
    prism::Status
    scan(uint64_t, size_t,
         std::vector<std::pair<uint64_t, std::string>> *) override
    {
        return prism::Status::notSupported();
    }

  private:
    std::shared_mutex mu_;
    std::unordered_map<uint64_t, std::string> map_;
};

// ---------------------------------------------------------------------------
// RESP framing (the benchmark's own, independent of src/net).

void
appendCommand(std::string *out, std::initializer_list<std::string_view> args)
{
    *out += "*" + std::to_string(args.size()) + "\r\n";
    for (std::string_view a : args) {
        *out += "$" + std::to_string(a.size()) + "\r\n";
        out->append(a);
        *out += "\r\n";
    }
}

struct Reply {
    char type = 0;                    ///< '+', '-', ':', '$', '*'
    bool nil = false;
    std::string str;
    std::vector<Reply> items;
};

/** Parse one reply at @p pos; returns bytes consumed, 0 if incomplete. */
size_t
parseReply(std::string_view buf, size_t pos, Reply *r)
{
    const size_t eol = buf.find("\r\n", pos);
    if (eol == std::string_view::npos)
        return 0;
    r->type = buf[pos];
    const std::string_view line = buf.substr(pos + 1, eol - pos - 1);
    size_t at = eol + 2;
    switch (r->type) {
    case '+':
    case '-':
    case ':':
        r->str.assign(line);
        return at - pos;
    case '$': {
        const long n = std::strtol(std::string(line).c_str(), nullptr, 10);
        if (n < 0) {
            r->nil = true;
            return at - pos;
        }
        if (buf.size() < at + static_cast<size_t>(n) + 2)
            return 0;
        r->str.assign(buf.substr(at, static_cast<size_t>(n)));
        return at + static_cast<size_t>(n) + 2 - pos;
    }
    case '*': {
        const long n = std::strtol(std::string(line).c_str(), nullptr, 10);
        r->items.assign(static_cast<size_t>(std::max(0L, n)), Reply{});
        for (auto &it : r->items) {
            const size_t used = parseReply(buf, at, &it);
            if (used == 0)
                return 0;
            at += used;
        }
        return at - pos;
    }
    default:
        r->type = '-';
        r->str = "unparseable reply";
        return buf.size() - pos;
    }
}

int
connectTo(int port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (fd < 0 ||
        ::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) != 0) {
        if (fd >= 0)
            ::close(fd);
        return -1;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return fd;
}

bool
sendAll(int fd, const std::string &s)
{
    size_t off = 0;
    while (off < s.size()) {
        const ssize_t w = ::send(fd, s.data() + off, s.size() - off,
                                 MSG_NOSIGNAL);
        if (w <= 0)
            return false;
        off += static_cast<size_t>(w);
    }
    return true;
}

// ---------------------------------------------------------------------------
// Open-loop client

/** What the client phase measured, merged over connections. */
struct ClientTally {
    Windowed wire_ns;
    Hist lag_ns;
    uint64_t t0 = 0;      ///< the phase's first scheduled arrival
    uint64_t sent = 0, done = 0, failed = 0, set_bytes = 0;
    uint64_t last_reply_ns = 0;
    std::vector<std::string> errs;

    void
    merge(const ClientTally &o)
    {
        wire_ns.merge(o.wire_ns);
        lag_ns.merge(o.lag_ns);
        sent += o.sent;
        done += o.done;
        failed += o.failed;
        set_bytes += o.set_bytes;
        last_reply_ns = std::max(last_reply_ns, o.last_reply_ns);
        for (const auto &e : o.errs)
            if (errs.size() < 5)
                errs.push_back(e);
    }
};

void
note(ClientTally *t, std::string e)
{
    if (t->errs.size() < 5)
        t->errs.push_back(std::move(e));
}

/** One connection's open loop over [t0, t_end). */
void
openLoop(int fd, int conn, const KeySet &ks, Model &m, const Zipf &zipf,
         Rng &rng, uint64_t t0, uint64_t t_end, ClientTally *t)
{
    struct Req {
        uint64_t sched;
        uint64_t idx;
        uint32_t version;   ///< SET: issued; GET: acknowledged at send
        bool set;
    };
    prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    const double interval = 1e9 * kConns / kRate;
    const double phase = interval * conn / kConns;
    std::deque<Req> fifo;
    std::string out, in, val;
    size_t in_pos = 0;
    uint64_t i = 0;
    auto sched = [&](uint64_t k) {
        return t0 + static_cast<uint64_t>(phase + interval *
                                                      static_cast<double>(k));
    };
    uint64_t next = sched(0);
    const uint64_t give_up = t_end + kDrainNs;
    for (;;) {
        uint64_t now = nowNs();
        if (next < t_end && now >= next) {
            Req q{next, zipf.next(rng), 0, rng.unit() < kSetShare};
            out.clear();
            if (q.set) {
                q.idx = q.idx / kConns * kConns + static_cast<uint64_t>(conn);
                if (q.idx >= ks.size())
                    q.idx -= kConns;
                q.version = m.issue(q.idx);
                encodeValue(ks.key(q.idx), q.version, kValueBytes, &val);
                appendCommand(&out, {"SET", std::to_string(ks.key(q.idx)),
                                     val});
            } else {
                q.version = m.acked(q.idx);
                appendCommand(&out, {"GET", std::to_string(ks.key(q.idx))});
            }
            t->lag_ns.record(nowNs() - next);
            if (!sendAll(fd, out)) {
                note(t, "send failed");
                return;
            }
            if (q.set)
                t->set_bytes += val.size();
            fifo.push_back(q);
            t->sent++;
            next = sched(++i);
            continue;
        }
        if (next >= t_end && fifo.empty())
            return;
        if (now > give_up) {
            note(t, std::to_string(fifo.size()) + " replies never arrived");
            t->failed += fifo.size();
            return;
        }
        const uint64_t wait =
            next < t_end ? next - now : std::min<uint64_t>(give_up - now,
                                                           100'000'000);
        timespec ts{static_cast<time_t>(wait / 1000000000ull),
                    static_cast<long>(wait % 1000000000ull)};
        pollfd p{fd, POLLIN, 0};
        if (ppoll(&p, 1, &ts, nullptr) <= 0)
            continue;
        char buf[65536];
        const ssize_t n = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
        if (n <= 0) {
            note(t, "connection closed by the server");
            t->failed += fifo.size();
            return;
        }
        in.append(buf, static_cast<size_t>(n));
        now = nowNs();
        for (;;) {
            Reply r;
            const size_t used = parseReply(in, in_pos, &r);
            if (used == 0)
                break;
            in_pos += used;
            if (fifo.empty()) {
                note(t, "reply without a request");
                continue;
            }
            const Req q = fifo.front();
            fifo.pop_front();
            t->done++;
            t->last_reply_ns = now;
            if (r.type == '-' || r.nil) {
                t->failed++;
                note(t, (q.set ? "SET error: " : "GET error: ") +
                            (r.nil ? std::string("nil") : r.str));
                continue;
            }
            t->wire_ns.record(q.sched - t->t0, now - q.sched);
            if (q.set) {
                if (r.type != '+')
                    note(t, "SET reply is not +OK");
                else
                    m.ack(q.idx, q.version);
            } else {
                std::string err = r.type == '$'
                                      ? checkValue(ks, m, q.idx, r.str,
                                                   q.version)
                                      : "GET reply is not a bulk string";
                if (!err.empty())
                    note(t, "GET: " + err);
            }
        }
        if (in_pos > (1u << 20) || in_pos == in.size()) {
            in.erase(0, in_pos);
            in_pos = 0;
        }
    }
}

/** Run every connection's open loop for @p ns; returns merged tallies. */
ClientTally
runPhase(const std::vector<int> &fds, const KeySet &ks, Model &m,
         const Zipf &zipf, std::vector<Rng> &rngs, uint64_t ns,
         uint64_t *t0_out)
{
    std::vector<ClientTally> tallies(fds.size());
    const uint64_t t0 = nowNs() + 2'000'000;
    std::vector<std::thread> th;
    for (size_t c = 0; c < fds.size(); c++)
        tallies[c].t0 = t0;
    for (size_t c = 0; c < fds.size(); c++)
        th.emplace_back([&, c] {
            openLoop(fds[c], static_cast<int>(c), ks, m, zipf, rngs[c], t0,
                     t0 + ns, &tallies[c]);
        });
    for (auto &x : th)
        x.join();
    ClientTally all;
    for (auto &t : tallies)
        all.merge(t);
    if (t0_out)
        *t0_out = t0;
    return all;
}

/** MGET every key in batches; each must hold its acknowledged version. */
void
readBackWire(int fd, const KeySet &ks, const Model &m,
             std::vector<std::string> *errs)
{
    constexpr size_t kBatch = 100, kDepth = 8;
    std::string out, in;
    size_t in_pos = 0;
    std::deque<uint64_t> fifo;   // first record index of each batch
    uint64_t next = 0;
    while (next < ks.size() || !fifo.empty()) {
        while (next < ks.size() && fifo.size() < kDepth) {
            out = "*" + std::to_string(
                            1 + std::min<uint64_t>(kBatch, ks.size() - next)) +
                  "\r\n$4\r\nMGET\r\n";
            for (uint64_t i = next; i < std::min(next + kBatch, ks.size());
                 i++) {
                const std::string k = std::to_string(ks.key(i));
                out += "$" + std::to_string(k.size()) + "\r\n" + k + "\r\n";
            }
            if (!sendAll(fd, out)) {
                errs->push_back("read-back: send failed");
                return;
            }
            fifo.push_back(next);
            next += kBatch;
        }
        char buf[65536];
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0) {
            errs->push_back("read-back: connection closed");
            return;
        }
        in.append(buf, static_cast<size_t>(n));
        for (;;) {
            Reply r;
            const size_t used = parseReply(in, in_pos, &r);
            if (used == 0)
                break;
            in_pos += used;
            const uint64_t first = fifo.front();
            fifo.pop_front();
            const size_t want = std::min<uint64_t>(kBatch, ks.size() - first);
            if (r.type != '*' || r.items.size() != want) {
                errs->push_back("read-back: bad MGET reply");
                return;
            }
            for (size_t j = 0; j < want; j++) {
                const uint64_t idx = first + j;
                std::string err =
                    r.items[j].nil
                        ? "key " + std::to_string(ks.key(idx)) + " missing"
                        : checkValue(ks, m, idx, r.items[j].str, m.acked(idx));
                uint64_t key;
                uint32_t ver = 0;
                if (err.empty() && decodeValue(r.items[j].str, &key, &ver) &&
                    ver != m.acked(idx))
                    err = "key " + std::to_string(key) + " holds version " +
                          std::to_string(ver) + ", acknowledged " +
                          std::to_string(m.acked(idx));
                if (!err.empty()) {
                    errs->push_back("read-back: " + err);
                    return;
                }
            }
        }
        in.erase(0, in_pos);
        in_pos = 0;
    }
}

// ---------------------------------------------------------------------------
// Server process control

struct Server {
    pid_t pid = -1;
    FILE *out = nullptr;   ///< its stdout
    int in = -1;           ///< its stdin
    int port = 0;

    bool
    start(const RunArgs &a, bool null_store)
    {
        int to_child[2], from_child[2];
        if (pipe2(to_child, O_CLOEXEC) != 0 || pipe2(from_child, O_CLOEXEC) != 0)
            return false;
        posix_spawn_file_actions_t fa;
        posix_spawn_file_actions_init(&fa);
        posix_spawn_file_actions_adddup2(&fa, to_child[0], 0);
        posix_spawn_file_actions_adddup2(&fa, from_child[1], 1);
        const std::string seed = std::to_string(a.seed);
        std::vector<const char *> argv = {a.self_exe.c_str(), "serve",
                                          "--seed", seed.c_str()};
        if (null_store)
            argv.push_back("--null");
        argv.push_back(nullptr);
        const int rc = posix_spawn(&pid, a.self_exe.c_str(), &fa, nullptr,
                                   const_cast<char *const *>(argv.data()),
                                   environ);
        posix_spawn_file_actions_destroy(&fa);
        ::close(to_child[0]);
        ::close(from_child[1]);
        in = to_child[1];
        out = fdopen(from_child[0], "r");
        if (rc != 0) {
            pid = -1;
            return false;
        }
        std::string line;
        return readLine(&line) && std::sscanf(line.c_str(), "READY %d",
                                              &port) == 1;
    }

    bool
    readLine(std::string *line)
    {
        char buf[4096];
        if (!std::fgets(buf, sizeof(buf), out))
            return false;
        *line = buf;
        while (!line->empty() && line->back() == '\n')
            line->pop_back();
        return true;
    }

    /** Send @p cmd; collect M/E lines until DONE. */
    bool
    command(const std::string &cmd, Metrics *m, std::vector<std::string> *errs)
    {
        const std::string c = cmd + "\n";
        if (::write(in, c.data(), c.size()) != static_cast<ssize_t>(c.size()))
            return false;
        std::string line;
        while (readLine(&line)) {
            if (line == "DONE")
                return true;
            if (line.rfind("E ", 0) == 0) {
                errs->push_back("server: " + line.substr(2));
            } else if (line.rfind("M ", 0) == 0) {
                char name[128], unit[32];
                double v;
                if (std::sscanf(line.c_str(), "M %127s %lf %31s", name, &v,
                                unit) == 3)
                    m->set(name, v, unit);
            }
        }
        return false;
    }

    /** Close its stdin, which ends it, and reap it. */
    void
    finish()
    {
        if (in >= 0)
            ::close(in);
        in = -1;
        if (out)
            std::fclose(out);
        out = nullptr;
        if (pid <= 0)
            return;
        int status = 0;
        while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
        }
        pid = -1;
    }

    ~Server() { finish(); }
};

/** Connect, warm up, run the timed phase and collect its results. */
bool
drive(const RunArgs &a, Server &srv, const KeySet &ks, Model &m,
      const Zipf &zipf, double seconds, ClientTally *timed, double *achieved,
      Metrics *server_m, std::vector<std::string> *errs,
      std::vector<int> *fds)
{
    std::vector<Rng> rngs;
    for (int c = 0; c < kConns; c++) {
        const int fd = connectTo(srv.port);
        if (fd < 0) {
            errs->push_back("cannot connect to the server");
            return false;
        }
        fds->push_back(fd);
        rngs.emplace_back(a.seed * 7919 + static_cast<uint64_t>(c));
    }
    ClientTally warm = runPhase(*fds, ks, m, zipf, rngs, kWarmupNs, nullptr);
    for (auto &e : warm.errs)
        errs->push_back("warm-up: " + e);
    if (!srv.command("MARK", server_m, errs))
        return false;
    uint64_t t0 = 0;
    const uint64_t ns = static_cast<uint64_t>(seconds * 1e9);
    *timed = runPhase(*fds, ks, m, zipf, rngs, ns, &t0);
    timed->set_bytes += warm.set_bytes;
    *achieved = timed->last_reply_ns > t0
                    ? static_cast<double>(timed->done) * 1e9 /
                          static_cast<double>(timed->last_reply_ns - t0)
                    : 0;
    return srv.command("END", server_m, errs);
}

}  // namespace

int
serveMain(int argc, char **argv)
{
    prctl(PR_SET_PDEATHSIG, SIGKILL, 0, 0, 0);
    std::signal(SIGPIPE, SIG_IGN);
    uint64_t seed = 1;
    bool null_store = false;
    for (int i = 2; i < argc; i++) {
        const std::string s = argv[i];
        if (s == "--seed" && i + 1 < argc)
            seed = std::strtoull(argv[++i], nullptr, 10);
        else if (s == "--null")
            null_store = true;
    }

    const KeySet ks(kRecords, seed);
    const prism::stats::StatsSnapshot at_open = snap();
    std::unique_ptr<Fixture> fx;
    std::unique_ptr<prism::ycsb::KvStore> base;
    if (null_store) {
        base = std::make_unique<NullStore>();
    } else {
        fx = std::make_unique<Fixture>(FixtureSpec{});  // prism_server's
        base = std::make_unique<RouterStore>(*fx->db);
    }
    // Four loaders, as the in-process workloads load.
    std::atomic<uint64_t> load_bytes{0};
    std::atomic<bool> load_ok{true};
    std::vector<std::thread> loaders;
    for (uint64_t t = 0; t < 4; t++)
        loaders.emplace_back([&, t] {
            std::string v;
            for (uint64_t i = t; i < ks.size(); i += 4) {
                encodeValue(ks.key(i), 1, kValueBytes, &v);
                if (!base->put(ks.key(i), v).isOk())
                    load_ok = false;
                load_bytes += v.size();
            }
        });
    for (auto &l : loaders)
        l.join();
    if (!load_ok) {
        std::fprintf(stderr, "serve: load failed\n");
        return 1;
    }
    base->flushAll();

    EngineTimer engine(*base);
    prism::net::RespServer server(engine);
    prism::net::RespServer::Options so;
    std::string err;
    if (!server.start(so, &err)) {
        std::fprintf(stderr, "serve: %s\n", err.c_str());
        return 1;
    }
    std::printf("READY %d\n", server.port());
    std::fflush(stdout);

    Diff timed;
    std::string line;
    while (std::getline(std::cin, line)) {
        std::vector<std::string> errs;
        if (line == "MARK") {
            timed.a = snap();
            engine.recording = true;
        } else if (line == "END") {
            engine.recording = false;
            timed.b = snap();
            const Hist get = engine.get_ns.snapshot();
            Hist all = get;
            all.merge(engine.put_ns.snapshot());
            std::printf("M net.engine_p50_us %.17g us\n",
                        all.quantile(0.5) / 1e3);
            std::printf("M net.engine_p99_us %.17g us\n",
                        all.quantile(0.99) / 1e3);
            std::printf("M net.backpressure %llu count\n",
                        static_cast<unsigned long long>(
                            timed.c("prism.server.backpressure")));
            const uint64_t srcs = timed.c("prism.get.pwb_hits") +
                                  timed.c("prism.get.svc_hits") +
                                  timed.c("prism.get.vs_reads");
            if (fx && srcs != get.count())
                errs.push_back("gets by source sum to " +
                               std::to_string(srcs) + ", the engine saw " +
                               std::to_string(get.count()) + " GETs");
        } else if (line.rfind("STOP", 0) == 0) {
            server.stop();
            if (fx) {
                const uint64_t set_bytes =
                    std::strtoull(line.c_str() + 4, nullptr, 10);
                fx->db->flushAll();
                crossCheck(at_open, *fx, load_bytes + set_bytes, &errs);
            }
        }
        for (const auto &e : errs)
            std::printf("E %s\n", e.c_str());
        std::printf("DONE\n");
        std::fflush(stdout);
        if (line.rfind("STOP", 0) == 0)
            break;
    }
    server.stop();
    return 0;
}

void
probeWire(const RunArgs &a, RunResult *r)
{
    const KeySet ks(kRecords, a.seed);
    const Zipf zipf(ks.size(), 0.99);

    // The store, then the harness floor: the same client against a
    // RespServer over a trivial in-memory store.
    for (const bool null_store : {false, true}) {
        Model model(ks.size());
        Server srv;
        ClientTally t;
        double achieved = 0;
        Metrics sm;
        std::vector<int> fds;
        const double secs = null_store ? kNullSeconds : kProbeSeconds;
        if (!srv.start(a, null_store) ||
            !drive(a, srv, ks, model, zipf, secs, &t, &achieved, &sm,
                   &r->errors, &fds)) {
            r->errors.push_back("wire probe: the server did not run");
        } else {
            readBackWire(fds[0], ks, model, &r->errors);
            srv.command("STOP " + std::to_string(t.set_bytes), &sm,
                        &r->errors);
        }
        for (int fd : fds)
            ::close(fd);
        srv.finish();
        for (auto &e : t.errs)
            r->errors.push_back("wire probe: " + e);
        r->attempted += t.sent;
        r->failed += t.failed;
        if (std::abs(achieved / kRate - 1) > 0.05)
            r->errors.push_back("wire probe: achieved rate " +
                                std::to_string(achieved) +
                                "/s is not the offered " +
                                std::to_string(kRate) + "/s");

        const auto full = static_cast<uint64_t>(secs);
        const double p50 = t.wire_ns.latency(0.5, 0.5, full) / 1e3;
        const double p99 = t.wire_ns.latency(0.99, 0.5, full) / 1e3;
        if (null_store) {
            r->layer.set("net.null_p50_us", p50, "us");
            r->layer.set("net.null_p99_us", p99, "us");
            continue;
        }
        r->layer.set("net.wire_p50_us", p50, "us");
        r->layer.set("net.wire_p99_us", p99, "us");
        for (const auto &x : sm.list())
            r->layer.set(x.name, x.value, x.unit);
        r->layer.set("net.loop_p50_us", p50 - sm.get("net.engine_p50_us"),
                     "us");
        r->layer.set("net.loop_p99_us", p99 - sm.get("net.engine_p99_us"),
                     "us");
        r->layer.set("net.gen_lag_p99_us", t.lag_ns.quantile(0.99) / 1e3,
                     "us");
    }
}

}  // namespace pb
