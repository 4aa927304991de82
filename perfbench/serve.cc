/**
 * @file
 * Serving side of the benchmark: a spawned dsserve, an open-loop
 * client, and the serve.* measurements.
 */

#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <stdexcept>
#include <thread>

#include "common/kv.hh"
#include "serve/client.hh"

#include "dsperf.hh"

namespace perfbench {

Daemon::Daemon(const Options &opts, const std::string &socket,
               const std::string &trace_dir)
    : socket_(socket)
{
    std::string socket_arg = "--socket=" + socket;
    std::string jobs_arg = "--jobs=" + std::to_string(opts.jobs);
    std::string dir_arg = "--trace-dir=" + trace_dir;
    pid_ = fork();
    if (pid_ < 0)
        throw std::runtime_error("fork failed");
    if (pid_ == 0) {
        // Keep the daemon's chatter off our stdout, whose last line
        // is the result.
        dup2(STDERR_FILENO, STDOUT_FILENO);
        execl(opts.dsserve.c_str(), opts.dsserve.c_str(),
              socket_arg.c_str(), jobs_arg.c_str(),
              trace_dir.empty() ? nullptr : dir_arg.c_str(), nullptr);
        _exit(127);
    }
    Clock::time_point deadline = Clock::now() + std::chrono::seconds(20);
    while (Clock::now() < deadline) {
        int status = 0;
        if (waitpid(pid_, &status, WNOHANG) == pid_) {
            pid_ = -1;
            throw std::runtime_error("dsserve exited during start-up");
        }
        serve::Client client;
        std::string error;
        if (client.connect(socket_, error) && client.ping().ok)
            return;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    kill(pid_, SIGKILL);
    waitpid(pid_, nullptr, 0);
    pid_ = -1;
    throw std::runtime_error("dsserve did not come up on " + socket_);
}

Daemon::~Daemon()
{
    if (pid_ > 0) {
        kill(pid_, SIGKILL);
        waitpid(pid_, nullptr, 0);
    }
}

double
Daemon::stop()
{
    serve::Client client;
    std::string error;
    if (client.connect(socket_, error))
        client.shutdown();
    else
        kill(pid_, SIGTERM);
    int status = 0;
    struct rusage ru {};
    wait4(pid_, &status, 0, &ru);
    pid_ = -1;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
        throw std::runtime_error("dsserve did not exit cleanly");
    return double(ru.ru_maxrss) / 1024.0;
}

std::vector<Sent>
openLoop(const std::string &socket,
         const std::vector<driver::RunRequest> &table,
         const std::vector<std::pair<double, std::size_t>> &schedule,
         unsigned connections, Clock::time_point start)
{
    std::vector<Sent> sent(schedule.size());
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
        serve::Client client;
        std::string error;
        bool up = client.connect(socket, error);
        for (;;) {
            std::size_t i = next.fetch_add(1);
            if (i >= schedule.size())
                return;
            Sent &s = sent[i];
            s.entry = schedule[i].second;
            s.dueMs = schedule[i].first;
            s.freeMs = msBetween(start, Clock::now());
            std::this_thread::sleep_until(
                start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double, std::milli>(
                                s.dueMs)));
            s.sendMs = msBetween(start, Clock::now());
            serve::Reply reply;
            if (!up)
                up = client.connect(socket, error);
            if (up) {
                reply = client.run(table[s.entry]);
            } else {
                reply.error = error;
            }
            s.recvMs = msBetween(start, Clock::now());
            if (!reply.ok && reply.fields.empty()) {
                // Transport failure: reconnect for the next request.
                client.close();
                up = false;
            }
            s.ok = reply.ok;
            s.error = reply.error;
            s.json = std::move(reply.json);
            s.fields = std::move(reply.fields);
        }
    };
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < connections; ++c)
        threads.emplace_back(worker);
    for (std::thread &t : threads)
        t.join();
    return sent;
}

void
gateReplies(Context &ctx, const std::vector<driver::RunRequest> &table,
            const std::vector<Sent> &sent)
{
    for (const Sent &s : sent) {
        const driver::RunRequest &req = table[s.entry];
        std::string why;
        if (!s.ok)
            why = "error reply: " + s.error;
        else if (req.system == driver::SystemKind::DataScalar &&
                 s.fields.count("drained") &&
                 s.fields.at("drained") != "1")
            why = "protocol did not drain";
        ctx.gate.record(requestKey(req), simulatedJson(s.json), why);
    }
}

namespace {

double
fieldMs(const Sent &s, const std::string &key)
{
    auto it = s.fields.find(key);
    std::uint64_t us = 0;
    if (it == s.fields.end() || !common::kv::parseU64(it->second, us))
        return 0.0;
    return double(us) / 1000.0;
}

} // namespace

ServeLoad
serveMetrics(Context &ctx, const std::vector<driver::RunRequest> &table,
             const std::vector<Sent> &sent, Clock::time_point start)
{
    std::vector<double> queue_wait, sim_run, wire;
    double rejected = 0, hits = 0, gen_lag = 0, busy = 0, tail = 0,
           last = 0;
    for (const Sent &s : sent) {
        gen_lag = std::max(gen_lag,
                           s.sendMs - std::max(s.dueMs, s.freeMs));
        last = std::max(last, s.recvMs);
        if (!s.ok) {
            ++rejected;
            continue;
        }
        double server_total = fieldMs(s, "span_total_us");
        double server_wait =
            fieldMs(s, "span_admission_us") + fieldMs(s, "span_queue_wait_us");
        queue_wait.push_back(s.sendMs - s.dueMs + server_wait);
        sim_run.push_back(fieldMs(s, "span_sim_run_us"));
        wire.push_back(s.recvMs - s.sendMs - server_total);
        hits += s.fields.count("cache_hit") &&
                s.fields.at("cache_hit") == "1";
        busy += server_total - server_wait;
        tail = std::max(tail, server_total - server_wait);

        if (ctx.log.enabled()) {
            std::uint64_t id = ctx.nextRequest++;
            std::int64_t send_ns = ctx.log.toNs(
                start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double, std::milli>(
                                s.sendMs)));
            std::int64_t recv_ns =
                send_ns + std::int64_t((s.recvMs - s.sendMs) * 1e6);
            int root = ctx.log.add(id, -1, "serve", "Client::run",
                                   send_ns, recv_ns);
            // The reply carries durations only: lay the server's
            // phases end to end inside the client span.
            std::int64_t at = send_ns;
            const char *sim = simLayer(table[s.entry].system);
            for (const auto &[key, value] : s.fields) {
                if (key.rfind("span_", 0) != 0 || key == "span_total_us" ||
                    key.size() < 9)
                    continue;
                std::string name = key.substr(5, key.size() - 8);
                std::int64_t dur = std::int64_t(fieldMs(s, key) * 1e6);
                ctx.log.add(id, root, requestSpanLayer(name, sim),
                            requestSpanName(name), at, at + dur);
                at += dur;
            }
        }
    }
    double n = double(sent.size());
    double ok = n - rejected;
    Metrics &m = ctx.metrics;
    m.set("serve.queue_wait_ms_p99", percentile(queue_wait, 0.99), "ms");
    m.set("serve.sim_run_ms_p50", percentile(sim_run, 0.5), "ms");
    m.set("serve.wire_ms_p50", percentile(wire, 0.5), "ms");
    m.set("serve.rejected_frac", n > 0 ? rejected / n : 0.0, "fraction");
    m.set("serve.gen_lag_ms_max", gen_lag, "ms");
    ServeLoad load;
    load.cacheHitFrac = ok > 0 ? hits / ok : 0.0;
    load.busyFrac = last > 0 ? busy / (double(ctx.opts.jobs) * last) : 0.0;
    load.tailPointS = tail / 1000.0;
    return load;
}

void
serveBurst(Context &ctx, const std::vector<driver::RunRequest> &table)
{
    Daemon daemon(ctx.opts, ctx.opts.workDir + "/burst.sock", "");
    std::vector<std::pair<double, std::size_t>> schedule;
    for (std::size_t i = 0; i < table.size(); ++i)
        schedule.push_back({0.0, i});
    Clock::time_point start = Clock::now();
    std::vector<Sent> sent =
        openLoop(daemon.socket(), table, schedule, ctx.opts.jobs, start);
    daemon.stop();
    gateReplies(ctx, table, sent);
    serveMetrics(ctx, table, sent, start);
}

} // namespace perfbench
