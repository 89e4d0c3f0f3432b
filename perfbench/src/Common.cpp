#include "Common.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <stdexcept>

#include <sys/resource.h>

namespace perfbench
{

namespace
{

std::int64_t
clockNs(clockid_t id)
{
    timespec ts{};
    clock_gettime(id, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 +
           ts.tv_nsec;
}

/** JSON string body with quotes and control characters escaped. */
std::string
escape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out;
}

void
printNumberMap(const std::map<std::string, double> &m)
{
    std::printf("{");
    bool first = true;
    for (const auto &[name, value] : m) {
        // JSON has no NaN/Inf; a non-finite figure is a bug the
        // caller's checks must already have flagged.
        std::printf("%s\"%s\": %.17g", first ? "" : ", ",
                    escape(name).c_str(),
                    std::isfinite(value) ? value : -1.0);
        first = false;
    }
    std::printf("}");
}

} // namespace

double
cpuSeconds()
{
    return static_cast<double>(clockNs(CLOCK_THREAD_CPUTIME_ID)) * 1e-9;
}

double
wallSeconds()
{
    return static_cast<double>(clockNs(CLOCK_MONOTONIC)) * 1e-9;
}

double
peakRssMb()
{
    rusage usage{};
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0.0;
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        throw std::logic_error("median of an empty sample");
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace meter
{

namespace
{

/** One probe sample: CPU clock at its start, the handler's whole
 *  duration, and the timed slice's. */
struct Sample
{
    std::int64_t at;
    std::int64_t ns;
    std::int64_t sliceNs;
};

constexpr std::size_t kMaxSamples = std::size_t{1} << 18;
constexpr long kIntervalNs = 10000000;
constexpr std::size_t kRmwWords = std::size_t{1} << 15;

Sample g_samples[kMaxSamples];
std::atomic<std::size_t> g_count{0};
bool g_armed = false;
struct sigaction g_previous;

double g_fp[4096];
std::uint64_t g_rmw[kRmwWords];
std::uint64_t g_x = 0x9E3779B97F4A7C15ULL;
/** Keeps the slice's results observable, so it is never elided. */
volatile double g_sink = 0.0;

/** Bring the slice's buffers back into cache after the workload
 *  evicted them, so the timed slice measures the core, not the
 *  workload's last cache footprint. */
void
warmSlice()
{
    double acc = 0.0;
    for (std::size_t i = 0; i < 4096; i += 8)
        acc += g_fp[i];
    for (std::size_t i = 0; i < kRmwWords; i += 8)
        acc += static_cast<double>(g_rmw[i] & 1);
    g_sink = acc;
}

/** The fixed probe slice (async-signal-safe: no allocation, no
 *  locks). */
void
probeSlice()
{
    double acc = 0.0;
    for (int round = 0; round < 4; ++round) {
        for (std::size_t i = 0; i < 4096; ++i)
            acc += g_fp[i] * static_cast<double>(i & 7);
        for (int i = 0; i < 1024; ++i) {
            g_x = g_x * 6364136223846793005ULL + 1442695040888963407ULL;
            std::uint64_t &slot = g_rmw[(g_x >> 40) & (kRmwWords - 1)];
            slot += g_x;
            g_x ^= slot >> 7;
        }
        g_fp[g_x & 4095] += 1.0;
    }
    g_sink = acc + static_cast<double>(g_x & 1);
}

void
onSigprof(int)
{
    const int saved = errno;
    const std::int64_t t0 = clockNs(CLOCK_THREAD_CPUTIME_ID);
    warmSlice();
    const std::int64_t t1 = clockNs(CLOCK_THREAD_CPUTIME_ID);
    probeSlice();
    const std::int64_t t2 = clockNs(CLOCK_THREAD_CPUTIME_ID);
    const std::size_t i = g_count.load(std::memory_order_relaxed);
    if (i < kMaxSamples) {
        g_samples[i] = {t0, t2 - t0, t2 - t1};
        g_count.store(i + 1, std::memory_order_release);
    }
    errno = saved;
}

timer_t g_timer;

void
setTimer(long ns)
{
    itimerspec ts{};
    ts.it_interval.tv_nsec = ns;
    ts.it_value.tv_nsec = ns;
    if (timer_settime(g_timer, 0, &ts, nullptr) != 0)
        throw std::runtime_error("timer_settime failed");
}

/** Slices per CPU second of `n` slices run now, warm. */
double
inlineSpeed(int n)
{
    warmSlice();
    const std::int64_t t0 = clockNs(CLOCK_THREAD_CPUTIME_ID);
    for (int i = 0; i < n; ++i)
        probeSlice();
    const std::int64_t t1 = clockNs(CLOCK_THREAD_CPUTIME_ID);
    return n / (static_cast<double>(t1 - t0) * 1e-9);
}

struct Window
{
    std::size_t samples = 0;
    std::int64_t ns = 0;
    std::int64_t sliceNs = 0;
};

Window
window(const Interval &iv)
{
    const auto lo = static_cast<std::int64_t>(iv.start * 1e9);
    const auto hi = static_cast<std::int64_t>(iv.end * 1e9);
    Window w;
    const std::size_t n = g_count.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < n; ++i) {
        if (g_samples[i].at >= lo && g_samples[i].at < hi) {
            ++w.samples;
            w.ns += g_samples[i].ns;
            w.sliceNs += g_samples[i].sliceNs;
        }
    }
    return w;
}

} // namespace

void
start()
{
    if (g_armed)
        return;
    inlineSpeed(2);   // fault the probe buffers in outside any unit
    struct sigaction sa{};
    sa.sa_handler = onSigprof;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = SA_RESTART;
    if (sigaction(SIGPROF, &sa, &g_previous) != 0)
        throw std::runtime_error("sigaction(SIGPROF) failed");
    // A thread CPU-time timer: a process-wide one (ITIMER_PROF) would
    // coarsen the CPU clocks the units are timed with to scheduler
    // ticks.
    sigevent ev{};
    ev.sigev_notify = SIGEV_SIGNAL;
    ev.sigev_signo = SIGPROF;
    if (timer_create(CLOCK_THREAD_CPUTIME_ID, &ev, &g_timer) != 0)
        throw std::runtime_error("timer_create failed");
    setTimer(kIntervalNs);
    g_armed = true;
}

void
stop()
{
    if (!g_armed)
        return;
    timer_delete(g_timer);
    sigaction(SIGPROF, &g_previous, nullptr);
    g_armed = false;
}

double
netCpu(const Interval &iv)
{
    return iv.end - iv.start -
           static_cast<double>(window(iv).ns) * 1e-9;
}

double
speed(const Interval &iv)
{
    const Window w = window(iv);
    return w.samples == 0 ? inlineSpeed(8)
                          : static_cast<double>(w.samples) /
                                (static_cast<double>(w.sliceNs) * 1e-9);
}

double
normalizedCpu(const Interval &iv)
{
    return netCpu(iv) * speed(iv) / kReferenceSpeed;
}

double
normalizedRate(double work, const Interval &iv)
{
    return work / normalizedCpu(iv);
}

double
normalizedSeconds(double cpu)
{
    return cpu * inlineSpeed(8) / kReferenceSpeed;
}

} // namespace meter

std::int64_t
Tracer::begin(const char *name)
{
    const std::int64_t parent = open_.empty() ? -1 : open_.back();
    const std::int64_t id = static_cast<std::int64_t>(spans_.size());
    spans_.push_back(
        {name, clockNs(CLOCK_THREAD_CPUTIME_ID), 0, parent});
    open_.push_back(id);
    return id;
}

void
Tracer::end(std::int64_t id)
{
    if (open_.empty() || open_.back() != id)
        throw std::logic_error("Tracer::end: span closed out of order");
    spans_[static_cast<std::size_t>(id)].endNs =
        clockNs(CLOCK_THREAD_CPUTIME_ID);
    open_.pop_back();
}

double
Tracer::totalSeconds(const std::string &name) const
{
    std::int64_t total = 0;
    for (const Span &s : spans_)
        if (name == s.name)
            total += s.endNs - s.startNs;
    return static_cast<double>(total) * 1e-9;
}

void
Tracer::write(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot write span dump " + path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << "{\"id\": " << i << ", \"name\": \"" << s.name
            << "\", \"start_ns\": " << s.startNs
            << ", \"end_ns\": " << s.endNs
            << ", \"parent\": " << s.parent << "}\n";
    }
    if (!out)
        throw std::runtime_error("short write to span dump " + path);
}

void
Result::print() const
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, "
                "\"failed\": %llu, \"metrics\": ",
                allOk() ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    printNumberMap(metrics);
    std::printf(", \"info\": ");
    printNumberMap(info);
    std::printf(", \"checks\": [");
    for (std::size_t i = 0; i < checks.size(); ++i)
        std::printf("%s{\"name\": \"%s\", \"ok\": %s, "
                    "\"detail\": \"%s\"}",
                    i == 0 ? "" : ", ", escape(checks[i].name).c_str(),
                    checks[i].ok ? "true" : "false",
                    escape(checks[i].detail).c_str());
    std::printf("]}\n");
    std::fflush(stdout);
}

void
DeterminismCheck::add(const std::map<std::string, double> &pass)
{
    if (passes_++ == 0) {
        first_ = pass;
        return;
    }
    if (!mismatch_.empty())
        return;
    if (pass.size() != first_.size()) {
        mismatch_ = "pass " + std::to_string(passes_ - 1) +
                    " reported a different set of simulated figures";
        return;
    }
    for (const auto &[name, value] : pass) {
        const auto it = first_.find(name);
        // Bit-for-bit: simulated figures are deterministic functions
        // of the seed, so even the last ulp must repeat.
        if (it == first_.end() || !(it->second == value)) {
            char buf[160];
            std::snprintf(buf, sizeof buf, "%s: pass 0 %.17g, pass %zu %.17g",
                          name.c_str(),
                          it == first_.end() ? 0.0 : it->second,
                          passes_ - 1, value);
            mismatch_ = buf;
            return;
        }
    }
}

void
DeterminismCheck::report(Result &r, const std::string &tag) const
{
    r.check(tag + "deterministic_sim", mismatch_.empty(),
            mismatch_.empty()
                ? std::to_string(passes_) + " passes bit-identical"
                : mismatch_);
}

} // namespace perfbench
