/**
 * @file
 * Shared pieces of the perfbench workload runner: host clocks, the
 * in-memory span tracer, the result record every workload fills,
 * and small statistics helpers.
 *
 * Host time is the CPU time of the one thread every workload runs on
 * (CLOCK_THREAD_CPUTIME_ID), i.e. the process's CPU time without the
 * scheduling noise a shared host adds to wall time, normalised for the
 * host's speed by `meter`. Simulated figures come from the library's
 * own deterministic counters and are compared bit-for-bit across
 * repeated passes.
 */

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

/** CPU time of the calling thread in seconds: every workload runs on
 *  one thread, so this is the process's CPU time. */
double cpuSeconds();

/** Monotonic wall time in seconds (informational only). */
double wallSeconds();

/** Peak resident set of this process, MiB. */
double peakRssMb();

/**
 * Host-speed meter. On a shared host the work a CPU second does
 * drifts by tens of percent with the neighbours' load. While the
 * meter runs, a thread CPU-time timer interrupts the workload every
 * 10 ms of CPU and times a fixed, benchmark-owned probe slice
 * (floating-point multiply-adds over an L1-sized array and dependent
 * random read-modify-writes in an L2-sized one) in the signal
 * handler. Its code never changes, so its speed tracks the host
 * only; a timed unit's rate is normalised by the probe speed seen
 * while the unit ran, and the samples' own CPU is taken out of it.
 */
namespace meter
{

/** Arm the sampling timer on the calling thread (idempotent). */
void start();
/** Disarm it and restore the previous SIGPROF disposition. */
void stop();

/** Probe speed (slices per CPU second) of the host the benchmark was
 *  calibrated on, a 4-core 2.1 GHz VM: normalised figures are in its
 *  CPU seconds. */
constexpr double kReferenceSpeed = 16000.0;

/** A timed unit: cpuSeconds() at its start and end. */
struct Interval
{
    double start = 0.0;
    double end = 0.0;
};

/** Probe speed while `iv` ran (slices per CPU second). A unit too
 *  short to hold a sample is measured by probe slices run now. */
double speed(const Interval &iv);

/** CPU seconds of `iv` net of the probe samples taken inside it. */
double netCpu(const Interval &iv);

/** CPU seconds of `iv`, net of probe samples, in reference-host CPU
 *  seconds: netCpu(iv) x speed(iv) / kReferenceSpeed. */
double normalizedCpu(const Interval &iv);

/** `work` units done over `iv`, per reference-host CPU second. */
double normalizedRate(double work, const Interval &iv);

/** `cpu` seconds of work measured just now, in reference-host CPU
 *  seconds (probe slices run right after it). */
double normalizedSeconds(double cpu);

} // namespace meter

/** Median of a non-empty sample (mean of the middle pair). */
double median(std::vector<double> values);

/** Command-line options of one workload process. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    /** "setup" (set up, then stop), "measure" or "trace". */
    std::string mode = "measure";
    /** Scratch directory inside the checkout (journal segments,
     *  span dumps). */
    std::string workDir = ".bench_build/work";
};

/**
 * In-memory span recorder for the traced run. Spans carry a name, a
 * start and end in thread-CPU nanoseconds, and the index of their
 * parent span (-1 for a root); they are written out once, when the
 * run ends. A disabled tracer records nothing and costs one branch.
 */
class Tracer
{
  public:
    struct Span
    {
        const char *name;
        std::int64_t startNs;
        std::int64_t endNs;
        std::int64_t parent;
    };

    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Open a span under the innermost open one; returns its id. */
    std::int64_t begin(const char *name);
    /** Close span `id` (must be the innermost open span). */
    void end(std::int64_t id);

    /** Summed duration of every span with this name, seconds. */
    double totalSeconds(const std::string &name) const;

    /** Write every span as JSON lines to `path`. */
    void write(const std::string &path) const;

  private:
    bool enabled_;
    std::vector<Span> spans_;
    std::vector<std::int64_t> open_;
};

/** RAII span: opens on construction, closes on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &tracer, const char *name)
        : tracer_(tracer),
          id_(tracer.enabled() ? tracer.begin(name) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (id_ >= 0)
            tracer_.end(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer &tracer_;
    std::int64_t id_;
};

/** One named output check. */
struct Check
{
    std::string name;
    bool ok = false;
    std::string detail;
};

/** What one workload process reports (printed as one JSON line). */
struct Result
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Check> checks;
    /** Metric name -> value (units live in run.py's table). */
    std::map<std::string, double> metrics;
    /** Extra numbers printed for the reader, never compared. */
    std::map<std::string, double> info;

    void
    check(const std::string &name, bool ok, const std::string &detail = "")
    {
        checks.push_back({name, ok, detail});
    }

    bool
    allOk() const
    {
        for (const Check &c : checks)
            if (!c.ok)
                return false;
        return true;
    }

    /** Print the record as the last line of standard output. */
    void print() const;
};

/**
 * Determinism self-check: every simulated figure of every pass must
 * equal the first pass's bit for bit. Feed one map per pass; a
 * difference is a failed check, never averaged away.
 */
class DeterminismCheck
{
  public:
    void add(const std::map<std::string, double> &pass);
    /** Passes compared so far. */
    std::size_t passes() const { return passes_; }
    /** Records the check ("<tag>deterministic_sim") into `r`. */
    void report(Result &r, const std::string &tag) const;

  private:
    std::map<std::string, double> first_;
    std::size_t passes_ = 0;
    std::string mismatch_;
};

/** Workload entry points (each fills `r`). */
void runServe(const Options &opt, Tracer &tracer, Result &r);
void runInfer(const Options &opt, Tracer &tracer, Result &r);
void runNoise(const Options &opt, Tracer &tracer, Result &r);

/**
 * Reference-host CPU ns per operation of `batch`, which performs `ops`
 * operations: one warm-up call, then the median of five timed calls.
 */
double cellNs(const std::function<void()> &batch, std::size_t ops);

/**
 * Per-layer cells: small fixed-size loops over the public functions
 * of reram, analog, digital, hct, runtime and journal, timed in
 * reference-host CPU ns per operation (median of several repeats). Fills the `*_ns`
 * per-layer metrics.
 */
void runLayerCells(const std::string &workDir, Result &r);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
