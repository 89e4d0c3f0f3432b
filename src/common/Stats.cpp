#include "common/Stats.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace darth
{

void
addRepeated(double &sum, double x, u64 n)
{
    while (n != 0) {
        if (n <= 2 || !(sum >= std::numeric_limits<double>::min()) ||
            !(x > 0.0) || !std::isfinite(sum)) {
            sum += x;
            --n;
            continue;
        }
        // sum = units * ulp with units in [2^52, 2^53); x = (whole +
        // frac) ulps.
        int exponent = 0;
        (void)std::frexp(sum, &exponent);
        const double ulp = std::ldexp(1.0, exponent - 53);
        const double quotient = x / ulp;
        const double whole = std::floor(quotient);
        const double frac = quotient - whole;
        if (!(quotient < 0x1p52) || frac == 0.5) {
            sum += x;      // too large to scale, or a parity-bound tie
            --n;
            continue;
        }
        const u64 q = static_cast<u64>(whole);
        const u64 step = frac < 0.5 ? q : q + 1;
        if (step == 0)
            return;        // below half an ulp: every add rounds back
        const u64 units = static_cast<u64>(sum / ulp);
        const u64 room = (u64{1} << 53) - units;
        // Add j (from 0) rounds within the binade while units +
        // j*step + q + frac < 2^53, i.e. j*step + q <= room - 1.
        if (q + 1 > room) {
            sum += x;      // this add leaves the binade
            --n;
            continue;
        }
        const u64 take = std::min(n, (room - 1 - q) / step + 1);
        sum = static_cast<double>(units + take * step) * ulp;
        n -= take;
    }
}

double
geoMean(const std::vector<double> &ratios)
{
    if (ratios.empty())
        return 1.0;
    double log_sum = 0.0;
    for (double r : ratios)
        log_sum += std::log(r);
    return std::exp(log_sum / static_cast<double>(ratios.size()));
}

namespace
{

/** Nearest-rank percentile over an already-sorted sample: ceil(p/100
 *  * N), 1-indexed; p = 0 maps to the minimum. */
double
sortedPercentile(const std::vector<double> &sorted, double p)
{
    p = std::min(100.0, std::max(0.0, p));
    const std::size_t n = sorted.size();
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n)));
    if (rank == 0)
        rank = 1;
    return sorted[rank - 1];
}

} // namespace

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    return sortedPercentile(values, p);
}

void
StreamingHistogram::push(double v)
{
    if (count_ == 0) {
        min_ = v;
        max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    ++count_;
    sum_ += v;
    double clamped = std::max(0.0, v);
    std::size_t idx =
        static_cast<std::size_t>(std::floor(clamped / width_));
    while (idx >= maxBuckets_) {
        coarsen();
        idx = static_cast<std::size_t>(std::floor(clamped / width_));
    }
    if (counts_.size() <= idx)
        counts_.resize(idx + 1, 0);
    ++counts_[idx];
}

void
StreamingHistogram::coarsen()
{
    std::vector<u64> merged((counts_.size() + 1) / 2, 0);
    for (std::size_t i = 0; i < counts_.size(); ++i)
        merged[i / 2] += counts_[i];
    counts_ = std::move(merged);
    width_ *= 2.0;
}

double
StreamingHistogram::percentile(double p) const
{
    if (count_ == 0)
        return 0.0;
    p = std::min(100.0, std::max(0.0, p));
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(count_)));
    if (rank == 0)
        rank = 1;
    u64 cum = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        cum += counts_[i];
        if (cum >= rank)
            return static_cast<double>(i) * width_;
    }
    return static_cast<double>(counts_.size()) * width_;
}

SampleSummary
StreamingHistogram::summary() const
{
    SampleSummary s;
    if (count_ == 0)
        return s;
    s.count = count_;
    s.min = min_;
    s.max = max_;
    s.mean = mean();
    s.p50 = percentile(50.0);
    s.p95 = percentile(95.0);
    s.p99 = percentile(99.0);
    return s;
}

void
StreamingHistogram::merge(const StreamingHistogram &other)
{
    if (other.count_ == 0)
        return;
    if (count_ == 0) {
        min_ = other.min_;
        max_ = other.max_;
    } else {
        min_ = std::min(min_, other.min_);
        max_ = std::max(max_, other.max_);
    }
    count_ += other.count_;
    sum_ += other.sum_;
    // Bring both sides onto the coarser grid (all widths are the
    // initial width times a power of two), then add counts.
    StreamingHistogram tmp = other;
    while (width_ < tmp.width_)
        coarsen();
    while (tmp.width_ < width_)
        tmp.coarsen();
    if (counts_.size() < tmp.counts_.size())
        counts_.resize(tmp.counts_.size(), 0);
    for (std::size_t i = 0; i < tmp.counts_.size(); ++i)
        counts_[i] += tmp.counts_[i];
}

SampleSummary
summarize(const std::vector<double> &values)
{
    SampleSummary s;
    if (values.empty())
        return s;
    s.count = values.size();
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    s.min = sorted.front();
    s.max = sorted.back();
    double sum = 0.0;
    for (double v : sorted)
        sum += v;
    s.mean = sum / static_cast<double>(sorted.size());
    s.p50 = sortedPercentile(sorted, 50.0);
    s.p95 = sortedPercentile(sorted, 95.0);
    s.p99 = sortedPercentile(sorted, 99.0);
    return s;
}

} // namespace darth
