#include "apps/cnn/Layers.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace darth
{
namespace cnn
{

namespace
{

/**
 * acc[0..n) += v * w[0..n): one input value times one contiguous
 * weight row, the inner step of every MVM here. A zero input adds
 * nothing and is skipped. Unrolled by four because the default -O2
 * build neither unrolls nor vectorizes it; that made ResNet-20
 * forwards about 1.4x faster on a 4-core x86-64 VM.
 */
inline void
accumulateRow(i64 *acc, i64 v, const i64 *w, std::size_t n)
{
    if (v == 0)
        return;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        acc[i] += v * w[i];
        acc[i + 1] += v * w[i + 1];
        acc[i + 2] += v * w[i + 2];
        acc[i + 3] += v * w[i + 3];
    }
    for (; i < n; ++i)
        acc[i] += v * w[i];
}

/**
 * Output range [lo, hi), clipped to [0, out), along one axis whose
 * input o*stride + k - pad lies inside [0, in): the outputs that kernel
 * offset `k` reads from inside the image rather than from padding.
 */
std::pair<std::size_t, std::size_t>
insideOutputs(std::size_t k, std::size_t in, std::size_t out,
              std::size_t stride, std::size_t pad)
{
    const std::size_t lo = k >= pad ? 0 : (pad - k + stride - 1) / stride;
    const std::size_t hi =
        in + pad <= k ? 0 : (in + pad - k + stride - 1) / stride;
    return {lo, std::max(lo, std::min(hi, out))};
}

} // namespace

Conv2d::Conv2d(std::string name, std::size_t in_channels,
               std::size_t out_channels, std::size_t kernel,
               std::size_t stride, std::size_t pad)
    : name_(std::move(name)), cin_(in_channels), cout_(out_channels),
      kernel_(kernel), stride_(stride), pad_(pad),
      weights_(in_channels * kernel * kernel, out_channels),
      bias_(out_channels, 0)
{
}

void
Conv2d::initRandom(Rng &rng, i32 weight_range)
{
    for (std::size_t r = 0; r < weights_.rows(); ++r)
        for (std::size_t c = 0; c < weights_.cols(); ++c)
            weights_(r, c) = rng.uniformInt(
                static_cast<i64>(-weight_range),
                static_cast<i64>(weight_range));
    for (auto &b : bias_)
        b = static_cast<i32>(rng.uniformInt(i64{-8}, i64{8}));
}

void
Conv2d::checkInput(const Tensor &input) const
{
    if (input.channels() != cin_)
        darth_fatal("Conv2d ", name_, ": expected ", cin_,
                    " input channels, got ", input.channels());
    // outSize() is unsigned: an input extent smaller than the kernel
    // after padding would wrap into a huge output.
    if (input.height() + 2 * pad_ < kernel_ ||
        input.width() + 2 * pad_ < kernel_)
        darth_fatal("Conv2d ", name_, ": ", input.height(), "x",
                    input.width(), " input is smaller than its ",
                    kernel_, "x", kernel_, " kernel with padding ",
                    pad_);
}

std::vector<std::vector<i64>>
Conv2d::im2colPatches(const Tensor &input) const
{
    checkInput(input);
    const std::size_t out_h = outSize(input.height());
    const std::size_t out_w = outSize(input.width());
    const std::size_t k_elems = cin_ * kernel_ * kernel_;

    std::vector<std::vector<i64>> patches;
    patches.reserve(out_h * out_w);
    for (std::size_t oy = 0; oy < out_h; ++oy) {
        for (std::size_t ox = 0; ox < out_w; ++ox) {
            // im2col: gather the receptive field (Toeplitz row).
            std::vector<i64> patch(k_elems);
            std::size_t idx = 0;
            for (std::size_t ic = 0; ic < cin_; ++ic) {
                for (std::size_t ky = 0; ky < kernel_; ++ky) {
                    for (std::size_t kx = 0; kx < kernel_; ++kx) {
                        const i64 y = static_cast<i64>(oy * stride_ +
                                                       ky) -
                                      static_cast<i64>(pad_);
                        const i64 x = static_cast<i64>(ox * stride_ +
                                                       kx) -
                                      static_cast<i64>(pad_);
                        patch[idx++] =
                            (y < 0 ||
                             y >= static_cast<i64>(input.height()) ||
                             x < 0 ||
                             x >= static_cast<i64>(input.width()))
                                ? 0
                                : input.at(ic,
                                           static_cast<std::size_t>(y),
                                           static_cast<std::size_t>(x));
                    }
                }
            }
            patches.push_back(std::move(patch));
        }
    }
    return patches;
}

void
Conv2d::epilogue(const i64 *acc, std::size_t pos, const MvmNoise &noise,
                 Tensor &out) const
{
    const std::size_t k_elems = cin_ * kernel_ * kernel_;
    const std::size_t positions = out.height() * out.width();
    i32 *dst = out.data().data() + pos;
    for (std::size_t oc = 0; oc < cout_; ++oc) {
        i64 v = noise.perturb(acc[oc], k_elems);
        v += bias_[oc];
        v >>= requantShift_;
        dst[oc * positions] =
            static_cast<i32>(std::clamp<i64>(v, -127, 127));
    }
}

Tensor
Conv2d::assembleFromAccs(const std::vector<std::vector<i64>> &accs,
                         std::size_t out_h, std::size_t out_w,
                         const MvmNoise &noise) const
{
    const std::size_t positions = out_h * out_w;
    if (accs.size() != positions)
        darth_fatal("Conv2d ", name_, ": ", accs.size(),
                    " accumulator vectors for ", out_h, "x", out_w,
                    " output positions");
    for (const std::vector<i64> &row : accs)
        if (row.size() != cout_)
            darth_fatal("Conv2d ", name_, ": accumulator vector "
                        "has ", row.size(), " values for ", cout_,
                        " output channels");
    Tensor out(cout_, out_h, out_w);
    for (std::size_t pos = 0; pos < positions; ++pos)
        epilogue(accs[pos].data(), pos, noise, out);
    return out;
}

Tensor
Conv2d::forward(const Tensor &input, const MvmNoise &noise) const
{
    checkInput(input);
    const std::size_t in_h = input.height();
    const std::size_t in_w = input.width();
    const std::size_t out_h = outSize(in_h);
    const std::size_t out_w = outSize(in_w);
    const std::size_t positions = out_h * out_w;

    // Direct convolution into one (position, oc) accumulator: each
    // weight row (ic, ky, kx) meets exactly the output positions whose
    // input pixel lies inside the image, so padding is never visited.
    // Integer sums are order-free, so this equals the im2col MVM.
    std::vector<i64> accs(positions * cout_, 0);
    const i32 *in = input.data().data();
    const i64 *w = weights_.data().data();
    for (std::size_t ic = 0; ic < cin_; ++ic) {
        const i32 *plane = in + ic * in_h * in_w;
        for (std::size_t ky = 0; ky < kernel_; ++ky) {
            const auto [oy_lo, oy_hi] =
                insideOutputs(ky, in_h, out_h, stride_, pad_);
            for (std::size_t kx = 0; kx < kernel_; ++kx) {
                const auto [ox_lo, ox_hi] =
                    insideOutputs(kx, in_w, out_w, stride_, pad_);
                const i64 *wrow =
                    w + ((ic * kernel_ + ky) * kernel_ + kx) * cout_;
                for (std::size_t oy = oy_lo; oy < oy_hi; ++oy) {
                    const i32 *src =
                        plane + (oy * stride_ + ky - pad_) * in_w;
                    i64 *dst = accs.data() + oy * out_w * cout_;
                    for (std::size_t ox = ox_lo; ox < ox_hi; ++ox)
                        accumulateRow(dst + ox * cout_,
                                      src[ox * stride_ + kx - pad_],
                                      wrow, cout_);
                }
            }
        }
    }

    Tensor out(cout_, out_h, out_w);
    for (std::size_t pos = 0; pos < positions; ++pos)
        epilogue(accs.data() + pos * cout_, pos, noise, out);
    return out;
}

LayerStats
Conv2d::stats(std::size_t in_h, std::size_t in_w) const
{
    LayerStats s;
    s.name = name_;
    s.mvmRows = cin_ * kernel_ * kernel_;
    s.mvmCols = cout_;
    const std::size_t out_h = outSize(in_h);
    const std::size_t out_w = outSize(in_w);
    s.mvmCount = out_h * out_w;
    s.macs = static_cast<u64>(s.mvmRows) * s.mvmCols * s.mvmCount;
    s.outputElems = static_cast<u64>(cout_) * out_h * out_w;
    // Bias add + requant + ReLU per output element.
    s.elementOps = 3 * s.outputElems;
    return s;
}

FullyConnected::FullyConnected(std::string name, std::size_t in_features,
                               std::size_t out_features)
    : name_(std::move(name)), in_(in_features), out_(out_features),
      weights_(in_features, out_features), bias_(out_features, 0)
{
}

void
FullyConnected::initRandom(Rng &rng, i32 weight_range)
{
    for (std::size_t r = 0; r < weights_.rows(); ++r)
        for (std::size_t c = 0; c < weights_.cols(); ++c)
            weights_(r, c) = rng.uniformInt(
                static_cast<i64>(-weight_range),
                static_cast<i64>(weight_range));
    for (auto &b : bias_)
        b = static_cast<i32>(rng.uniformInt(i64{-8}, i64{8}));
}

std::vector<i64>
FullyConnected::assembleFromAcc(const std::vector<i64> &acc,
                                const MvmNoise &noise) const
{
    if (acc.size() != out_)
        darth_fatal("FullyConnected ", name_, ": accumulator has ",
                    acc.size(), " values for ", out_, " outputs");
    std::vector<i64> out(out_);
    for (std::size_t oc = 0; oc < out_; ++oc)
        out[oc] = noise.perturb(acc[oc], in_) + bias_[oc];
    return out;
}

std::vector<i64>
FullyConnected::forward(const std::vector<i64> &input,
                        const MvmNoise &noise) const
{
    if (input.size() != in_)
        darth_fatal("FullyConnected ", name_, ": expected ", in_,
                    " inputs, got ", input.size());
    std::vector<i64> acc(out_, 0);
    const i64 *w = weights_.data().data();
    for (std::size_t i = 0; i < in_; ++i)
        accumulateRow(acc.data(), input[i], w + i * out_, out_);
    return assembleFromAcc(acc, noise);
}

LayerStats
FullyConnected::stats() const
{
    LayerStats s;
    s.name = name_;
    s.mvmRows = in_;
    s.mvmCols = out_;
    s.mvmCount = 1;
    s.macs = static_cast<u64>(in_) * out_;
    s.outputElems = out_;
    s.elementOps = s.outputElems;
    return s;
}

void
relu(Tensor &t)
{
    for (auto &v : t.data())
        v = std::max(v, 0);
}

void
addResidual(Tensor &a, const Tensor &b)
{
    if (!a.sameShape(b))
        darth_fatal("addResidual: shape mismatch");
    for (std::size_t i = 0; i < a.data().size(); ++i)
        a.data()[i] = std::clamp(a.data()[i] + b.data()[i], -127, 127);
}

std::vector<i64>
globalAvgPool(const Tensor &t)
{
    std::vector<i64> out(t.channels());
    const i64 count =
        static_cast<i64>(t.height()) * static_cast<i64>(t.width());
    for (std::size_t c = 0; c < t.channels(); ++c) {
        i64 sum = 0;
        for (std::size_t y = 0; y < t.height(); ++y)
            for (std::size_t x = 0; x < t.width(); ++x)
                sum += t.at(c, y, x);
        out[c] = sum / count;
    }
    return out;
}

void
clampActivations(Tensor &t, i32 limit)
{
    for (auto &v : t.data())
        v = std::clamp(v, -limit, limit);
}

} // namespace cnn
} // namespace darth
