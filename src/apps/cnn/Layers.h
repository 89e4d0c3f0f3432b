/**
 * @file
 * Integer-quantized CNN layers (conv via Toeplitz/im2col, fully
 * connected, ReLU, pooling, residual add, requantization).
 *
 * Convolution is expressed exactly the way DARTH-PUM executes it: an
 * im2col (Toeplitz [132]) expansion turning each output position into
 * an MVM of shape (Cin*kh*kw) x Cout, which is the unit the ACE
 * accelerates (Conv2d::forward computes the same integer sums as a
 * direct convolution); everything else (bias/BN scale, ReLU, pooling,
 * residual adds) is element-wise work the DCE executes. Each layer
 * reports those op counts so the mappers and baselines can cost it.
 */

#ifndef DARTH_APPS_CNN_LAYERS_H
#define DARTH_APPS_CNN_LAYERS_H

#include <string>
#include <vector>

#include "apps/cnn/Tensor.h"
#include "common/Matrix.h"
#include "common/Random.h"

namespace darth
{
namespace cnn
{

/** Optional MVM-output noise injection (analog error transfer). */
struct MvmNoise
{
    /** Standard deviation of additive output noise, in weight-input
     *  LSB units, per unit sqrt(K) of accumulated terms. */
    double sigmaPerSqrtK = 0.0;
    Rng *rng = nullptr;

    bool active() const { return sigmaPerSqrtK > 0.0 && rng != nullptr; }

    /** Perturb one MVM output that accumulated k terms. */
    i64
    perturb(i64 exact, std::size_t k) const
    {
        if (!active())
            return exact;
        const double sigma =
            sigmaPerSqrtK * std::sqrt(static_cast<double>(k));
        return exact +
               static_cast<i64>(std::nearbyint(rng->gaussian(0.0, sigma)));
    }
};

/** Workload statistics of one layer (for the cost models). */
struct LayerStats
{
    std::string name;
    /** MVM shape: rows (K = Cin*kh*kw) x cols (Cout). */
    std::size_t mvmRows = 0;
    std::size_t mvmCols = 0;
    /** MVM invocations (output spatial positions). */
    std::size_t mvmCount = 0;
    /** Total multiply-accumulates. */
    u64 macs = 0;
    /** Element-wise (non-MVM) operations: bias, BN, ReLU, pool... */
    u64 elementOps = 0;
    /** Output elements produced. */
    u64 outputElems = 0;
};

/** 2-D convolution with folded batch-norm (integer scale + bias). */
class Conv2d
{
  public:
    /**
     * @param name          Layer label (Figure 15 naming).
     * @param in_channels   Cin.
     * @param out_channels  Cout.
     * @param kernel        Square kernel size (3 or 1).
     * @param stride        Stride.
     * @param pad           Zero padding.
     */
    Conv2d(std::string name, std::size_t in_channels,
           std::size_t out_channels, std::size_t kernel,
           std::size_t stride, std::size_t pad);

    /** Deterministic pseudo-random int8 initialization. */
    void initRandom(Rng &rng, i32 weight_range = 7);

    /** Forward pass; optional analog noise on each MVM output. */
    Tensor forward(const Tensor &input,
                   const MvmNoise &noise = MvmNoise{}) const;

    /**
     * im2col (Toeplitz) expansion: one patch per output position, row
     * order (oy, ox), each of length Cin*k*k — exactly the MVM inputs
     * the ACE executes, streamed by the session-graph path
     * (CnnMapper). forward() convolves directly without it; patches
     * times weightMatrix() equal its accumulators exactly.
     */
    std::vector<std::vector<i64>> im2colPatches(const Tensor &input)
        const;

    /** Output spatial size for an input extent (height or width). */
    std::size_t
    outSize(std::size_t in) const
    {
        return (in + 2 * pad_ - kernel_) / stride_ + 1;
    }

    /**
     * The graph path's epilogue, the same one forward() runs: per
     * output element in (oy, ox, oc) order, perturb the raw MVM
     * accumulator (analog noise), add bias, requantize, and clamp.
     * `accs` holds one accumulator vector per output position in
     * im2colPatches() order.
     */
    Tensor assembleFromAccs(const std::vector<std::vector<i64>> &accs,
                            std::size_t out_h, std::size_t out_w,
                            const MvmNoise &noise = MvmNoise{}) const;

    /** Weight matrix in MVM layout: (Cin*k*k) rows x Cout cols. */
    const MatrixI &weightMatrix() const { return weights_; }

    /** Workload statistics for an input of the given spatial size. */
    LayerStats stats(std::size_t in_h, std::size_t in_w) const;

    const std::string &name() const { return name_; }
    std::size_t stride() const { return stride_; }

    /** Requantization shift applied to each output accumulator. */
    int requantShift() const { return requantShift_; }
    void setRequantShift(int shift) { requantShift_ = shift; }

  private:
    /** Fatal unless `input` has Cin channels and covers the kernel. */
    void checkInput(const Tensor &input) const;

    /** Epilogue of output position `pos` (row-major (oy, ox)) of
     *  `out`: `acc` holds that position's Cout raw accumulators. */
    void epilogue(const i64 *acc, std::size_t pos, const MvmNoise &noise,
                  Tensor &out) const;

    std::string name_;
    std::size_t cin_;
    std::size_t cout_;
    std::size_t kernel_;
    std::size_t stride_;
    std::size_t pad_;
    MatrixI weights_;            // (cin*k*k) x cout
    std::vector<i32> bias_;      // per output channel
    int requantShift_ = 6;
};

/** Fully connected layer (one MVM). */
class FullyConnected
{
  public:
    FullyConnected(std::string name, std::size_t in_features,
                   std::size_t out_features);

    void initRandom(Rng &rng, i32 weight_range = 7);

    std::vector<i64> forward(const std::vector<i64> &input,
                             const MvmNoise &noise = MvmNoise{}) const;

    /** Epilogue shared by forward() and the graph path: perturb each
     *  raw accumulator and add the bias. */
    std::vector<i64> assembleFromAcc(const std::vector<i64> &acc,
                                     const MvmNoise &noise = MvmNoise{})
        const;

    const MatrixI &weightMatrix() const { return weights_; }
    LayerStats stats() const;
    const std::string &name() const { return name_; }

  private:
    std::string name_;
    std::size_t in_;
    std::size_t out_;
    MatrixI weights_;            // in x out
    std::vector<i32> bias_;
};

/** In-place ReLU. */
void relu(Tensor &t);

/** Residual add: a += b (shapes must match). */
void addResidual(Tensor &a, const Tensor &b);

/** Global average pool to one value per channel (floor division). */
std::vector<i64> globalAvgPool(const Tensor &t);

} // namespace cnn
} // namespace darth

#endif // DARTH_APPS_CNN_LAYERS_H
