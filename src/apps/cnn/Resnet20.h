/**
 * @file
 * ResNet-20 for CIFAR-10-shaped inputs (3x32x32, 10 classes).
 *
 * Standard topology [39]: conv1 (3x3, 16) then three stages of three
 * residual blocks at widths 16/32/64 (stride-2 transitions with 1x1
 * downsample convs), global average pooling, and a 10-way FC.
 *
 * Trained CIFAR-10 weights are not available offline, so the network
 * uses deterministic pseudo-random int8 weights (see DESIGN.md's
 * substitution table); the §7.5 experiment measures top-1 *agreement*
 * between noisy analog inference and exact integer inference on the
 * same network — precisely the "noise does not change the output"
 * property the paper reports as unchanged accuracy.
 */

#ifndef DARTH_APPS_CNN_RESNET20_H
#define DARTH_APPS_CNN_RESNET20_H

#include <memory>
#include <string>
#include <vector>

#include "apps/cnn/Layers.h"

namespace darth
{
namespace cnn
{

/** ResNet-20 network with deterministic random weights. */
class Resnet20
{
  public:
    /** One residual block (downsample null for identity shortcuts). */
    struct Block
    {
        std::unique_ptr<Conv2d> conv1;
        std::unique_ptr<Conv2d> conv2;
        std::unique_ptr<Conv2d> downsample;   // null when identity
    };

    explicit Resnet20(u64 seed = 42);

    /** Inference on one 3x32x32 input; returns 10 logits. */
    std::vector<i64> infer(const Tensor &input,
                           const MvmNoise &noise = MvmNoise{}) const;

    /** Argmax class of the logits. */
    static std::size_t argmax(const std::vector<i64> &logits);

    /**
     * Per-layer workload statistics in Figure 15 order:
     * c1-Conv1, r{1,2,3}-b{0,1,2}-Conv{1,2}, r{2,3}-ds, Seq-b4-Seq.
     */
    std::vector<LayerStats> layerStats() const;

    /** The final fully-connected layer (for session-stream demos). */
    const FullyConnected &fc() const { return *fc_; }

    /** The stem convolution (graph-driven forwards walk these). */
    const Conv2d &conv1() const { return *conv1_; }

    /** The three residual stages in forward order. */
    const std::vector<std::vector<Block>> &stages() const
    {
        return stages_;
    }

  private:
    std::unique_ptr<Conv2d> conv1_;
    std::vector<std::vector<Block>> stages_;
    std::unique_ptr<FullyConnected> fc_;
};

/** Deterministic synthetic CIFAR-10-shaped input. */
Tensor syntheticInput(u64 seed);

} // namespace cnn
} // namespace darth

#endif // DARTH_APPS_CNN_RESNET20_H
