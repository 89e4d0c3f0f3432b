/**
 * @file
 * A three-layer integer CNN (conv -> conv -> GAP -> FC) small enough
 * to run whole functional inferences in milliseconds.
 *
 * TinyCnn is the CNN counterpart of the serving cluster's
 * whole-inference requests (TrafficGen's CnnInfer workload) and the
 * unit-test vehicle for graph-driven forwards: the same
 * conv -> requant -> ReLU -> pool chaining as ResNet-20, at a size
 * where tests and traffic sweeps stay fast. Weights are deterministic
 * in the seed, so two TinyCnn(seed) instances are identical —
 * the property model-key sharing in the pool relies on.
 */

#ifndef DARTH_APPS_CNN_TINYCNN_H
#define DARTH_APPS_CNN_TINYCNN_H

#include <memory>
#include <vector>

#include "apps/cnn/Layers.h"

namespace darth
{
namespace cnn
{

/** Small conv-conv-fc network with deterministic random weights. */
class TinyCnn
{
  public:
    /**
     * @param seed   Weight seed (same seed, same weights).
     * @param in_hw  Input spatial extent (single channel, in_hw^2
     *               values).
     */
    explicit TinyCnn(u64 seed = 1, std::size_t in_hw = 8);

    /** Flattened input length (one channel of in_hw x in_hw). */
    std::size_t inputSize() const { return inHw_ * inHw_; }

    /** Rebuild the CHW tensor from a flat (serving-request) vector. */
    Tensor inputFromFlat(const std::vector<i64> &flat) const;

    /** Reference inference (host integer arithmetic). */
    std::vector<i64> infer(const Tensor &input) const;

    /** Per-layer workload statistics (conv1, conv2, fc). */
    std::vector<LayerStats> layerStats() const;

    const Conv2d &conv1() const { return *conv1_; }
    const Conv2d &conv2() const { return *conv2_; }
    const FullyConnected &fc() const { return *fc_; }

    std::size_t inputHw() const { return inHw_; }

  private:
    std::size_t inHw_;
    std::unique_ptr<Conv2d> conv1_;
    std::unique_ptr<Conv2d> conv2_;
    std::unique_ptr<FullyConnected> fc_;
};

} // namespace cnn
} // namespace darth

#endif // DARTH_APPS_CNN_TINYCNN_H
